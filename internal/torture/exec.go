package torture

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"aquila"
	"aquila/internal/core"
	"aquila/internal/host"
	"aquila/internal/kvs/kreon"
	"aquila/internal/obs/profile"
	"aquila/internal/sim/device"
)

// slotBytes is the record size of the mmapped-file workload: 8 slots per
// 4 KB page, so traces exercise partial-page stores, same-page overwrite,
// and cross-slot tearing at crash points.
const slotBytes = 512

// Outcome is what one Execute produced. Fingerprint is the determinism
// witness: the FNV-1a fold of the op-result stream, the final (or crashed)
// device image hash, the acknowledgment cycles, and the failure text — two
// runs of the same plan must agree bit for bit.
type Outcome struct {
	Fingerprint uint64   `json:"fingerprint"`
	Crashed     bool     `json:"crashed"`
	CrashCycle  uint64   `json:"crash_cycle,omitempty"`
	Cycles      uint64   `json:"cycles"`
	OpsRun      int      `json:"ops_run"`
	Acked       int      `json:"acked"`
	Lost        int      `json:"lost"`
	Failures    []string `json:"failures,omitempty"`
	Events      []string `json:"events,omitempty"`
	EventCount  int      `json:"event_count,omitempty"`

	// Probe outputs for symbolic crash resolution (not part of the wire).
	ackCycles []uint64
	devWrites uint64
}

// Failed reports whether any oracle tripped.
func (o *Outcome) Failed() bool { return len(o.Failures) > 0 }

// Execute runs a plan and fires the oracle battery. Symbolic crash
// coordinates (AtAck/OpFrac) are first resolved against a crash-free probe
// run of the same plan, so they stay meaningful as the shrinker removes ops.
func Execute(pl *Plan) *Outcome {
	if err := pl.Validate(); err != nil {
		return &Outcome{Failures: []string{err.Error()}}
	}
	var crash *device.CrashPlan
	if cs := pl.Crash; cs != nil {
		crash = &device.CrashPlan{Seed: cs.Seed, TearProb: cs.TearProb}
		switch {
		case cs.AtSpan != "":
			crash.AtSpan, crash.SpanHit = cs.AtSpan, cs.SpanHit
		default:
			probe := run(pl, nil)
			switch {
			case cs.AtAck > 0 && len(probe.ackCycles) > 0:
				k := cs.AtAck
				if k > len(probe.ackCycles) {
					k = len(probe.ackCycles)
				}
				crash.AtCycle = probe.ackCycles[k-1] + 1
			case cs.OpFrac > 0 && probe.devWrites > 0:
				crash.AtDeviceOp = 1 + uint64(cs.OpFrac*float64(probe.devWrites-1))
			default:
				crash = nil // nothing to anchor the crash to: run crash-free
			}
		}
	}
	return run(pl, crash)
}

// slotState is the model's view of one record.
type slotState struct {
	written bool
	unknown bool // content unpredictable (a store SIGBUSed mid-copy)
	seq     uint64
	acked   bool
	ackSeq  uint64
}

// fileRun is one mmapped file plus its model state.
type fileRun struct {
	name  string
	bytes uint64
	f     aquila.File
	m     aquila.Mapping
	fsf   *host.FSFile // kmmap world only
	slots []slotState
	// errTaint latches once any sync path reported an error for this file:
	// from then on msync's nil can no longer be read as "all durable",
	// because an earlier fsync/msync may have consumed the errseq report
	// for data that never reached the device. Tainted files stop acking.
	errTaint bool
}

type exec struct {
	pl    *Plan
	o     *Outcome
	sys   *aquila.System
	prof  *profile.Profiler
	files []*fileRun

	// Kreon model: current version per key, and the version snapshot the
	// last completed kv_msync promised durable.
	db      *kreon.DB
	kvVer   []uint64
	kvAcked []uint64

	trace []uint64 // fingerprint stream: one code per op result
}

func (x *exec) fail(format string, args ...any) {
	x.o.Failures = append(x.o.Failures, fmt.Sprintf(format, args...))
}

// event records legal-but-notable behavior (SIGBUS under injected faults).
// Without faults armed there is nothing that may SIGBUS, so it escalates.
func (x *exec) event(s string) {
	if x.pl.Fault == nil {
		x.fail("unexpected SIGBUS/SIGSEGV with no faults injected: %s", s)
		return
	}
	x.o.EventCount++
	if len(x.o.Events) < 8 {
		x.o.Events = append(x.o.Events, s)
	}
}

// safeOp runs one workload step, absorbing the typed memory-fault panics
// (SIGBUS/SIGSEGV) the worlds deliver for failed accesses. Anything else —
// in particular the engine's private crash sentinel — propagates.
func (x *exec) safeOp(fn func()) (event string) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case *core.SigBus, *core.SigSegv:
			event = fmt.Sprint(r)
		default:
			panic(r)
		}
	}()
	fn()
	return ""
}

// phase runs one engine phase (a Do or Run), converting a panic that surfaces
// from it — the engine's own (simulated deadlock) or one raised inside an op,
// which the engine re-raises unchanged on its Run caller — into an oracle
// failure instead of taking the whole process down: the shrinker needs
// failures it can iterate on.
func (x *exec) phase(name string, fn func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			x.fail("phase %s: engine panic: %v", name, r)
			ok = false
		}
	}()
	fn()
	return true
}

func worldMode(world string) aquila.Mode {
	switch world {
	case WorldLinux, WorldKmmap:
		return aquila.ModeLinuxMmap
	case WorldLinuxDirect:
		return aquila.ModeLinuxDirect
	default:
		return aquila.ModeAquila
	}
}

// tortureParams is the harness's cache-proportional parameter scaling, so
// tight-cache plans keep batch sizes sane, plus the plan's huge-page and (for
// the proof run) unsafe-msync knobs.
func tortureParams(pl *Plan, cacheBytes uint64) *core.Params {
	p := core.ParamsForCache(cacheBytes)
	p.HugeFaultDensity = pl.HugeDensity
	p.UnsafeMsyncAtSubmit = pl.Unsafe
	return p
}

func (x *exec) options() aquila.Options {
	pl := x.pl
	cache := pl.CacheKB << 10
	var devBytes uint64 = 64 << 20
	for _, f := range pl.Files {
		devBytes += fileBytes(f.Slots)
	}
	if pl.Kreon != nil {
		devBytes += kreonBytes(pl.Kreon)
	}
	opts := aquila.Options{
		Mode: worldMode(pl.World), CPUs: pl.CPUs, Seed: pl.Seed,
		CacheBytes: cache, DeviceBytes: devBytes,
		SchedPerturb: pl.SchedPerturb,
	}
	if pl.Device == "nvme" {
		opts.Device = aquila.DeviceNVMe
	}
	if pl.World == WorldAquila {
		opts.Params = tortureParams(pl, cache)
	}
	return opts
}

func fileBytes(slots int) uint64 {
	return (uint64(slots)*slotBytes + 4095) &^ uint64(4095)
}

func kreonBytes(k *KreonSpec) uint64 {
	return 4096 + k.LogKB<<10 + k.IdxKB<<10
}

// payload derives slot content from (file, slot, seq): self-describing data
// the read-back and recovery oracles can recompute without storing it.
func payload(buf []byte, file, slot int, seq uint64) {
	h := uint64(file+1)*0x9E3779B97F4A7C15 ^
		uint64(slot+1)*0xBF58476D1CE4E5B9 ^ (seq+1)*0x94D049BB133111EB
	for i := 0; i+8 <= len(buf); i += 8 {
		h ^= h >> 33
		h *= 0xFF51AFD7ED558CCD
		h ^= h >> 29
		binary.LittleEndian.PutUint64(buf[i:], h)
	}
}

func kvKey(i int) []byte { return []byte(fmt.Sprintf("k%08d", i)) }

func kvVal(key int, ver uint64) []byte {
	buf := make([]byte, 64+key%57)
	payload(buf, -1, key, ver)
	return buf
}

// run executes the plan under an optional concrete crash plan.
func run(pl *Plan, crash *device.CrashPlan) *Outcome {
	x := &exec{pl: pl, o: &Outcome{}, prof: profile.New()}
	opts := x.options()
	opts.Profiler = x.prof
	x.sys = aquila.New(opts)
	defer x.sys.Close() // a failed phase leaves its threads parked
	if pl.Fault != nil {
		fp, err := pl.Fault.Compile()
		if err != nil {
			x.fail("fault plan: %v", err)
			return x.o
		}
		x.sys.InjectFaults(fp)
	}
	if crash != nil {
		x.sys.InjectCrash(crash)
	}

	if x.phase("setup", func() { x.sys.Do(x.setup) }) && x.sys.Crashed() == nil {
		if x.phase("ops", func() {
			x.sys.Run(pl.Threads, func(t int, p *aquila.Proc) { x.workThread(t, p) })
		}) && x.sys.Crashed() == nil {
			x.phase("verify", func() { x.sys.Do(x.verifyLive) })
		}
	}

	x.o.Cycles = x.sys.Sim.Now()
	x.o.devWrites = x.sys.Store().Stats().Writes
	sort.Slice(x.o.ackCycles, func(i, j int) bool { return x.o.ackCycles[i] < x.o.ackCycles[j] })

	var devFP uint64
	if info := x.sys.Crashed(); info != nil {
		x.o.Crashed, x.o.CrashCycle = true, info.Cycle
		devFP = x.verifyCrashed(opts)
	} else {
		st := x.sys.Store()
		st.SettleAll()
		devFP = st.Fingerprint()
		x.prof.SetTotalCycles(x.sys.Sim.Now())
		if err := x.prof.Reconcile(); err != nil {
			x.fail("profiler reconcile: %v", err)
		}
	}
	x.fingerprint(devFP)
	return x.o
}

// setup creates every file (and the Kreon store) in plan order — the order
// recovery must replay to find the same device extents (the recovery
// determinism contract in crash.go).
func (x *exec) setup(p *aquila.Proc) {
	for i, spec := range x.pl.Files {
		fr := &fileRun{
			name:  fmt.Sprintf("tort%02d", i),
			bytes: fileBytes(spec.Slots),
			slots: make([]slotState, spec.Slots),
		}
		x.createAndMap(p, x.sys, fr)
		x.files = append(x.files, fr)
	}
	if k := x.pl.Kreon; k != nil {
		size := kreonBytes(k)
		f := x.sys.NS.Create(p, "kreon.data", size)
		m := x.sys.NS.Mmap(p, f, size)
		m.Advise(p, aquila.AdviceRandom)
		x.db = kreon.OpenWithMapping(p, x.kreonOpts(), m)
		x.kvVer = make([]uint64, k.Keys)
		x.kvAcked = make([]uint64, k.Keys)
	}
}

func (x *exec) kreonOpts() kreon.Options {
	k := x.pl.Kreon
	return kreon.Options{
		LogBytes: k.LogKB << 10, IndexBytes: k.IdxKB << 10,
		L0Entries: k.Keys/2 + 1,
	}
}

// createAndMap creates (or re-creates, during recovery) and maps one file in
// the given system. The kmmap world maps through the custom kernel path and
// reads/syncs through a plain file handle on the same inode.
func (x *exec) createAndMap(p *aquila.Proc, sys *aquila.System, fr *fileRun) {
	if x.pl.World == WorldKmmap {
		fr.fsf = sys.Host.FS.Create(p, fr.name, fr.bytes)
		fr.f = sys.Host.OpenFile(fr.fsf, false)
		fr.m = sys.Host.MmapKmmap(p, fr.fsf, fr.bytes)
		return
	}
	fr.f = sys.NS.Create(p, fr.name, fr.bytes)
	fr.m = sys.NS.Mmap(p, fr.f, fr.bytes)
}

// remap re-establishes the mapping after an unmap op (same world rules).
func (x *exec) remap(p *aquila.Proc, fr *fileRun) {
	if x.pl.World == WorldKmmap {
		fr.m = x.sys.Host.MmapKmmap(p, fr.fsf, fr.bytes)
		return
	}
	fr.m = x.sys.NS.Mmap(p, fr.f, fr.bytes)
}

func (x *exec) workThread(t int, p *aquila.Proc) {
	for i, op := range x.pl.Ops {
		if op.T != t {
			continue
		}
		x.step(p, i, op)
	}
}

// code folds an op's result into the fingerprint stream.
func (x *exec) code(opIdx int, c uint64) {
	x.trace = append(x.trace, uint64(opIdx)<<8|c&0xff)
}

func (x *exec) step(p *aquila.Proc, opIdx int, op Op) {
	x.o.OpsRun++
	switch op.Kind {
	case OpKvPut, OpKvGet, OpKvScan, OpKvMsync:
		x.kvStep(p, opIdx, op)
		return
	}
	fr := x.files[op.File]
	off := uint64(op.Slot) * slotBytes
	switch op.Kind {
	case OpStore:
		sl := &fr.slots[op.Slot]
		next := sl.seq + 1
		buf := make([]byte, slotBytes)
		payload(buf, op.File, op.Slot, next)
		if ev := x.safeOp(func() { fr.m.Store(p, off, buf) }); ev != "" {
			// The store may have copied any prefix before faulting: the
			// slot's content and durability are both unpredictable now.
			sl.unknown, sl.acked = true, false
			x.event(ev)
			x.code(opIdx, 1)
			return
		}
		sl.written, sl.unknown, sl.seq = true, false, next
		x.code(opIdx, 0)
	case OpLoad:
		sl := &fr.slots[op.Slot]
		buf := make([]byte, slotBytes)
		if ev := x.safeOp(func() { fr.m.Load(p, off, buf) }); ev != "" {
			x.event(ev)
			x.code(opIdx, 1)
			return
		}
		if sl.written && !sl.unknown {
			want := make([]byte, slotBytes)
			payload(want, op.File, op.Slot, sl.seq)
			if !bytes.Equal(buf, want) {
				x.fail("read-your-writes: file %d slot %d seq %d differs at op %d",
					op.File, op.Slot, sl.seq, opIdx)
			}
		}
		x.code(opIdx, 0)
	case OpMsync:
		var err error
		if ev := x.safeOp(func() { err = fr.m.Msync(p) }); ev != "" {
			x.event(ev)
			x.code(opIdx, 1)
			return
		}
		if err != nil {
			fr.errTaint = true
			x.code(opIdx, 2)
			return
		}
		x.ackFile(p, fr, 0, len(fr.slots))
		x.code(opIdx, 0)
	case OpMsyncRange:
		lo, hi := op.Slot, op.Slot+op.N
		var err error
		if ev := x.safeOp(func() {
			err = fr.m.MsyncRange(p, uint64(lo)*slotBytes, uint64(hi-lo)*slotBytes)
		}); ev != "" {
			x.event(ev)
			x.code(opIdx, 1)
			return
		}
		if err != nil {
			fr.errTaint = true
			x.code(opIdx, 2)
			return
		}
		// The flushed byte range page-expands; acking only the named slots
		// is a sound under-approximation.
		x.ackFile(p, fr, lo, hi)
		x.code(opIdx, 0)
	case OpFsync:
		var err error
		if ev := x.safeOp(func() { err = fr.f.Fsync(p) }); ev != "" {
			x.event(ev)
			x.code(opIdx, 1)
			return
		}
		if err != nil {
			// The handle consumed an errseq report the next msync will no
			// longer see: this file's acks can't be trusted any more.
			fr.errTaint = true
			x.code(opIdx, 2)
			return
		}
		x.code(opIdx, 0)
	case OpUnmap:
		if ev := x.safeOp(func() { fr.m.Munmap(p) }); ev != "" {
			x.event(ev)
		}
		x.remap(p, fr)
		if x.pl.Fault != nil {
			// Munmap writes dirty pages back but discards errors; with
			// faults armed, anything not already acked is now unknowable.
			for s := range fr.slots {
				sl := &fr.slots[s]
				if sl.written && sl.seq != sl.ackSeq {
					sl.unknown = true
					sl.acked = false
				}
			}
		}
		x.code(opIdx, 0)
	case OpHuge:
		if ev := x.safeOp(func() { fr.m.Advise(p, aquila.AdviceHuge) }); ev != "" {
			x.event(ev)
		}
		x.code(opIdx, 0)
	}
}

// ackFile marks slots [lo,hi) durably acknowledged after a nil msync on an
// untainted file, and records the acknowledgment cycle (the AtAck crash
// coordinate space).
func (x *exec) ackFile(p *aquila.Proc, fr *fileRun, lo, hi int) {
	if fr.errTaint {
		return
	}
	for s := lo; s < hi; s++ {
		sl := &fr.slots[s]
		if sl.written && !sl.unknown {
			sl.acked, sl.ackSeq = true, sl.seq
		}
	}
	x.o.Acked++
	x.o.ackCycles = append(x.o.ackCycles, p.Now())
}

func (x *exec) kvStep(p *aquila.Proc, opIdx int, op Op) {
	switch op.Kind {
	case OpKvPut:
		next := x.kvVer[op.Key] + 1
		x.db.Put(p, kvKey(op.Key), kvVal(op.Key, next))
		x.kvVer[op.Key] = next
		x.code(opIdx, 0)
	case OpKvGet:
		v, ok := x.db.Get(p, kvKey(op.Key))
		want := x.kvVer[op.Key]
		switch {
		case want == 0 && ok:
			x.fail("kv: key %d never put but Get found it (op %d)", op.Key, opIdx)
		case want > 0 && (!ok || !bytes.Equal(v, kvVal(op.Key, want))):
			x.fail("kv: key %d version %d mismatch (op %d, found=%v)", op.Key, want, opIdx, ok)
		}
		x.code(opIdx, 0)
	case OpKvScan:
		got := x.db.Scan(p, kvKey(op.Key), op.N)
		want := 0
		for k := op.Key; k < len(x.kvVer) && want < op.N; k++ {
			if x.kvVer[k] > 0 {
				want++
			}
		}
		if got != want {
			x.fail("kv: scan from %d width %d returned %d, model says %d (op %d)",
				op.Key, op.N, got, want, opIdx)
		}
		x.code(opIdx, 0)
	case OpKvMsync:
		x.db.Msync(p)
		copy(x.kvAcked, x.kvVer)
		x.o.Acked++
		x.o.ackCycles = append(x.o.ackCycles, p.Now())
		x.code(opIdx, 0)
	}
}

// verifyLive is the quiesced, single-proc oracle phase of a run that did not
// crash: errseq exactly-once, full read-back against the model, Kreon
// content checks, and the runtime invariant audit.
func (x *exec) verifyLive(p *aquila.Proc) {
	for i, fr := range x.files {
		err1 := fr.m.Msync(p)
		if err1 != nil {
			fr.errTaint = true
		}
		var wb0, rq0, qr0 uint64
		if rt := x.sys.RT; rt != nil {
			wb0, rq0, qr0 = rt.Stats.WrittenBack, rt.Stats.RequeuedPages, rt.Stats.QuarantinedPages
		}
		err2 := fr.m.Msync(p)
		if err2 != nil {
			if x.pl.Fault == nil {
				x.fail("errseq: file %d second msync errored with no faults: %v", i, err2)
			} else if rt := x.sys.RT; rt != nil &&
				rt.Stats.WrittenBack == wb0 && rt.Stats.RequeuedPages == rq0 &&
				rt.Stats.QuarantinedPages == qr0 {
				// No page was written back, requeued, or quarantined between
				// the two msyncs: there was no new failure occurrence, so a
				// second report breaks errseq's exactly-once contract.
				x.fail("errseq: file %d error re-reported without a new occurrence: %v", i, err2)
			}
		}
		buf := make([]byte, slotBytes)
		want := make([]byte, slotBytes)
		for s := range fr.slots {
			sl := &fr.slots[s]
			if !sl.written || sl.unknown {
				continue
			}
			if ev := x.safeOp(func() { fr.m.Load(p, uint64(s)*slotBytes, buf) }); ev != "" {
				x.event(ev)
				continue
			}
			payload(want, i, s, sl.seq)
			if !bytes.Equal(buf, want) {
				x.fail("final read-back: file %d slot %d seq %d differs", i, s, sl.seq)
			}
		}
	}
	if x.db != nil {
		for k, ver := range x.kvVer {
			if ver == 0 {
				continue
			}
			v, ok := x.db.Get(p, kvKey(k))
			if !ok || !bytes.Equal(v, kvVal(k, ver)) {
				x.fail("kv final: key %d version %d missing or wrong", k, ver)
			}
		}
	}
	if rt := x.sys.RT; rt != nil {
		if err := rt.CheckInvariants(); err != nil {
			x.fail("invariants: %v", err)
		}
	}
}

// verifyCrashed runs the crash battery: crash-point invariant audit, durable
// image capture, recovery into a fresh system, and verification that every
// record acknowledged durable before the crash survived. Returns the durable
// image fingerprint (the crashed run's device hash).
func (x *exec) verifyCrashed(opts aquila.Options) uint64 {
	if rt := x.sys.RT; rt != nil {
		if err := rt.CheckCrashInvariants(); err != nil {
			x.fail("crash invariants: %v", err)
		}
	}
	img := x.sys.CaptureCrash()
	opts.Profiler = nil // recovery spans would pollute the crashed profile
	rsys := aquila.Recover(opts, img)
	defer rsys.Close()
	ok := x.phase("recovery", func() { rsys.Do(func(p *aquila.Proc) { x.verifyRecovered(p, rsys) }) })
	if ok && rsys.Crashed() != nil {
		x.fail("recovery run crashed at cycle %d", rsys.Crashed().Cycle)
	}
	if rt := rsys.RT; rt != nil {
		if err := rt.CheckInvariants(); err != nil {
			x.fail("recovered invariants: %v", err)
		}
	}
	return img.Fingerprint
}

func (x *exec) verifyRecovered(p *aquila.Proc, rsys *aquila.System) {
	// Re-create files in exactly the original order so the deterministic
	// allocators hand back the same extents (recovery determinism contract).
	buf := make([]byte, slotBytes)
	want := make([]byte, slotBytes)
	for i, spec := range x.pl.Files {
		fr := &fileRun{
			name:  fmt.Sprintf("tort%02d", i),
			bytes: fileBytes(spec.Slots),
		}
		x.createAndMap(p, rsys, fr)
		src := x.files
		if i >= len(src) {
			break // crashed during setup before this file existed
		}
		for s := range src[i].slots {
			sl := &src[i].slots[s]
			// Only slots that were acknowledged and not overwritten since
			// are pinned down: a post-ack store leaves the durable content
			// legitimately either version.
			if !sl.acked || sl.seq != sl.ackSeq || sl.unknown {
				continue
			}
			if ev := x.safeOp(func() { fr.m.Load(p, uint64(s)*slotBytes, buf) }); ev != "" {
				x.o.Lost++
				x.fail("acked-then-lost: file %d slot %d unreadable after recovery: %s", i, s, ev)
				continue
			}
			payload(want, i, s, sl.ackSeq)
			if !bytes.Equal(buf, want) {
				x.o.Lost++
				x.fail("acked-then-lost: file %d slot %d seq %d not durable after crash",
					i, s, sl.ackSeq)
			}
		}
	}
	if k := x.pl.Kreon; k != nil && x.db != nil {
		size := kreonBytes(k)
		f := rsys.NS.Create(p, "kreon.data", size)
		m := rsys.NS.Mmap(p, f, size)
		db := kreon.Reopen(p, x.kreonOpts(), m)
		anyAcked := false
		for _, v := range x.kvAcked {
			if v > 0 {
				anyAcked = true
				break
			}
		}
		if anyAcked && db.Recov.FreshStore {
			x.o.Lost++
			x.fail("acked-then-lost: kreon recovered as a fresh store despite acked puts")
			return
		}
		for key, ackVer := range x.kvAcked {
			if ackVer == 0 {
				continue
			}
			v, ok := db.Get(p, kvKey(key))
			if !ok {
				x.o.Lost++
				x.fail("acked-then-lost: kreon key %d (acked v%d) missing after recovery", key, ackVer)
				continue
			}
			// Any version from the acked one through the last put is a
			// legal durable state (later appends may have reached media).
			good := false
			for ver := ackVer; ver <= x.kvVer[key]; ver++ {
				if bytes.Equal(v, kvVal(key, ver)) {
					good = true
					break
				}
			}
			if !good {
				x.o.Lost++
				x.fail("acked-then-lost: kreon key %d recovered to no version in [v%d,v%d]",
					key, ackVer, x.kvVer[key])
			}
		}
	}
}

// fingerprint folds the run into Outcome.Fingerprint (FNV-1a 64).
func (x *exec) fingerprint(devFP uint64) {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mixs := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
	}
	mix(uint64(x.pl.Seed))
	mix(x.o.Cycles)
	mix(devFP)
	mix(uint64(x.o.OpsRun))
	for _, c := range x.trace {
		mix(c)
	}
	for _, c := range x.o.ackCycles {
		mix(c)
	}
	for _, f := range x.o.Failures {
		mixs(f)
	}
	x.o.Fingerprint = h
}
