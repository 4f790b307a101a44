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
	"aquila/internal/sim/engine"
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

// fileRun is one file of the plan: its handle, and each thread's mapping of
// it (the verifier's last), nil until that thread first touches the file.
type fileRun struct {
	bytes uint64
	f     aquila.File
	fsf   *host.FSFile // kmmap world only
	maps  []aquila.Mapping
}

type exec struct {
	pl    *Plan
	o     *Outcome
	sys   *aquila.System
	prof  *profile.Profiler
	files []*fileRun
	ref   *ref
	db    *kreon.DB

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
		Mode: worldMode(pl.World), CPUs: pl.CPUs,
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

// payload derives slot content from (file, slot, version): self-describing
// data the oracles can recompute without storing it. Version 0 is zeros, the
// content of a slot no store has reached.
func payload(buf []byte, file, slot int, v uint64) []byte {
	clear(buf)
	if v == 0 {
		return buf
	}
	h := uint64(file+1)*0x9E3779B97F4A7C15 ^
		uint64(slot+1)*0xBF58476D1CE4E5B9 ^ (v+1)*0x94D049BB133111EB
	for i := 0; i+8 <= len(buf); i += 8 {
		h ^= h >> 33
		h *= 0xFF51AFD7ED558CCD
		h ^= h >> 29
		binary.LittleEndian.PutUint64(buf[i:], h)
	}
	return buf
}

func kvKey(i int) []byte { return []byte(fmt.Sprintf("k%08d", i)) }

func kvVal(key int, v uint64) []byte { return payload(make([]byte, 64+key%57), -1, key, v) }

// run executes the plan under an optional concrete crash plan.
func run(pl *Plan, crash *device.CrashPlan) *Outcome {
	x := &exec{pl: pl, o: &Outcome{}, prof: profile.New(), ref: newRef(pl)}
	opts := x.options()
	opts.Profiler = x.prof
	x.sys = aquila.New(opts)
	defer x.sys.Close() // a failed phase leaves its threads parked
	x.sys.InjectFaults(pl.Fault)
	if crash != nil {
		x.sys.InjectCrash(crash)
	}

	if x.phase("setup", func() { x.sys.Do(x.setup) }) && x.sys.Crashed() == nil {
		if x.phase("ops", func() {
			x.sys.Run(pl.Threads, func(t int, p *aquila.Proc) { x.workThread(t, p) })
		}) && x.sys.Crashed() == nil {
			// Do's proc starts at CPU 0's clock, behind the ops phase's end on
			// the other CPUs: the verifier waits for that end, so a crash
			// inside it dates after every ack.
			end := x.sys.Sim.Now()
			x.phase("verify", func() {
				x.sys.Do(func(p *aquila.Proc) { p.WaitUntil(end, engine.KindIOWait); x.verifyLive(p) })
			})
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
// determinism contract in crash.go). Mappings come later, per thread.
func (x *exec) setup(p *aquila.Proc) {
	x.files = x.create(p, x.sys)
	if k := x.pl.Kreon; k != nil {
		x.db = kreon.OpenWithMapping(p, x.kreonOpts(), x.kreonMap(p, x.sys))
	}
}

// create creates the plan's files in sys, each with a mapping slot per thread
// and one for the verifier. The kmmap world maps through the custom kernel
// path and syncs through a plain file handle on the same inode.
func (x *exec) create(p *aquila.Proc, sys *aquila.System) []*fileRun {
	var frs []*fileRun
	for i, spec := range x.pl.Files {
		name := fmt.Sprintf("tort%02d", i)
		fr := &fileRun{bytes: fileBytes(spec.Slots), maps: make([]aquila.Mapping, x.pl.Threads+1)}
		if x.pl.World == WorldKmmap {
			fr.fsf = sys.Host.FS.Create(p, name, fr.bytes)
			fr.f = sys.Host.OpenFile(fr.fsf, false)
		} else {
			fr.f = sys.NS.Create(p, name, fr.bytes)
		}
		frs = append(frs, fr)
	}
	return frs
}

// mapping is thread t's mapping of fr in sys, made on first touch.
func (x *exec) mapping(p *aquila.Proc, sys *aquila.System, fr *fileRun, t int) aquila.Mapping {
	if fr.maps[t] == nil {
		if x.pl.World == WorldKmmap {
			fr.maps[t] = sys.Host.MmapKmmap(p, fr.fsf, fr.bytes)
		} else {
			fr.maps[t] = sys.NS.Mmap(p, fr.f, fr.bytes)
		}
	}
	return fr.maps[t]
}

func (x *exec) kreonOpts() kreon.Options {
	k := x.pl.Kreon
	return kreon.Options{
		LogBytes: k.LogKB << 10, IndexBytes: k.IdxKB << 10,
		L0Entries: k.Keys/2 + 1,
	}
}

func (x *exec) kreonMap(p *aquila.Proc, sys *aquila.System) aquila.Mapping {
	size := kreonBytes(x.pl.Kreon)
	m := sys.NS.Mmap(p, sys.NS.Create(p, "kreon.data", size), size)
	m.Advise(p, aquila.AdviceRandom)
	return m
}

func (x *exec) workThread(t int, p *aquila.Proc) {
	for i, op := range x.pl.Ops {
		if op.T == t {
			x.o.OpsRun++
			x.step(p, i, op)
		}
	}
}

// done folds an op's result into the fingerprint stream: 0 ok, 1 a memory
// fault (an event), 2 a sync error.
func (x *exec) done(opIdx int, ev string, err error) {
	c := uint64(0)
	switch {
	case ev != "":
		x.event(ev)
		c = 1
	case err != nil:
		c = 2
	}
	x.trace = append(x.trace, uint64(opIdx)<<8|c)
}

// ack records a sync the reference acked: the AtAck crash coordinate space.
func (x *exec) ack(p *aquila.Proc, acked bool) {
	if acked {
		x.o.Acked++
		x.o.ackCycles = append(x.o.ackCycles, p.Now())
	}
}

// slotHolds asks the reference whether got is a version of slot s of file f
// in [lo, hi].
func (x *exec) slotHolds(f, s int, lo, hi uint64, got []byte) bool {
	want := make([]byte, slotBytes)
	return x.ref.files[f][s].holds(lo, hi, func(v uint64) bool {
		return bytes.Equal(got, payload(want, f, s, v))
	})
}

func (x *exec) step(p *aquila.Proc, opIdx int, op Op) {
	var ev string
	var err error
	switch op.Kind {
	case OpKvPut, OpKvGet, OpKvScan, OpKvMsync:
		x.kvStep(p, opIdx, op)
		return
	}
	fr, cells := x.files[op.File], x.ref.files[op.File]
	m := x.mapping(p, x.sys, fr, op.T)
	off := uint64(op.Slot) * slotBytes
	switch op.Kind {
	case OpStore:
		c := &cells[op.Slot]
		v := c.begin()
		buf := payload(make([]byte, slotBytes), op.File, op.Slot, v)
		ev = x.safeOp(func() { m.Store(p, off, buf) })
		c.end(v, ev == "")
	case OpLoad:
		buf := make([]byte, slotBytes)
		lo := cells[op.Slot].floor
		ev = x.safeOp(func() { m.Load(p, off, buf) })
		if ev == "" && !x.slotHolds(op.File, op.Slot, lo, cells[op.Slot].issued, buf) {
			x.fail("read-your-writes: file %d slot %d holds no version in [%d,%d] at op %d",
				op.File, op.Slot, lo, cells[op.Slot].issued, opIdx)
		}
	case OpMsync, OpMsyncRange:
		// The flushed byte range page-expands; acking only the named slots
		// is a sound under-approximation.
		lo, hi := 0, len(cells)
		if op.Kind == OpMsyncRange {
			lo, hi = op.Slot, op.Slot+op.N
		}
		snap := x.ref.syncBegin(op.File, lo, hi)
		ev = x.safeOp(func() {
			if op.Kind == OpMsync {
				err = m.Msync(p)
			} else {
				err = m.MsyncRange(p, uint64(lo)*slotBytes, uint64(hi-lo)*slotBytes)
			}
		})
		if ev == "" {
			x.ack(p, x.ref.syncEnd(op.File, lo, snap, err))
		}
	case OpFsync:
		ev = x.safeOp(func() { err = fr.f.Fsync(p) })
		if ev == "" {
			x.ref.syncEnd(op.File, 0, nil, err)
		}
	case OpUnmap:
		ev = x.safeOp(func() { m.Munmap(p) })
		fr.maps[op.T] = nil
	case OpHuge:
		ev = x.safeOp(func() { m.Advise(p, aquila.AdviceHuge) })
	}
	x.done(opIdx, ev, err)
}

// kvHolds asks the reference whether a Get's (v, ok) is a version of key in
// [lo, hi]; version 0 is an absent key.
func (x *exec) kvHolds(key int, lo, hi uint64, got []byte, ok bool) bool {
	return x.ref.files[len(x.pl.Files)][key].holds(lo, hi, func(v uint64) bool {
		return ok == (v > 0) && (v == 0 || bytes.Equal(got, kvVal(key, v)))
	})
}

func (x *exec) kvStep(p *aquila.Proc, opIdx int, op Op) {
	kf := len(x.pl.Files)
	keys := x.ref.files[kf]
	switch op.Kind {
	case OpKvPut:
		c := &keys[op.Key]
		v := c.begin()
		x.db.Put(p, kvKey(op.Key), kvVal(op.Key, v))
		c.end(v, true)
	case OpKvGet:
		c := &keys[op.Key]
		lo := c.floor
		v, ok := x.db.Get(p, kvKey(op.Key))
		if !x.kvHolds(op.Key, lo, c.issued, v, ok) {
			x.fail("kv: key %d holds no version in [%d,%d] (op %d, found=%v)", op.Key, lo, c.issued, opIdx, ok)
		}
	case OpKvScan:
		// kv ops run on thread 0 alone, so every key's window is one
		// version: a key is present iff its floor is.
		got := x.db.Scan(p, kvKey(op.Key), op.N)
		want := 0
		for k := op.Key; k < len(keys) && want < op.N; k++ {
			if keys[k].floor > 0 {
				want++
			}
		}
		if got != want {
			x.fail("kv: scan from %d width %d returned %d, reference says %d (op %d)",
				op.Key, op.N, got, want, opIdx)
		}
	case OpKvMsync:
		snap := x.ref.syncBegin(kf, 0, len(keys))
		x.db.Msync(p)
		x.ack(p, x.ref.syncEnd(kf, 0, snap, nil))
	}
	x.done(opIdx, "", nil)
}

// verifyLive is the quiesced, single-proc oracle phase of a run that did not
// crash: errseq exactly-once, a full read-back through the verifier's own
// mapping of each file, Kreon content checks, and the runtime invariant audit.
func (x *exec) verifyLive(p *aquila.Proc) {
	buf := make([]byte, slotBytes)
	for i, fr := range x.files {
		m := x.mapping(p, x.sys, fr, x.pl.Threads)
		_ = m.Msync(p) // reports what this new opener has not seen yet: any error is legal
		var wb0, rq0, qr0 uint64
		if rt := x.sys.RT; rt != nil {
			wb0, rq0, qr0 = rt.Stats.WrittenBack, rt.Stats.RequeuedPages, rt.Stats.QuarantinedPages
		}
		if err := m.Msync(p); err != nil {
			if x.pl.Fault == nil {
				x.fail("errseq: file %d second msync errored with no faults: %v", i, err)
			} else if rt := x.sys.RT; rt != nil &&
				rt.Stats.WrittenBack == wb0 && rt.Stats.RequeuedPages == rq0 &&
				rt.Stats.QuarantinedPages == qr0 {
				// No page was written back, requeued, or quarantined between
				// the two msyncs: there was no new failure occurrence, so a
				// second report breaks errseq's exactly-once contract.
				x.fail("errseq: file %d error re-reported without a new occurrence: %v", i, err)
			}
		}
		for s, c := range x.ref.files[i] {
			if ev := x.safeOp(func() { m.Load(p, uint64(s)*slotBytes, buf) }); ev != "" {
				x.event(ev)
			} else if !x.slotHolds(i, s, c.floor, c.issued, buf) {
				x.fail("final read-back: file %d slot %d holds no version in [%d,%d]", i, s, c.floor, c.issued)
			}
		}
	}
	if x.db != nil {
		for k, c := range x.ref.files[len(x.pl.Files)] {
			v, ok := x.db.Get(p, kvKey(k))
			if !x.kvHolds(k, c.floor, c.issued, v, ok) {
				x.fail("kv final: key %d holds no version in [%d,%d]", k, c.floor, c.issued)
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

// verifyRecovered re-creates the files in exactly the original order, so the
// deterministic allocators hand back the same extents (the recovery
// determinism contract), and holds every record to [acked, issued].
func (x *exec) verifyRecovered(p *aquila.Proc, rsys *aquila.System) {
	lost := func(format string, args ...any) {
		x.o.Lost++
		x.fail("acked-then-lost: "+format, args...)
	}
	buf := make([]byte, slotBytes)
	for i, fr := range x.create(p, rsys) {
		if i >= len(x.files) {
			break // crashed during setup before this file existed
		}
		m := x.mapping(p, rsys, fr, 0)
		for s, c := range x.ref.files[i] {
			if ev := x.safeOp(func() { m.Load(p, uint64(s)*slotBytes, buf) }); ev != "" {
				lost("file %d slot %d unreadable after recovery: %s", i, s, ev)
			} else if !x.slotHolds(i, s, c.acked, c.issued, buf) {
				lost("file %d slot %d holds no version in [%d,%d] after crash", i, s, c.acked, c.issued)
			}
		}
	}
	if x.pl.Kreon != nil && x.db != nil {
		db := kreon.Reopen(p, x.kreonOpts(), x.kreonMap(p, rsys))
		for k, c := range x.ref.files[len(x.pl.Files)] {
			v, ok := db.Get(p, kvKey(k))
			if !x.kvHolds(k, c.acked, c.issued, v, ok) {
				lost("kreon key %d holds no version in [%d,%d] after crash", k, c.acked, c.issued)
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
