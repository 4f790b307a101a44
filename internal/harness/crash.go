package harness

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"aquila"
	"aquila/internal/core"
	"aquila/internal/kvs/kreon"
	"aquila/internal/ycsb"
)

// Crash-state enumeration: a record-append workload with per-batch msync runs
// once to trace its device-op count and msync-ack cycles, then re-runs under a
// strided sweep of crash plans — one killing the machine at the Nth device
// write (with a seeded torn-sector policy), one killing it one cycle after an
// msync acknowledgment. Every crash point recovers from the captured durable
// image and is checked against a three-part oracle: all records acknowledged
// durable before the crash are present and CRC-valid, the crashed runtime
// passes the crash-point invariant audit, and the recovered runtime passes the
// full one. The same sweep runs Aquila and the Linux-mmap baseline on pmem and
// NVMe, plus Kreon end to end (CRC log replay, tail truncation). A final row
// re-runs the ack sweep with Params.UnsafeMsyncAtSubmit — msync acknowledging
// at submission instead of completion — and must FAIL, proving the oracle
// catches writeback-ordering bugs rather than vacuously passing.

func init() {
	register(Experiment{
		ID:    "ablate-crash",
		Title: "Crash-consistency enumeration: strided crash points, recovery oracle",
		Paper: "msync durability contract (§3.2 writeback, §4 Kreon recovery) holds at every enumerated crash point",
		Run:   runAblateCrash,
	})
}

// crashRecSize is the WAL record size: [seq u64][crc u32][pad u32][payload 48].
const crashRecSize = 64

// appendCrashRecord appends record seq to dst; the CRC covers seq and
// payload. A run builds every record into the same buffer: Store copies it.
func appendCrashRecord(dst []byte, seq uint64) []byte {
	dst = append(dst, make([]byte, crashRecSize)...)
	rec := dst[len(dst)-crashRecSize:]
	binary.LittleEndian.PutUint64(rec, seq)
	for i := 16; i < crashRecSize; i++ {
		rec[i] = byte(seq*2654435761 + uint64(i)*97)
	}
	c := crc32.Update(0, crc32.IEEETable, rec[:8])
	c = crc32.Update(c, crc32.IEEETable, rec[16:])
	binary.LittleEndian.PutUint32(rec[8:], c)
	return dst
}

// crashRecordOK validates a recovered record against its expected sequence.
func crashRecordOK(seq uint64, rec []byte) bool {
	if binary.LittleEndian.Uint64(rec) != seq {
		return false
	}
	c := crc32.Update(0, crc32.IEEETable, rec[:8])
	c = crc32.Update(c, crc32.IEEETable, rec[16:])
	return binary.LittleEndian.Uint32(rec[8:]) == c
}

// crashProbe is the outcome of one (possibly crashed) run.
type crashProbe struct {
	crashed bool
	// acked counts records whose covering msync had returned before the
	// crash — the durability promises the oracle holds the system to.
	acked uint64
	// lost counts acked records missing or CRC-invalid after recovery.
	lost int
	// invErr is the first invariant failure (crashed or recovered runtime).
	invErr error
	cycles uint64
	// writes and ackCycles are trace-run outputs: total device content
	// writes, and the cycle at which each batch msync returned.
	writes    uint64
	ackCycles []uint64
}

// crashRun boots opts, arms the optional crash plan and runs work, which
// records its msync acknowledgments in the probe. If the plan fired it
// captures the durable image, recovers a world from it, and runs verify there
// to count the acked records that did not survive.
func crashRun(opts aquila.Options, plan *aquila.CrashPlan,
	work func(p *aquila.Proc, sys *aquila.System, pr *crashProbe),
	verify func(p *aquila.Proc, rec *aquila.System, pr *crashProbe)) crashProbe {
	sys := boot(opts)
	defer retire(sys.Sim)
	if plan != nil {
		sys.InjectCrash(plan)
	}
	var pr crashProbe
	sys.Do(func(p *aquila.Proc) { work(p, sys, &pr) })
	pr.cycles = sys.Sim.Now()
	pr.writes = sys.Store().Stats().Writes
	if sys.Crashed() == nil {
		return pr
	}
	pr.crashed = true
	if sys.RT != nil {
		pr.invErr = sys.RT.CheckCrashInvariants()
	}
	rec := aquila.Recover(opts, sys.CaptureCrash())
	rec.Do(func(p *aquila.Proc) { verify(p, rec, &pr) })
	if pr.invErr == nil && rec.RT != nil {
		pr.invErr = rec.RT.CheckInvariants()
	}
	return pr
}

// walCrashRun appends nrec CRC'd records to an mmapped WAL, msyncing every
// group records, under an optional crash plan; recovery re-reads every acked
// record.
func walCrashRun(mode aquila.Mode, dev aquila.DeviceKind, cache, nrec, group uint64,
	unsafe bool, plan *aquila.CrashPlan) crashProbe {
	opts := aquila.Options{
		Mode: mode, Device: dev,
		CacheBytes: cache, DeviceBytes: cache*8 + 64*mib,
		CPUs: 8,
	}
	if mode == aquila.ModeAquila {
		opts.Params = core.ParamsForCache(cache)
		opts.Params.UnsafeMsyncAtSubmit = unsafe
	}
	walBytes := (nrec*crashRecSize + 4095) &^ uint64(4095)
	return crashRun(opts, plan, func(p *aquila.Proc, sys *aquila.System, pr *crashProbe) {
		m := mapFile(p, sys, "wal", walBytes)
		rec := make([]byte, 0, crashRecSize)
		for i := uint64(0); i < nrec; i++ {
			rec = appendCrashRecord(rec[:0], i)
			m.Store(p, i*crashRecSize, rec)
			if (i+1)%group == 0 {
				if m.Msync(p) == nil {
					pr.acked = i + 1
					pr.ackCycles = append(pr.ackCycles, p.Now())
				}
			}
		}
		if m.Msync(p) == nil {
			pr.acked = nrec
			pr.ackCycles = append(pr.ackCycles, p.Now())
		}
	}, func(p *aquila.Proc, rec *aquila.System, pr *crashProbe) {
		m := mapFile(p, rec, "wal", walBytes)
		buf := make([]byte, crashRecSize)
		for i := uint64(0); i < pr.acked; i++ {
			m.Load(p, i*crashRecSize, buf)
			if !crashRecordOK(i, buf) {
				pr.lost++
			}
		}
	})
}

// kreonCrashRun loads records into a Kreon store with per-batch msync under an
// optional crash plan, then recovers via Kreon's CRC-replaying Reopen and
// verifies every acked key.
func kreonCrashRun(dev aquila.DeviceKind, cache, records, group uint64,
	plan *aquila.CrashPlan) crashProbe {
	const valSize = 120
	opts, kopts, size := kreonLayout(aquila.ModeAquila, dev, cache, records, 260, 4*mib, 61)
	// Named here, not left to boot: Recover must see the same Params.
	opts.Params = core.ParamsForCache(cache)
	return crashRun(opts, plan, func(p *aquila.Proc, sys *aquila.System, pr *crashProbe) {
		db := kreonOpen(p, sys, kopts, size)
		var key, val []byte
		for i := uint64(0); i < records; i++ {
			key, val = ycsb.AppendKey(key[:0], i), ycsb.AppendValue(val[:0], i, valSize)
			db.Put(p, key, val)
			if (i+1)%group == 0 {
				db.Msync(p)
				pr.acked = i + 1
				pr.ackCycles = append(pr.ackCycles, p.Now())
			}
		}
		db.Msync(p)
		pr.acked = records
		pr.ackCycles = append(pr.ackCycles, p.Now())
	}, func(p *aquila.Proc, rec *aquila.System, pr *crashProbe) {
		db := kreon.Reopen(p, kopts, mapFile(p, rec, "kreon.data", size))
		if pr.acked > 0 && db.Recov.FreshStore {
			pr.lost = int(pr.acked)
			return
		}
		var key, want []byte
		for i := uint64(0); i < pr.acked; i++ {
			key, want = ycsb.AppendKey(key[:0], i), ycsb.AppendValue(want[:0], i, valSize)
			if v, ok := db.Get(p, key); !ok || !bytes.Equal(v, want) {
				pr.lost++
			}
		}
	})
}

// crashTally accumulates oracle results across one world's crash-point sweep.
type crashTally struct {
	points, lost, invFails, verified int
	cycles                           uint64
}

func (t *crashTally) add(pr crashProbe) {
	if !pr.crashed {
		return
	}
	t.points++
	t.lost += pr.lost
	if pr.invErr != nil {
		t.invFails++
	}
	t.verified += int(pr.acked) - pr.lost
	t.cycles += pr.cycles
}

// merge folds one world's sweep into a running total.
func (t *crashTally) merge(o crashTally) {
	t.points += o.points
	t.lost += o.lost
	t.invFails += o.invFails
	t.verified += o.verified
	t.cycles += o.cycles
}

// strideOver returns n indices evenly spread over [1, max].
func strideOver(max uint64, n int) []uint64 {
	if max == 0 || n <= 0 {
		return nil
	}
	if uint64(n) > max {
		n = int(max)
	}
	ks := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		k := uint64(1)
		if n > 1 {
			k = 1 + uint64(i)*(max-1)/uint64(n-1)
		}
		ks = append(ks, k)
	}
	return ks
}

func runAblateCrash(scale float64) []*Result {
	r := &Result{
		ID:    "ablate-crash",
		Title: "Crash-state enumeration: per-crash-point recovery oracle (acked records intact, invariants clean)",
		Header: []string{"world", "device", "crash pts", "acked verified",
			"acked lost", "inv fails", "verdict"},
	}
	cache := scaled(8*mib, scale, 2*mib)
	nrec := uint64(scaledN(4096, scale, 768))
	group := nrec / 12
	if group == 0 {
		group = 1
	}
	devPoints := scaledN(12, scale, 5)
	ackPoints := scaledN(6, scale, 3)

	verdict := func(t crashTally) string {
		if t.points == 0 {
			return "SKIP"
		}
		if t.lost == 0 && t.invFails == 0 {
			return "PASS"
		}
		return "FAIL"
	}

	// Ack-cycle sweep: die one cycle after msync returned — the strongest
	// durability probe (everything just acked must survive). The final ack
	// is skipped: the workload ends there, so the trigger has no scheduling
	// point left to fire at.
	ackSweep := func(t *crashTally, mode aquila.Mode, dev aquila.DeviceKind, unsafe bool, trace crashProbe) {
		if n := len(trace.ackCycles); n > 1 {
			for _, i := range strideOver(uint64(n-1), ackPoints) {
				t.add(walCrashRun(mode, dev, cache, nrec, group, unsafe,
					&aquila.CrashPlan{Seed: 9, AtCycle: trace.ackCycles[i-1] + 1}))
			}
		}
	}

	var total, unsafeTally, kreonTotal crashTally
	worlds := []struct {
		name string
		mode aquila.Mode
	}{{"aquila", aquila.ModeAquila}, {"linux", aquila.ModeLinuxMmap}}
	for _, w := range worlds {
		for _, dev := range []aquila.DeviceKind{aquila.DevicePMem, aquila.DeviceNVMe} {
			trace := walCrashRun(w.mode, dev, cache, nrec, group, false, nil)
			var t crashTally
			// Device-op sweep: die mid-write at strided points over the whole
			// trace, with a seeded torn-sector policy so partial-sector states
			// are enumerated too.
			for _, k := range strideOver(trace.writes, devPoints) {
				t.add(walCrashRun(w.mode, dev, cache, nrec, group, false,
					&aquila.CrashPlan{Seed: int64(k), AtDeviceOp: k, TearProb: 0.3}))
			}
			ackSweep(&t, w.mode, dev, false, trace)
			r.AddRow(w.name, devLabel[dev], fmt.Sprint(t.points), fmt.Sprint(t.verified),
				fmt.Sprint(t.lost), fmt.Sprint(t.invFails), verdict(t))
			total.merge(t)
		}
	}

	// Kreon end to end: crash mid-write, recover via CRC log replay.
	kreonRecords := uint64(scaledN(300, scale, 90))
	kreonGroup := kreonRecords / 6
	kreonPoints := scaledN(8, scale, 4)
	for _, dev := range []aquila.DeviceKind{aquila.DevicePMem, aquila.DeviceNVMe} {
		trace := kreonCrashRun(dev, cache, kreonRecords, kreonGroup, nil)
		var t crashTally
		for _, k := range strideOver(trace.writes, kreonPoints) {
			t.add(kreonCrashRun(dev, cache, kreonRecords, kreonGroup,
				&aquila.CrashPlan{Seed: int64(k), AtDeviceOp: k, TearProb: 0.3}))
		}
		r.AddRow("kreon", devLabel[dev], fmt.Sprint(t.points), fmt.Sprint(t.verified),
			fmt.Sprint(t.lost), fmt.Sprint(t.invFails), verdict(t))
		kreonTotal.merge(t)
	}

	// Deliberately broken ordering: msync acknowledges at submission, so data
	// acked into the NVMe completion window is lost at the crash. This row
	// must FAIL — it proves the oracle has teeth.
	{
		trace := walCrashRun(aquila.ModeAquila, aquila.DeviceNVMe, cache, nrec, group, true, nil)
		ackSweep(&unsafeTally, aquila.ModeAquila, aquila.DeviceNVMe, true, trace)
		v := verdict(unsafeTally)
		if v == "FAIL" {
			v = "FAIL (expected)"
		}
		r.AddRow("aquila UNSAFE", "NVMe", fmt.Sprint(unsafeTally.points),
			fmt.Sprint(unsafeTally.verified), fmt.Sprint(unsafeTally.lost),
			fmt.Sprint(unsafeTally.invFails), v)
	}

	r.AddNote("oracle per crash point: every record acked by a returned msync is present and CRC-valid after recovery; crashed runtime passes CheckCrashInvariants, recovered one passes CheckInvariants")
	r.AddNote("device-op points tear in-flight sectors (seeded, prob 0.3); acked data must still survive — only never-acked tails may be torn")
	r.AddNote("the UNSAFE row runs msync acknowledging at submit (Params.UnsafeMsyncAtSubmit): its expected FAIL shows the oracle detects writeback-ordering bugs")

	allCycles := total.cycles + kreonTotal.cycles + unsafeTally.cycles
	ops := uint64(total.verified + kreonTotal.verified)
	r.setReport(scale, ops, allCycles, nil, nil, 0, map[string]string{
		"cache":      fmt.Sprint(cache),
		"records":    fmt.Sprint(nrec),
		"group":      fmt.Sprint(group),
		"dev_points": fmt.Sprint(devPoints),
		"ack_points": fmt.Sprint(ackPoints),
		"seed":       "77",
	}, map[string]float64{
		"crash_points":    float64(total.points),
		"oracle_lost":     float64(total.lost),
		"invariant_fails": float64(total.invFails),
		"kreon_points":    float64(kreonTotal.points),
		"kreon_lost":      float64(kreonTotal.lost),
		"unsafe_points":   float64(unsafeTally.points),
		"unsafe_lost":     float64(unsafeTally.lost),
	})
	return []*Result{r}
}
