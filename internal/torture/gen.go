package torture

import (
	"math/rand"

	"aquila/internal/sim/device"
)

// Generation constraints, chosen so every generated plan is oracle-sound:
//
//   - Fault rules are write-direction or latency only. Read faults and
//     poison deliver SIGBUS on loads — documented behavior the harness
//     records as an event, but a plan built around them proves nothing
//     about durability.
//   - Permanent-write rules come with a roomy cache: under a tight cache a
//     permanently quarantined page pins DRAM, and enough of them stall
//     eviction (ErrEvictionStalled), again legal but noisy.
//   - Kreon rides along only on fault-free Aquila plans (see KreonSpec).
//   - kv ops only on thread 0. Mapping ops go to any thread and any file.

// Generate derives a complete plan from a seed. Same (seed, nops) — same
// plan, byte for byte; the bank in cmd/aqtort and the CI target both lean on
// this to keep the corpus stable across runs.
func Generate(seed int64, nops int) *Plan {
	rng := rand.New(rand.NewSource(seed ^ 0x7073746f72747572)) // "torture" salt
	pl := &Plan{Version: PlanVersion, Seed: seed}

	switch rng.Intn(6) {
	case 0, 1, 2:
		pl.World = WorldAquila
	case 3:
		pl.World = WorldLinux
	case 4:
		pl.World = WorldLinuxDirect
	default:
		pl.World = WorldKmmap
	}
	if rng.Intn(2) == 0 {
		pl.Device = "pmem"
	} else {
		pl.Device = "nvme"
	}
	pl.Threads = 1 + rng.Intn(4)
	pl.CPUs = 4 * (1 + rng.Intn(2))
	if rng.Intn(2) == 0 {
		// Half the bank explores perturbed tie-breaking; the other half
		// keeps the canonical schedule so both stay continuously exercised.
		pl.SchedPerturb = rng.Uint64() | 1
	}

	// Fault schedule first: it decides how tight the cache may be.
	permanent := false
	switch rng.Intn(5) {
	case 0, 1: // fault-free
	case 2, 3: // transient writes + latency spikes
		pl.Fault = &device.FaultPlan{Seed: rng.Int63n(1 << 30)}
		pl.Fault.Rules = append(pl.Fault.Rules, device.FaultRule{
			Kind: device.FaultTransientWrite, Prob: 0.01 + rng.Float64()*0.04,
		})
		if rng.Intn(2) == 0 {
			pl.Fault.Rules = append(pl.Fault.Rules, device.FaultRule{
				Kind: device.FaultLatencySpike, Prob: 0.05, Delay: 20000 + uint64(rng.Intn(40000)),
			})
		}
	default: // one permanent write failure, count-scheduled
		permanent = true
		pl.Fault = &device.FaultPlan{Seed: rng.Int63n(1 << 30)}
		pl.Fault.Rules = append(pl.Fault.Rules, device.FaultRule{
			Kind: device.FaultPermanentWrite, After: 1 + uint64(rng.Intn(100)), Limit: 1,
		})
	}

	if permanent || rng.Intn(3) > 0 {
		pl.CacheKB = 2048 + uint64(rng.Intn(3))*1024
	} else {
		// Tight cache: eviction, reclaim, and refill churn under the ops.
		pl.CacheKB = 256 + uint64(rng.Intn(2))*128
	}
	if pl.World == WorldAquila && rng.Intn(4) == 0 {
		pl.HugeDensity = 0.25
	}

	// Files: one per thread, and one more half the time.
	for t := 0; t < pl.Threads; t++ {
		pl.Files = append(pl.Files, FileSpec{Slots: 16 + rng.Intn(49)})
	}
	if rng.Intn(2) == 0 {
		pl.Files = append(pl.Files, FileSpec{Slots: 16 + rng.Intn(49)})
	}

	kv := false
	if pl.World == WorldAquila && pl.Fault == nil && rng.Intn(3) == 0 {
		kv = true
		pl.Kreon = &KreonSpec{Keys: 64 + rng.Intn(129), LogKB: 256, IdxKB: 256}
	}

	if rng.Intn(10) < 3 {
		cs := &CrashSpec{Seed: 1 + rng.Int63n(1<<30), TearProb: rng.Float64() * 0.5}
		switch {
		case pl.World == WorldAquila && rng.Intn(3) == 0:
			cs.AtSpan, cs.SpanHit = "aq.msync", uint64(1+rng.Intn(3))
		case rng.Intn(2) == 0:
			cs.AtAck = 1 + rng.Intn(4)
		default:
			cs.OpFrac = 0.1 + rng.Float64()*0.8
		}
		pl.Crash = cs
	}

	// The trace: each op picks a thread, then a key (kv ops) or any file and
	// slot, so threads meet on the same pages.
	for i := 0; i < nops; i++ {
		t := rng.Intn(pl.Threads)
		if kv && t == 0 && rng.Intn(2) == 0 {
			op := Op{T: 0, Key: rng.Intn(pl.Kreon.Keys)}
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4:
				op.Kind = OpKvPut
			case 5, 6:
				op.Kind = OpKvGet
			case 7:
				op.Kind = OpKvScan
				op.N = 1 + rng.Intn(16)
			default:
				op.Kind = OpKvMsync
			}
			pl.Ops = append(pl.Ops, op)
			continue
		}
		fi := rng.Intn(len(pl.Files))
		slots := pl.Files[fi].Slots
		op := Op{T: t, File: fi, Slot: rng.Intn(slots)}
		switch r := rng.Intn(100); {
		case r < 45:
			op.Kind = OpStore
		case r < 65:
			op.Kind = OpLoad
		case r < 77:
			op.Kind = OpMsync
		case r < 85:
			op.Kind = OpMsyncRange
			op.N = 1 + rng.Intn(slots-op.Slot)
		case r < 90:
			op.Kind = OpFsync
		case r < 96:
			op.Kind = OpUnmap
		default:
			if pl.HugeDensity > 0 {
				op.Kind = OpHuge
			} else {
				op.Kind = OpStore
			}
		}
		pl.Ops = append(pl.Ops, op)
	}
	return pl
}

// ProofPlan is the in-band soundness check for the whole oracle battery: an
// Aquila/NVMe run with Params.UnsafeMsyncAtSubmit re-enabled (msync
// acknowledges at submission, before the device completes) and a crash one
// cycle after the first acknowledgment. The acked records' writes are still
// in flight at the crash, so the durability oracle MUST report acked-then-
// lost records; a battery that passes this plan is vacuous and the caller
// treats that as a failure of the harness itself.
func ProofPlan() *Plan {
	pl := &Plan{
		Version: PlanVersion, Seed: 424242,
		World: WorldAquila, Device: "nvme",
		Threads: 1, CPUs: 4, CacheKB: 1024,
		Unsafe: true,
		Files:  []FileSpec{{Slots: 16}},
		Crash:  &CrashSpec{Seed: 7, AtAck: 1},
	}
	for s := 0; s < 8; s++ {
		pl.Ops = append(pl.Ops, Op{T: 0, Kind: OpStore, File: 0, Slot: s})
	}
	pl.Ops = append(pl.Ops, Op{T: 0, Kind: OpMsync, File: 0})
	for s := 8; s < 16; s++ {
		pl.Ops = append(pl.Ops, Op{T: 0, Kind: OpStore, File: 0, Slot: s})
	}
	pl.Ops = append(pl.Ops, Op{T: 0, Kind: OpMsync, File: 0})
	return pl
}
