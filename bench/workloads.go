package main

import (
	"math"
	"time"

	"aquila"
	"aquila/internal/core"
	"aquila/internal/obs"
	"aquila/internal/obs/profile"
)

// runCfg is what one repetition of one workload is built from.
type runCfg struct {
	// seed generates every input; the program under test sees only the
	// generated operations.
	seed int64
	// scale multiplies the frozen op counts (1 = the counts BENCHMARK.json's
	// run_seconds was sized with). Below 1 the datasets shrink too, so the
	// tier-1 smoke run stays short.
	scale float64
	// Tracing sinks, all nil in the untraced repetition.
	rec    *recorder
	tracer *obs.Tracer
	reg    *obs.Registry
	prof   *profile.Profiler
}

// options attaches the traced repetition's sinks to a world's options.
func (c runCfg) options(o aquila.Options) aquila.Options {
	o.Tracer, o.Registry = c.tracer, c.reg
	if c.prof != nil {
		// Assign only when profiling: a typed-nil *Profiler in the interface
		// field would defeat the engine's nil check.
		o.Profiler = c.prof
	}
	return o
}

// phase is what one measured phase did.
type phase struct {
	// ops is the number of operations attempted; failed counts those that
	// panicked (SIGBUS), returned an error or failed verification.
	ops, failed uint64
	// lat holds one simulated latency sample (cycles) per timed operation.
	// figs-gated has no samples of its own and sets the two percentiles from
	// fig10a's report instead.
	lat             []uint64
	latP50, latP999 uint64
	// stored is the user payload handed to Store/Put (device.write_amp).
	stored uint64
	// simCycles is the simulated length of the phase. Workloads that own a
	// System leave it 0 and the runner takes the Sim.Now delta.
	simCycles uint64
	// extra carries workload-specific per-layer values by metric name.
	extra map[string]float64
	// figs-gated only: its worlds live and die inside the harness, so it
	// reads the live heap itself (forced GC after each experiment, worlds
	// still referenced) and reports the largest reading, with the time those
	// readings took, which the runner takes off host_wall_s.
	heapMB  float64
	untimed time.Duration
}

// instance is one booted world with its generated inputs, ready to run its
// measured phase exactly once.
type instance struct {
	// sys is the world (nil for figs-gated, whose worlds the harness boots).
	sys *aquila.System
	// run is the measured phase: closed loop, each simulated thread issues
	// its next operation when the previous one returns.
	run func() phase
	// verify runs untimed after the phase and adds to ph.failed.
	verify func(ph *phase)
	// bypass checks the workload's "this layer does no work here" claim
	// against the phase's layer counters.
	bypass func(d layerDelta, ph *phase) error
}

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	// reps is how many repetitions (fresh world each) one driver run makes;
	// host metrics are medians over them.
	reps  int
	setup func(cfg runCfg) *instance
}

// workloads is the frozen workload list; later issues cite the names.
var workloads = []workload{
	{name: "fault-cold-32t", reps: 3, setup: setupFaultCold,
		why: "32 threads, every op a cold major fault with zero evictions: engine handoffs and the core fault path do all the work, evictor and device writes none"},
	{name: "evict-mixed-16t", reps: 3, setup: setupEvictMixed,
		why: "16 threads, 2 loads : 1 store over a file 8x the cache plus a closing msync: evictor, LRU, dirty tree, shootdowns and writeback dominate"},
	{name: "linux-evict-mixed-16t", reps: 3, setup: setupLinuxEvictMixed,
		why: "the same generated trace over Linux mmap: only the host layer differs, so a shared-layer change that costs the baseline shows (Fig 10b ratio)"},
	{name: "kreon-ycsb-a-nvme-1t", reps: 5, setup: setupKreonYCSB,
		why: "Kreon over Aquila+SPDK on NVMe, one thread, YCSB-A zipfian, dataset 2x cache: kvs, spdk and the NVMe queue dominate; no engine handoffs, so an engine speed-up predicts no change"},
	{name: "bfs-rmat-8t", reps: 3, setup: setupBFS,
		why: "Ligra BFS over a mapped heap, R-MAT graph, 8 threads: most accesses are TLB/PTE hits, so graph, TLB lookup and page walks dominate and faults are the tail"},
	{name: "figs-gated", reps: 2, setup: setupFigsGated,
		why: "the five perf-gated paper figures at full scale, checked against their goldens: the only workload where harness re-boots, lsm and the crash/huge paths carry weight (seconds per figure)"},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scaleN scales a frozen count, never below min.
func scaleN(base int, scale float64, min int) int {
	if v := int(math.Round(float64(base) * scale)); v > min {
		return v
	}
	return min
}

// shrink scales a dataset size down for scale < 1 (never up, never below min).
func shrink(base uint64, scale float64, min uint64) uint64 {
	if scale >= 1 {
		return base
	}
	if v := uint64(float64(base) * scale); v > min {
		return v
	}
	return min
}

// tunedParams is Aquila's parameter table with the batch sizes held to the
// same share of a scaled-down cache they have at the paper's scale (the
// harness does the same for every figure).
func tunedParams(cacheBytes uint64) *core.Params {
	p := core.DefaultParams()
	pages := int(cacheBytes / 4096)
	if p.EvictBatch > pages/16 {
		p.EvictBatch = max(32, pages/16)
	}
	if p.FreelistBatch > pages/128 {
		p.FreelistBatch = max(64, pages/128)
	}
	if p.CoreQueueLimit > pages/32 {
		p.CoreQueueLimit = max(2*p.FreelistBatch, pages/32)
	}
	return &p
}

// absorbSigbus, deferred around one operation, turns a delivered SIGBUS into
// a failed operation instead of the end of the benchmark. Any other panic is
// a bug and stays loud.
func absorbSigbus(ok *bool) {
	if r := recover(); r != nil {
		if _, isBus := r.(*aquila.SigBus); !isBus {
			panic(r)
		}
		*ok = false
	}
}
