package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"aquila"
	"aquila/internal/obs"
	"aquila/internal/obs/profile"
	"aquila/internal/sim/cpu"
	"aquila/internal/sim/device"
)

// layerDelta is the exported state of a System's layers: snapshot() reads
// the running totals, sub() turns two snapshots into the measured phase's
// delta. Everything in it is on the simulated clock and exact.
type layerDelta struct {
	// n holds counters by per-layer metric name; keys starting with "_" are
	// inputs to derived metrics (clock, accounting kinds, TLB hits, ...).
	n map[string]uint64
	// coreBreak and hostBreak are RT.Break and Host.Break, cycles by category.
	coreBreak, hostBreak map[string]uint64
}

func snapshot(sys *aquila.System) layerDelta {
	now := sys.Sim.Now()
	acct := sys.Sim.TotalAccounted()
	n := map[string]uint64{
		"_now": now, "_procs": uint64(len(sys.Sim.Procs())),
		"_user": acct[0], "_system": acct[1], "_iowait": acct[2], "_lockwait": acct[3],
	}
	d := layerDelta{n: n}
	for c := 0; c < sys.Sim.NumCPUs(); c++ {
		n["engine.irqs"] += sys.Sim.IRQCount(c)
	}
	tlbs := sys.Host.TLBs
	if sys.RT != nil {
		tlbs = sys.RT.TLBs
		st := sys.RT.Stats
		n["core.major_faults"], n["core.minor_faults"], n["core.wp_faults"] = st.MajorFaults, st.MinorFaults, st.WPFaults
		n["core.evictions"], n["core.written_back"], n["core.shootdown_batches"] = st.Evictions, st.WrittenBack, st.ShootdownBatches
		n["core.direct_reclaim_pages"], n["core.evict_stalls"], n["core.io_retries"] = st.DirectReclaimPages, st.EvictStalls, st.IORetries
		d.coreBreak = sys.RT.Break.Map()
	}
	for c := 0; c < tlbs.Len(); c++ {
		h, m, f := tlbs.CPU(c).Stats()
		n["_tlb_hits"], n["cpu.tlb_misses"], n["cpu.tlb_flushes"] = n["_tlb_hits"]+h, n["cpu.tlb_misses"]+m, n["cpu.tlb_flushes"]+f
	}
	if sys.Host.Break != nil {
		d.hostBreak = sys.Host.Break.Map()
	}
	pc := sys.Host.Cache
	n["host.pagecache_inserted"], n["host.pagecache_evicted"], n["host.pagecache_written_back"] = pc.Inserted, pc.Evicted, pc.WrittenBk
	var st device.Stats
	if sys.PMem != nil {
		st = sys.PMem.Stats()
	} else {
		st = sys.NVMe.Stats()
		n["_nvme_busy"] = uint64(math.Round(sys.NVMe.Utilization(now) * float64(now)))
	}
	n["device.reads"], n["device.writes"], n["device.bytes_read"], n["device.bytes_written"] = st.Reads, st.Writes, st.BytesRead, st.BytesWritten
	return d
}

func subMap(a, b map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(a))
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

// sub returns a − b, counter by counter.
func (a layerDelta) sub(b layerDelta) layerDelta {
	return layerDelta{n: subMap(a.n, b.n), coreBreak: subMap(a.coreBreak, b.coreBreak), hostBreak: subMap(a.hostBreak, b.hostBreak)}
}

// repResult is one repetition: set-up, one measured phase, verification.
type repResult struct {
	// Host clock.
	setupS, wallS       float64
	mallocs, allocBytes uint64 // MemStats deltas over the phase
	heapMB              float64
	cpuS                float64
	gcCycles            uint32
	gcPauseMs           float64
	calibMs             float64

	ops, failed uint64
	stored      uint64

	// Simulated clock: exact for a given seed.
	simKops, simP50us, simP999us float64
	simCycles                    uint64
	// threadCycles is the simulated thread-time of the phase (all
	// accounting kinds), the base of prof.attributed_ratio.
	threadCycles uint64
	layers       layerDelta
	extra        map[string]float64

	bypassErr error

	// profile is the profiler's tree at the end of the measured phase
	// (traced repetition only), before verification adds to it.
	profile *profile.JSONProfile
}

// simValues returns everything the repetition read off the simulated clock,
// by name. Two repetitions of one seed must agree on all of it, traced or
// not.
func (r *repResult) simValues() map[string]float64 {
	out := map[string]float64{
		"sim_kops": r.simKops, "sim_p50_us": r.simP50us, "sim_p999_us": r.simP999us,
		"ops": float64(r.ops), "failed": float64(r.failed), "sim_cycles": float64(r.simCycles),
	}
	for k, v := range r.layers.n {
		out[k] = float64(v)
	}
	for k, v := range r.layers.coreBreak {
		out["core.cycles."+k] = float64(v)
	}
	for k, v := range r.layers.hostBreak {
		out["host.cycles."+k] = float64(v)
	}
	for k, v := range r.extra {
		if !strings.HasPrefix(k, "harness.") { // host wall seconds
			out[k] = v
		}
	}
	return out
}

// diffValues lists the names on which two value sets disagree.
func diffValues(a, b map[string]float64) []string {
	var out []string
	for k, av := range a {
		if bv, ok := b[k]; !ok || av != bv {
			out = append(out, fmt.Sprintf("%s: %v vs %v", k, av, b[k]))
		}
	}
	for k, bv := range b {
		if _, ok := a[k]; !ok {
			out = append(out, fmt.Sprintf("%s: absent vs %v", k, bv))
		}
	}
	sort.Strings(out)
	return out
}

// quantile returns the q-quantile of sorted samples (nearest rank).
func quantile(sorted []uint64, q float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// calibSink keeps the calibration kernel's result alive.
var calibSink uint64

// calibrate times a fixed pure-Go kernel (xorshift over a 512 KB table). It
// runs before every repetition: when it moves between two sets of runs, the
// machine moved, not the code.
func calibrate() float64 {
	var table [1 << 16]uint64
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < 1<<21; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&(1<<16-1)] += x
	}
	calibSink += table[x&(1<<16-1)]
	return float64(time.Since(t0)) / 1e6
}

// runRep runs one repetition of w: set-up (timed as setup_s), a forced GC,
// the measured phase (timed on both clocks), untimed verification, and a
// second forced GC for the live heap with the world still referenced.
func runRep(w *workload, cfg runCfg) repResult {
	res := repResult{calibMs: calibrate()}
	t0 := time.Now()
	inst := w.setup(cfg)
	res.setupS = time.Since(t0).Seconds()

	runtime.GC()
	if cfg.prof != nil {
		cfg.prof.Reset() // attribute the measured phase only
	}
	cfg.rec.startPhase()
	var before layerDelta
	if inst.sys != nil {
		before = snapshot(inst.sys)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	t1 := time.Now()
	ph := inst.run()
	res.wallS = (time.Since(t1) - ph.untimed).Seconds()
	res.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	res.mallocs, res.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	res.gcCycles = ms1.NumGC - ms0.NumGC
	res.gcPauseMs = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6

	if cfg.prof != nil {
		res.profile = cfg.prof.Export()
	}
	cfg.rec.endPhase()

	res.simCycles = ph.simCycles
	if inst.sys != nil {
		res.layers = snapshot(inst.sys).sub(before)
		n := res.layers.n
		res.simCycles = n["_now"]
		res.threadCycles = n["_user"] + n["_system"] + n["_iowait"] + n["_lockwait"]
	}
	if inst.verify != nil {
		inst.verify(&ph)
	}
	if inst.bypass != nil {
		res.bypassErr = inst.bypass(res.layers, &ph)
	}
	res.ops, res.failed, res.stored, res.extra = ph.ops, ph.failed, ph.stored, ph.extra
	p50, p999 := ph.latP50, ph.latP999
	if ph.lat != nil {
		slices.Sort(ph.lat)
		p50, p999 = quantile(ph.lat, 0.5), quantile(ph.lat, 0.999)
	}
	res.simP50us, res.simP999us = cpu.CyclesToMicros(p50), cpu.CyclesToMicros(p999)
	if res.simCycles > 0 {
		res.simKops = float64(res.ops) / cpu.CyclesToSeconds(res.simCycles) / 1e3
	}

	ph.lat = nil
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	res.heapMB = max(float64(ms1.HeapAlloc)/(1<<20), ph.heapMB)
	runtime.KeepAlive(inst)
	return res
}

// tracedResult is the traced repetition with what its sinks collected.
type tracedResult struct {
	rep     repResult
	rec     *recorder
	tracer  *obs.Tracer
	reg     *obs.Registry
	prof    *profile.Profiler
	dropped uint64
	// attributed is profiler root-inclusive ÷ simulated thread cycles;
	// exclShare splits the profiler's exclusive cycles by span-name prefix,
	// as shares of the same base.
	attributed float64
	exclShare  map[string]float64
}

// runTraced repeats a workload once with every sink attached and the
// benchmark's decorators around the layer boundaries.
func runTraced(w *workload, cfg runCfg) *tracedResult {
	tr := &tracedResult{rec: newRecorder(), tracer: obs.NewTracer(), reg: obs.NewRegistry(), prof: profile.New()}
	// The Chrome trace is a window on the end of each track (the profiler
	// and the boundary aggregates are lossless). Workloads spawn hundreds of
	// processes and figs-gated boots dozens of worlds, one ring per track
	// each: short rings keep the trace loadable and the traced run cheap.
	tr.tracer.SetRingCapacity(1 << 10)
	cfg.rec, cfg.tracer, cfg.reg, cfg.prof = tr.rec, tr.tracer, tr.reg, tr.prof
	tr.rep = runRep(w, cfg)
	tr.dropped = tr.tracer.Dropped()

	exp := tr.rep.profile
	base := float64(tr.rep.threadCycles)
	if base == 0 {
		// Harness-owned worlds expose no per-thread accounting: charge every
		// profiled track its world's final clock instead.
		for _, t := range exp.Tracks {
			world, _, _ := strings.Cut(t.Track, "/")
			base += tr.reg.Gauge("sim_cycles", obs.L("world", world)).Value()
		}
	}
	tr.exclShare = make(map[string]float64)
	var roots uint64
	for _, t := range exp.Tracks {
		roots += t.CoveredCycles
		for _, c := range t.Root.Children {
			addExclusive(tr.exclShare, c)
		}
	}
	if base > 0 {
		tr.attributed = float64(roots) / base
		for k := range tr.exclShare {
			tr.exclShare[k] /= base
		}
	}
	return tr
}

// profPrefixes maps profiler span-name prefixes to prof.excl_share.* classes.
var profPrefixes = []struct{ prefix, class string }{
	{"aq.", "core"}, {"lx.", "host"}, {"dev.", "device"}, {"kv.", "kvs"}, {"sched", "sched"},
}

func profClassOf(name string) string {
	for _, pc := range profPrefixes {
		if strings.HasPrefix(name, pc.prefix) {
			return pc.class
		}
	}
	return "other"
}

func addExclusive(into map[string]float64, n *profile.JSONNode) {
	into[profClassOf(n.Name)] += float64(n.ExclusiveCycles)
	for _, c := range n.Children {
		addExclusive(into, c)
	}
}
