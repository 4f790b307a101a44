package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// The declarations in this file are the single source of the benchmark's
// contract: BENCHMARK.json at the repository root is `go run ./bench -spec`,
// and the smoke test fails when the two drift apart.

// runSeconds is the frozen `run_seconds`: the op counts in workloads.go are
// sized so that one run measures for this long on the reference box
// (reps × one measured phase). `-seconds` scales the counts linearly.
const runSeconds = 12

// Clocks a metric can live on.
const (
	clockSim  = "sim"  // simulated cycles: exact for a given seed
	clockHost = "host" // wall clock / Go runtime of the simulator process
)

// How a per-layer metric is obtained.
const (
	srcSim   = "sim"   // delta of exported state over the measured phase
	srcMicro = "micro" // host ns/op of an isolated loop over the layer's API
	srcTrace = "trace" // from the traced repetition
	srcHost  = "host"  // host-side measurement of the untraced repetition
)

// metricDecl declares one metric.
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// End-to-end metrics: the clock the metric lives on and the allowed
	// worsening as a share of the parent's median.
	Clock string
	Bound float64
	// Per-layer metrics: how the value is obtained (srcSim, ...).
	Src string
}

// endToEnd lists the end-to-end metrics, reported for every workload with
// `-trace 0`. The simulated metrics are exact for a given seed; their bounds
// only absorb the spread across the seeds the driver draws (at most 1.6 % of
// the median over ten seeds, on sim_kops; every bound is at least three
// times the spread seen). The wall-clock bounds are what the
// reference box's run-to-run spread allows (see README "Reference box").
// fail_ratio is carried by the result line's failed/attempted pair, not
// listed here (an end-to-end metric may never read 0).
var endToEnd = []metricDecl{
	{Name: "sim_kops", Unit: "kops/sim_s", Better: "higher", Bound: 0.06, Clock: clockSim},
	{Name: "sim_p50_us", Unit: "sim_us", Better: "lower", Bound: 0.05, Clock: clockSim},
	{Name: "sim_p999_us", Unit: "sim_us", Better: "lower", Bound: 0.10, Clock: clockSim},
	{Name: "host_wall_s", Unit: "s", Better: "lower", Bound: 0.25, Clock: clockHost},
	{Name: "host_allocs_per_op", Unit: "allocs/op", Better: "lower", Bound: 0.03, Clock: clockHost},
	{Name: "host_bytes_per_op", Unit: "B/op", Better: "lower", Bound: 0.03, Clock: clockHost},
	{Name: "host_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10, Clock: clockHost},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Clock: clockHost},
}

// coreBreakCats and hostBreakCats are the breakdown categories reported as
// <layer>.cyc_per_op.<category>; anything a later change adds lands in
// "other" so the declared metric set stays closed.
var coreBreakCats = []string{
	"exception", "vspace", "cache-lookup", "alloc", "cache-insert", "device-io", "map-pte",
	"accounting", "lru", "dirty-track", "evict-select", "unmap", "tlb-shootdown", "writeback", "msync",
}

var hostBreakCats = []string{
	"trap", "vma", "tree-lock", "readahead", "block-io", "lru", "pte", "reclaim",
	"shootdown", "writeback", "msync", "syscall",
}

// gatedExperiments is the `make perfgate` set minus the 90 s fig5b.
var gatedExperiments = []string{"fig8a", "fig7", "fig10a", "ablate-hugepages", "ablate-crash"}

// perLayer lists the per-layer metrics, reported for every workload with
// `-trace 1` (0 where the layer does no work on that workload).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDecl {
	var out []metricDecl
	add := func(src, unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDecl{Name: n, Unit: unit, Better: better, Src: src})
		}
	}
	// engine
	add(srcSim, "Mcycles", "lower", "engine.user_mcycles", "engine.system_mcycles",
		"engine.iowait_mcycles", "engine.lockwait_mcycles")
	add(srcSim, "count", "lower", "engine.irqs")
	add(srcMicro, "ns/op", "lower", "engine.advance_ns", "engine.handoff_ns",
		"engine.mutex_handoff_ns", "engine.spawn_run_ns")
	add(srcMicro, "allocs/op", "lower", "engine.handoff_allocs")
	// cpu
	add(srcSim, "ratio", "higher", "cpu.tlb_hit_ratio")
	add(srcSim, "count", "lower", "cpu.tlb_misses", "cpu.tlb_flushes")
	add(srcMicro, "ns/op", "lower", "cpu.tlb_lookup_ns", "cpu.tlb_insert_ns", "cpu.tlb_shootdown32_ns")
	// pagetable, mem
	add(srcMicro, "ns/op", "lower", "pagetable.lookup_ns", "pagetable.map_unmap_ns")
	add(srcMicro, "ns/op", "lower", "mem.alloc_release_ns", "mem.block_alloc_release_ns")
	// device
	add(srcSim, "count", "lower", "device.reads", "device.writes")
	add(srcSim, "B", "lower", "device.bytes_read", "device.bytes_written")
	add(srcSim, "B/op", "lower", "device.bytes_per_op")
	add(srcSim, "ratio", "lower", "device.write_amp")
	add(srcSim, "ratio", "lower", "device.nvme_util")
	add(srcMicro, "ns/op", "lower", "device.store_write_persist_4k_ns", "device.store_read_4k_ns", "device.pmem_submit_ns")
	add(srcMicro, "ns/op", "lower", "device.nvme_submit_ns")
	// core
	add(srcSim, "count", "lower", "core.major_faults", "core.minor_faults", "core.wp_faults")
	add(srcSim, "count", "lower", "core.evictions", "core.written_back", "core.shootdown_batches",
		"core.direct_reclaim_pages", "core.evict_stalls", "core.io_retries")
	add(srcSim, "pages", "higher", "core.pages_per_shootdown")
	add(srcSim, "ratio", "lower", "core.fault_ratio")
	for _, c := range coreBreakCats {
		add(srcSim, "cycles/op", "lower", "core.cyc_per_op."+c)
	}
	add(srcSim, "cycles/op", "lower", "core.cyc_per_op.other")
	add(srcMicro, "ns/op", "lower", "core.load_hit_ns", "core.fault_major_ns", "core.fault_evict_ns",
		"core.store_wp_ns", "core.msync_page_ns")
	add(srcMicro, "allocs/op", "lower", "core.fault_major_allocs")
	// host (the Linux baseline)
	add(srcSim, "count", "lower", "host.pagecache_inserted", "host.pagecache_evicted", "host.pagecache_written_back")
	for _, c := range hostBreakCats {
		add(srcSim, "cycles/op", "lower", "host.cyc_per_op."+c)
	}
	add(srcSim, "cycles/op", "lower", "host.cyc_per_op.other")
	add(srcMicro, "ns/op", "lower", "host.load_hit_ns", "host.fault_major_ns", "host.pread_direct_ns", "host.pwrite_fsync_ns")
	// spdk, kreon, lsm, graph, ycsb
	add(srcMicro, "ns/op", "lower", "spdk.read_4k_ns", "spdk.write_4k_ns")
	add(srcSim, "count", "lower", "kreon.l0_entries", "kreon.tree_entries")
	add(srcTrace, "cycles", "lower", "kreon.get_self_cycles_p50", "kreon.put_self_cycles_p50")
	add(srcMicro, "ns/op", "lower", "kreon.get_ns", "kreon.put_ns")
	add(srcMicro, "ns/op", "lower", "lsm.get_ns", "lsm.put_ns")
	add(srcSim, "count", "lower", "graph.edges_traversed", "graph.rounds")
	add(srcMicro, "ns/op", "lower", "graph.neighbors_ns")
	add(srcMicro, "ns/op", "lower", "ycsb.next_ns")
	// obs, prof
	add(srcMicro, "ns/op", "lower", "obs.hist_record_ns", "obs.span_pair_ns")
	add(srcTrace, "ratio", "lower", "obs.trace_overhead_ratio")
	add(srcTrace, "count", "lower", "obs.spans_dropped")
	add(srcTrace, "ratio", "higher", "prof.attributed_ratio")
	for _, c := range profClasses {
		add(srcTrace, "ratio", "lower", "prof.excl_share."+c)
	}
	// harness, bench
	for _, id := range gatedExperiments {
		add(srcHost, "s", "lower", "harness."+id+"_wall_s")
	}
	add(srcHost, "ms", "lower", "bench.calib_ms", "bench.gc_pause_ms")
	add(srcHost, "s", "lower", "bench.cpu_s")
	add(srcHost, "count", "lower", "bench.gc_cycles")
	return out
}

// profClasses maps profiler span-name prefixes to prof.excl_share.* classes.
var profClasses = []string{"core", "host", "device", "kvs", "sched", "other"}

// benchmarkJSON is the BENCHMARK.json document.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []e2eJSON      `json:"end_to_end"`
	PerLayer   []layerJSON    `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// declaredSpec renders the declarations above as the BENCHMARK.json document.
func declaredSpec() benchmarkJSON {
	doc := benchmarkJSON{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{Name: w.name, Why: w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eJSON{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return doc
}

// repoRoot walks up from the working directory to the directory holding
// go.mod: `go run ./bench` starts at the root, `go test` inside bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no go.mod above the working directory")
		}
		dir = parent
	}
}
