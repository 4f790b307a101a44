package main

import (
	"fmt"
	"slices"
	"strings"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hostSeries returns the per-repetition values of the host end-to-end
// metrics; the reported value of each is the median.
func hostSeries(reps []repResult) map[string][]float64 {
	out := make(map[string][]float64)
	for _, r := range reps {
		ops := float64(r.ops)
		out["host_wall_s"] = append(out["host_wall_s"], r.wallS)
		out["host_allocs_per_op"] = append(out["host_allocs_per_op"], float64(r.mallocs)/ops)
		out["host_bytes_per_op"] = append(out["host_bytes_per_op"], float64(r.allocBytes)/ops)
		out["host_heap_mb"] = append(out["host_heap_mb"], r.heapMB)
		out["setup_s"] = append(out["setup_s"], r.setupS)
	}
	return out
}

// endToEndMetrics reduces a workload's untraced repetitions to the declared
// end-to-end metrics: the host ones are the medians of their series, the
// simulated ones are identical across repetitions (the caller checks), so
// the first repetition's are reported.
func endToEndMetrics(first repResult, host map[string][]float64) map[string]value {
	vals := map[string]float64{
		"sim_kops": first.simKops, "sim_p50_us": first.simP50us, "sim_p999_us": first.simP999us,
	}
	for name, series := range host {
		vals[name] = median(series)
	}
	out := make(map[string]value, len(endToEnd))
	for _, m := range endToEnd {
		out[m.Name] = value{vals[m.Name], m.Unit}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cyclesPerOp spreads a breakdown over the declared categories, folding any
// category the declaration does not know into "other".
func cyclesPerOp(vals map[string]float64, prefix string, cats []string, breakdown map[string]uint64, ops float64) {
	known := make(map[string]bool, len(cats))
	for _, c := range cats {
		known[c] = true
		vals[prefix+c] = ratio(float64(breakdown[c]), ops)
	}
	var other uint64
	for c, cyc := range breakdown {
		if !known[c] {
			other += cyc
		}
	}
	vals[prefix+"other"] = ratio(float64(other), ops)
}

// perLayerMetrics builds the declared per-layer metrics of one workload from
// an untraced repetition (simulated deltas, host process figures), the
// traced repetition and the micro-loops.
func perLayerMetrics(rep repResult, tr *tracedResult, micro map[string]float64) map[string]value {
	vals := make(map[string]float64)
	n, ops := rep.layers.n, float64(rep.ops)
	for k, v := range n {
		if k[0] != '_' {
			vals[k] = float64(v)
		}
	}
	for k, v := range rep.extra {
		vals[k] = v
	}
	for k, v := range micro {
		vals[k] = v
	}
	for _, k := range []string{"user", "system", "iowait", "lockwait"} {
		vals["engine."+k+"_mcycles"] = float64(n["_"+k]) / 1e6
	}
	vals["cpu.tlb_hit_ratio"] = ratio(float64(n["_tlb_hits"]), float64(n["_tlb_hits"]+n["cpu.tlb_misses"]))
	vals["device.bytes_per_op"] = ratio(float64(n["device.bytes_read"]+n["device.bytes_written"]), ops)
	vals["device.write_amp"] = ratio(float64(n["device.bytes_written"]), float64(rep.stored))
	vals["device.nvme_util"] = ratio(float64(n["_nvme_busy"]), float64(n["_now"]))
	vals["core.pages_per_shootdown"] = ratio(float64(n["core.evictions"]), float64(n["core.shootdown_batches"]))
	cyclesPerOp(vals, "core.cyc_per_op.", coreBreakCats, rep.layers.coreBreak, ops)
	cyclesPerOp(vals, "host.cyc_per_op.", hostBreakCats, rep.layers.hostBreak, ops)

	vals["bench.calib_ms"], vals["bench.cpu_s"] = rep.calibMs, rep.cpuS
	vals["bench.gc_cycles"], vals["bench.gc_pause_ms"] = float64(rep.gcCycles), rep.gcPauseMs

	faults := float64(n["core.major_faults"] + n["core.minor_faults"] + n["core.wp_faults"])
	vals["core.fault_ratio"] = ratio(faults, float64(tr.rec.count("mmio.load", "mmio.store")))
	vals["kreon.get_self_cycles_p50"] = tr.rec.selfP50("kv.get")
	vals["kreon.put_self_cycles_p50"] = tr.rec.selfP50("kv.put")
	vals["obs.trace_overhead_ratio"] = ratio(tr.rep.wallS, rep.wallS)
	vals["obs.spans_dropped"] = float64(tr.dropped)
	vals["prof.attributed_ratio"] = tr.attributed
	for _, c := range profClasses {
		vals["prof.excl_share."+c] = tr.exclShare[c]
	}

	// Every declared metric is reported, 0 where the layer did no work; a
	// value computed under a name the declaration lacks is reported too, for
	// the smoke test to catch.
	out := make(map[string]value, len(perLayer))
	for name, v := range vals {
		out[name] = value{Value: v}
	}
	for _, m := range perLayer {
		out[m.Name] = value{vals[m.Name], m.Unit}
	}
	return out
}

// checkReps applies the run protocol's hard failures to a workload's
// repetitions (the traced one, when there is one, last): no failed operation,
// the workload's bypass assertion, and every simulated value identical to
// repetition 0's — across repetitions and with tracing on.
func checkReps(w *workload, reps []repResult, traced bool) []error {
	var errs []error
	want := reps[0].simValues()
	for i, r := range reps {
		kind := fmt.Sprintf("repetition %d", i)
		if traced && i == len(reps)-1 {
			kind = "traced repetition"
		}
		if r.failed > 0 {
			errs = append(errs, fmt.Errorf("%s: %s: %d of %d operations failed", w.name, kind, r.failed, r.ops))
		}
		if r.bypassErr != nil {
			errs = append(errs, fmt.Errorf("%s: %s: %w", w.name, kind, r.bypassErr))
		}
		if diff := diffValues(want, r.simValues()); len(diff) > 0 {
			errs = append(errs, fmt.Errorf("%s: %s disagrees with repetition 0 on the simulated clock: %s", w.name, kind, strings.Join(diff, "; ")))
		}
	}
	return errs
}
