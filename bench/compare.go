package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// Comparison verdicts.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictChanged    = "changed"
)

// worsening returns how much worse b is than a as a share of a, given the
// metric's direction (negative when b is better).
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// spread is a run series' max − min as a share of its median.
func spread(runs []float64) float64 {
	if len(runs) < 2 {
		return 0
	}
	return ratio(slices.Max(runs)-slices.Min(runs), median(runs))
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, better string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if worsening(x, y, better) >= 0 {
				return false
			}
		}
	}
	return true
}

// hostVerdict judges one host end-to-end metric under its bound: a change
// is only "worse" (or "ok") when the base set's own run-to-run spread is
// narrower than the bound; otherwise it is unresolved, unless every run of
// b beats every run of a.
func hostVerdict(m metricDecl, a, b float64, runsA, runsB []float64, drifted bool) string {
	switch w := worsening(a, b, m.Better); {
	case drifted:
		return verdictUnresolved
	case allBetter(runsA, runsB, m.Better):
		return verdictBetter
	case spread(runsA) > m.Bound || spread(runsB) > m.Bound:
		return verdictUnresolved
	case w > m.Bound:
		return verdictWorse
	default:
		return verdictOK
	}
}

// compareSets prints one row per workload × metric with both values, the
// ratio b/a with its base, and the verdict under the benchmark's bounds. On
// the simulated clock two sets of one seed compare exactly. It returns false
// when a row is worse or, with strict (the self-check: both sets are the same
// code), when anything simulated differs.
func compareSets(w io.Writer, a, b *resultSet, strict bool) bool {
	pass := true
	drifted := math.Abs(b.CalibMs-a.CalibMs) > 0.10*a.CalibMs
	fmt.Fprintf(w, "A: seed=%d scale=%g calib=%.2fms   B: seed=%d scale=%g calib=%.2fms\n",
		a.Seed, a.Scale, a.CalibMs, b.Seed, b.Scale, b.CalibMs)
	if drifted {
		fmt.Fprintln(w, "machine drifted — host metrics unresolved (bench.calib_ms differs by more than 10% between the sets)")
	}
	if a.Seed != b.Seed || a.Scale != b.Scale {
		fmt.Fprintln(w, "the sets were generated from different seeds or scales: simulated rows are not comparable exactly")
	}
	counts := make(map[string]int)
	row := func(workload, name, unit string, av, bv float64, verdict string) {
		counts[verdict]++
		fmt.Fprintf(w, "%-24s %-36s %14.6g %14.6g %-10s x%.4f of %.6g  %s\n", workload, name, av, bv, unit, ratio(bv, av), av, verdict)
	}
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-24s missing from one set\n", wl.name)
			pass = false
			continue
		}
		failVerdict := verdictOK
		if rb.FailRatio > ra.FailRatio {
			failVerdict = verdictWorse
		}
		row(wl.name, "fail_ratio", "ratio", ra.FailRatio, rb.FailRatio, failVerdict)
		for _, m := range endToEnd {
			av, bv := ra.EndToEnd[m.Name].Value, rb.EndToEnd[m.Name].Value
			var verdict string
			switch {
			case m.Clock == clockHost:
				verdict = hostVerdict(m, av, bv, ra.HostRuns[m.Name], rb.HostRuns[m.Name], drifted)
			case av == bv:
				verdict = verdictOK
			case worsening(av, bv, m.Better) > 0:
				verdict = verdictWorse
			default:
				verdict = verdictBetter
			}
			row(wl.name, m.Name, m.Unit, av, bv, verdict)
		}
		// Per-layer metrics carry no bound: simulated ones are compared
		// exactly, host ones are shown for reading the rows above.
		for _, m := range perLayer {
			av, bv := ra.PerLayer[m.Name].Value, rb.PerLayer[m.Name].Value
			verdict := "-"
			if m.Src == srcSim && av != bv {
				verdict = verdictChanged
			}
			row(wl.name, m.Name, m.Unit, av, bv, verdict)
		}
		if diff := diffValues(ra.Sim, rb.Sim); len(diff) > 0 {
			fmt.Fprintf(w, "%-24s simulated counters differ: %v\n", wl.name, diff)
			counts[verdictChanged]++
		}
	}
	fmt.Fprintf(w, "rows: %d ok, %d better, %d worse, %d unresolved, %d simulated changed\n",
		counts[verdictOK], counts[verdictBetter], counts[verdictWorse], counts[verdictUnresolved], counts[verdictChanged])
	if counts[verdictWorse] > 0 {
		pass = false
	}
	if strict && counts[verdictChanged] > 0 {
		pass = false // Sim holds the simulated end-to-end values too
	}
	return pass
}
