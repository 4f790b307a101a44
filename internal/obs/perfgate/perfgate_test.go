package perfgate

import (
	"strings"
	"testing"

	"aquila/internal/obs"
)

func sampleReport() *obs.Report {
	return &obs.Report{
		Schema:              1,
		Experiment:          "fig8a",
		Scale:               1.0,
		Config:              map[string]string{"device": "pmem", "threads": "1"},
		Ops:                 16384,
		ElapsedCycles:       61970688,
		ThroughputOpsPerSec: 634000,
		Latency: &obs.Summary{
			Count: 16384, Sum: 61970688, Mean: 3782.4,
			Min: 700, Max: 9000, P50: 3700, P90: 4000, P99: 4200, P999: 8000,
		},
		Breakdown:      map[string]uint64{"exception": 9043968, "io": 19660800},
		BreakdownTotal: 28704768,
		TotalCycles:    61970688,
		Extra:          map[string]float64{"trap_ratio": 2.33},
	}
}

func TestCompareEqual(t *testing.T) {
	deltas := Compare(sampleReport(), sampleReport(), nil)
	if w := Worst(deltas); w != OK {
		t.Fatalf("identical reports: worst = %s, drifted %v", w, NotOK(deltas))
	}
	if len(deltas) == 0 {
		t.Fatal("no metrics compared")
	}
}

// TestCompareOneCycleRegression is the gate's reason to exist: the simulation
// is deterministic, so a single extra cycle anywhere is a detectable, failing
// regression by default.
func TestCompareOneCycleRegression(t *testing.T) {
	cand := sampleReport()
	cand.ElapsedCycles++ // +1 cycle
	cand.TotalCycles++
	deltas := Compare(sampleReport(), cand, nil)
	if w := Worst(deltas); w != Regressed {
		t.Fatalf("worst = %s, want regressed", w)
	}
	drifted := NotOK(deltas)
	if len(drifted) != 2 {
		t.Fatalf("drifted = %v, want elapsed_cycles and total_cycles", drifted)
	}
	for _, d := range drifted {
		if d.Status != Regressed {
			t.Errorf("%s status = %s", d.Metric, d.Status)
		}
		// The report line must name the metric and both values.
		line := d.String()
		if !strings.Contains(line, d.Metric) || !strings.Contains(line, "regressed") {
			t.Errorf("unreadable delta line: %q", line)
		}
	}
}

func TestDirections(t *testing.T) {
	golden := sampleReport()
	cand := sampleReport()
	cand.ThroughputOpsPerSec *= 2 // higher-better metric moving up
	cand.Extra["trap_ratio"] = 9  // neutral metric moving
	deltas := Compare(golden, cand, nil)
	byName := map[string]Delta{}
	for _, d := range deltas {
		byName[d.Metric] = d
	}
	if d := byName["throughput_ops_per_sec"]; d.Status != Improved {
		t.Errorf("throughput status = %s, want improved", d.Status)
	}
	if d := byName["extra.trap_ratio"]; d.Status != Changed {
		t.Errorf("neutral drift status = %s, want changed", d.Status)
	}
}

func TestTolerances(t *testing.T) {
	tol, err := ParseTolerances("latency=0.10,breakdown.io=0.50,elapsed_cycles=0.001")
	if err != nil {
		t.Fatal(err)
	}
	// Family lookup: latency.p99 falls under "latency".
	if got := tol.For("latency.p99"); got != 0.10 {
		t.Fatalf("latency.p99 tol = %v", got)
	}
	// Exact beats family.
	if got := tol.For("breakdown.io"); got != 0.50 {
		t.Fatalf("breakdown.io tol = %v", got)
	}
	if got := tol.For("breakdown.exception"); got != 0 {
		t.Fatalf("breakdown.exception tol = %v", got)
	}

	cand := sampleReport()
	cand.Latency.P99 += 300                          // +7%, inside the 10% family tolerance
	cand.Breakdown["io"] += cand.Breakdown["io"] / 4 // +25%, inside 50%
	deltas := Compare(sampleReport(), cand, tol)
	if w := Worst(deltas); w != OK {
		t.Fatalf("tolerated drift flagged: %v", NotOK(deltas))
	}

	cand.Breakdown["exception"]++ // exact metric: any drift fails
	deltas = Compare(sampleReport(), cand, tol)
	if w := Worst(deltas); w != Regressed {
		t.Fatalf("exact-metric drift not flagged, worst = %s", w)
	}

	if _, err := ParseTolerances("nonsense"); err == nil {
		t.Fatal("malformed tolerance accepted")
	}
	if _, err := ParseTolerances("m=-0.5"); err == nil {
		t.Fatal("negative tolerance accepted")
	}
}

func TestConfigAndExperimentMismatch(t *testing.T) {
	cand := sampleReport()
	cand.Config["device"] = "nvme"
	cand.Experiment = "fig8b"
	deltas := Compare(sampleReport(), cand, nil)
	var sawConfig, sawExp bool
	for _, d := range NotOK(deltas) {
		switch d.Metric {
		case "config.device":
			sawConfig = d.Status == Changed && strings.Contains(d.Note, "nvme")
		case "experiment":
			sawExp = d.Status == Changed
		}
	}
	if !sawConfig || !sawExp {
		t.Fatalf("config/experiment mismatch not surfaced: %v", NotOK(deltas))
	}
}

func TestBreakdownUnion(t *testing.T) {
	golden := sampleReport()
	cand := sampleReport()
	delete(cand.Breakdown, "io")    // vanished category
	cand.Breakdown["new_cat"] = 500 // appeared category
	deltas := Compare(golden, cand, nil)
	byName := map[string]Delta{}
	for _, d := range deltas {
		byName[d.Metric] = d
	}
	if d, ok := byName["breakdown.io"]; !ok || d.Candidate != 0 || d.Status != Improved {
		t.Errorf("vanished category: %+v", d)
	}
	if d, ok := byName["breakdown.new_cat"]; !ok || d.Golden != 0 || d.Status != Regressed {
		t.Errorf("appeared category: %+v", d)
	}
}
