package obs

import (
	"encoding/json"
	"io"
	"os"
)

// ReportSchemaVersion identifies the BENCH_<exp>.json layout; bump on
// incompatible changes so trajectory tooling can dispatch.
const ReportSchemaVersion = 1

// Report is the machine-readable result of one harness experiment — the
// BENCH_<exp>.json schema. Checked-in reports form the perf trajectory of
// the repository: diffing two reports shows which breakdown category moved.
type Report struct {
	Schema     int     `json:"schema"`
	Experiment string  `json:"experiment"`
	Title      string  `json:"title,omitempty"`
	Scale      float64 `json:"scale"`
	// Config records the parameters the run used (device, threads, cache
	// bytes, dataset bytes, seed, ...), stringly-typed for stability.
	Config map[string]string `json:"config,omitempty"`

	// Ops and ElapsedCycles are the primary throughput measurements;
	// ThroughputOpsPerSec is derived at the 2.4 GHz simulated clock.
	Ops                 uint64  `json:"ops,omitempty"`
	ElapsedCycles       uint64  `json:"elapsed_cycles,omitempty"`
	ThroughputOpsPerSec float64 `json:"throughput_ops_per_sec,omitempty"`

	// Latency summarizes the per-op latency distribution in cycles.
	Latency *Summary `json:"latency_cycles,omitempty"`

	// Breakdown maps component categories to total simulated cycles;
	// BreakdownTotal is their sum and TotalCycles the measured whole the
	// components should cover (breakdown coverage = BreakdownTotal /
	// TotalCycles).
	Breakdown      map[string]uint64 `json:"breakdown_cycles,omitempty"`
	BreakdownTotal uint64            `json:"breakdown_total_cycles,omitempty"`
	TotalCycles    uint64            `json:"total_cycles,omitempty"`

	// Extra carries experiment-specific scalar series (per-op component
	// cycles, ratios vs the baseline, paper targets).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Coverage returns BreakdownTotal / TotalCycles (0 when unknown).
func (r *Report) Coverage() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return float64(r.BreakdownTotal) / float64(r.TotalCycles)
}

// WriteJSON encodes the report as indented JSON (deterministic: map keys
// sort).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path ("BENCH_<exp>.json").
func (r *Report) WriteFile(path string) error { return WriteTo(path, r.WriteJSON) }

// WriteTo creates path and streams write into it: the one file-writing path
// of the reports, traces, metrics snapshots and profiles.
func WriteTo(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadReportFile loads a report (trajectory tooling, tests).
func ReadReportFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}
