package obs

import (
	"os"
	"path/filepath"
	"testing"
)

func TestReportRoundTrip(t *testing.T) {
	r := &Report{
		Schema:              ReportSchemaVersion,
		Experiment:          "fig8a",
		Scale:               1.0,
		Config:              map[string]string{"device": "pmem", "threads": "1"},
		Ops:                 1000,
		ElapsedCycles:       2_400_000,
		ThroughputOpsPerSec: 1e6,
		Latency:             &Summary{Count: 1000, Sum: 2_000_000, Mean: 2000, Min: 500, Max: 9000, P50: 1800, P99: 7000},
		Breakdown:           map[string]uint64{"exception": 552_000, "device-io": 900_000},
		BreakdownTotal:      1_452_000,
		TotalCycles:         1_500_000,
		Extra:               map[string]float64{"linux_total_per_fault": 5380},
	}
	path := filepath.Join(t.TempDir(), "BENCH_fig8a.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Experiment != "fig8a" || got.Breakdown["exception"] != 552_000 ||
		got.Latency.P99 != 7000 || got.Config["device"] != "pmem" {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	if c := got.Coverage(); c < 0.95 || c > 1 {
		t.Fatalf("coverage = %v", c)
	}
}

func TestReportCoverageZeroWhenUnknown(t *testing.T) {
	r := &Report{}
	if r.Coverage() != 0 {
		t.Fatal("coverage of empty report should be 0")
	}
}

// The error paths of report loading: a missing file and malformed JSON must
// both surface as errors, never as a zero report a golden check would hold a
// run to.
func TestReadReportFileErrors(t *testing.T) {
	if _, err := ReadReportFile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing report file: no error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReportFile(bad); err == nil {
		t.Error("malformed report JSON: no error")
	}
}
