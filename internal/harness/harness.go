// Package harness regenerates every table and figure of the paper's
// evaluation (§6). Each experiment builds the worlds it compares (Linux
// read/write, Linux mmap, kmmap, Aquila), runs the paper's workload at a
// configurable scale, and prints the same rows/series the paper reports.
//
// Dataset and cache sizes are scaled down from the paper's testbed (see
// EXPERIMENTS.md); every experiment preserves the governing ratios
// (dataset:cache, threads, value sizes), so the *shape* of each figure —
// who wins, by what factor, where crossovers fall — is what reproduces.
package harness

import (
	"fmt"
	"sort"
	"strings"

	"aquila"
	"aquila/internal/obs"
)

// Result is one regenerated table/figure.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Report is the machine-readable form of the experiment's headline
	// numbers (BENCH_<id>.json), populated by experiments that support it.
	Report *obs.Report
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cols ...string) { r.Rows = append(r.Rows, cols) }

// AddNote appends a free-form note (paper-target commentary).
func (r *Result) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// setReport attaches the machine-readable report (BENCH_<id>.json): the
// headline run's ops, elapsed cycles and latency (nil for none), the cycle
// breakdown with the total it should sum to, and the experiment's config and
// extra scalars.
func (r *Result) setReport(scale float64, ops, elapsed uint64, lat *obs.Histogram,
	breakdown map[string]uint64, total uint64, config map[string]string, extra map[string]float64) {
	r.Report = &obs.Report{
		Schema:              obs.ReportSchemaVersion,
		Experiment:          r.ID,
		Title:               r.Title,
		Scale:               scale,
		Config:              config,
		Ops:                 ops,
		ElapsedCycles:       elapsed,
		ThroughputOpsPerSec: aquila.ThroughputOpsPerSec(ops, elapsed),
		Breakdown:           breakdown,
		BreakdownTotal:      sumMap(breakdown),
		TotalCycles:         total,
		Extra:               extra,
	}
	if lat != nil {
		s := lat.Summarize()
		r.Report.Latency = &s
	}
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(r.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// CSV renders the result as RFC-4180-ish CSV (header row first; notes as
// comment lines).
func (r *Result) CSV() string {
	var sb strings.Builder
	quote := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
		}
		return s
	}
	writeRow := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(quote(c))
		}
		sb.WriteByte('\n')
	}
	writeRow(r.Header)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "# %s\n", n)
	}
	return sb.String()
}

// Experiment regenerates one paper artefact.
type Experiment struct {
	// ID is the figure/table id ("fig5a", "table1", ...).
	ID string
	// Title describes the artefact.
	Title string
	// Paper states the paper's own headline numbers for the artefact.
	Paper string
	// Run executes at the given scale (1.0 = full scaled-down run; tests
	// use smaller). Returns one or more result tables.
	Run func(scale float64) []*Result
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the registered experiments in id order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// devLabel is how the tables name a storage device.
var devLabel = map[aquila.DeviceKind]string{
	aquila.DevicePMem: "pmem",
	aquila.DeviceNVMe: "NVMe",
}

// scaled multiplies a base size by the scale with a floor.
func scaled(base uint64, scale float64, floor uint64) uint64 {
	return max(uint64(float64(base)*scale), floor)
}

// scaledN is scaled for plain ints.
func scaledN(base int, scale float64, floor int) int {
	return max(int(float64(base)*scale), floor)
}

// fmtFloat renders a float with sensible precision.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// kops renders throughput in Kops/s.
func kops(ops uint64, cycles uint64) string {
	return fmt.Sprintf("%.1f", aquila.ThroughputOpsPerSec(ops, cycles)/1e3)
}

// us renders cycles as microseconds.
func us(c uint64) string { return fmt.Sprintf("%.2f", aquila.CyclesToMicros(c)) }

// usF renders a float cycle count as microseconds.
func usF(c float64) string { return fmt.Sprintf("%.2f", c/2400.0) }

// mergeHists merges per-thread histograms.
func mergeHists(hs []*obs.Histogram) *obs.Histogram {
	out := obs.NewHistogram()
	for _, h := range hs {
		if h != nil {
			out.Merge(h)
		}
	}
	return out
}

// ratio formats a/b with an "x" suffix.
func ratio(a, b float64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", a/b)
}
