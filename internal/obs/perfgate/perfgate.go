// Package perfgate is the performance-regression gate behind cmd/aqperf: it
// diffs two experiment reports (obs.Report, the BENCH_<exp>.json schema)
// metric by metric and classifies every difference. Because the simulation
// is deterministic, the default comparison is exact — a single cycle of
// drift on any metric is a detectable change, so the gate needs no
// statistical machinery; per-metric tolerances exist for intentionally
// noisy series, not for measurement error.
package perfgate

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"aquila/internal/obs"
)

// Direction states which way a metric is allowed to move without being a
// regression.
type Direction int

// Metric directions.
const (
	// Neutral metrics (config echoes, derived ratios) regress by drifting
	// in either direction.
	Neutral Direction = iota
	// LowerBetter metrics are cycle costs.
	LowerBetter
	// HigherBetter metrics are throughputs and operation counts.
	HigherBetter
)

// Status classifies one metric comparison (or a whole report: the worst of
// its metrics).
type Status int

// Comparison outcomes, ordered by severity.
const (
	// OK: identical, or within the metric's tolerance.
	OK Status = iota
	// Improved: beyond tolerance in the better direction. Still a diff
	// against the golden — regenerate the goldens to absorb it.
	Improved
	// Changed: a neutral metric drifted beyond tolerance.
	Changed
	// Regressed: beyond tolerance in the worse direction.
	Regressed
)

// String returns the lowercase status name.
func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Improved:
		return "improved"
	case Changed:
		return "changed"
	case Regressed:
		return "regressed"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Delta is one metric's comparison.
type Delta struct {
	Metric    string
	Golden    float64
	Candidate float64
	Direction Direction
	// Tol is the relative tolerance applied (0 = exact).
	Tol    float64
	Status Status
	// Note carries non-numeric context (config string mismatches).
	Note string
}

// Rel returns the relative change (candidate-golden)/|golden|; ±Inf when
// the golden is zero and the candidate is not.
func (d Delta) Rel() float64 {
	if d.Golden == 0 {
		if d.Candidate == 0 {
			return 0
		}
		return math.Inf(sign(d.Candidate))
	}
	return (d.Candidate - d.Golden) / math.Abs(d.Golden)
}

func sign(v float64) int {
	if v < 0 {
		return -1
	}
	return 1
}

// String renders the delta as one readable report line.
func (d Delta) String() string {
	if d.Note != "" {
		return fmt.Sprintf("%-34s %s (%s)", d.Metric, d.Note, d.Status)
	}
	rel := d.Rel()
	relS := fmt.Sprintf("%+.3f%%", 100*rel)
	if math.IsInf(rel, 0) {
		relS = "from zero"
	}
	tolS := "exact"
	if d.Tol > 0 {
		tolS = fmt.Sprintf("tol %.2f%%", 100*d.Tol)
	}
	return fmt.Sprintf("%-34s %16.6g -> %16.6g  %s (%s, %s)",
		d.Metric, d.Golden, d.Candidate, relS, tolS, d.Status)
}

// Tolerances maps a metric name — or a metric family, the prefix before the
// first dot ("breakdown", "latency", "extra") — to a relative tolerance
// fraction. Lookup tries the exact name first, then the family, then the ""
// default entry.
type Tolerances map[string]float64

// For returns the tolerance applying to metric.
func (t Tolerances) For(metric string) float64 {
	if v, ok := t[metric]; ok {
		return v
	}
	if i := strings.IndexByte(metric, '.'); i > 0 {
		if v, ok := t[metric[:i]]; ok {
			return v
		}
	}
	return t[""]
}

// ParseTolerances parses the -tol flag form
// "metric=frac,family=frac,..." (fractions: 0.02 = 2%).
func ParseTolerances(s string) (Tolerances, error) {
	out := Tolerances{}
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("tolerance %q: want metric=fraction", part)
		}
		val = strings.TrimSpace(val)
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 {
			return nil, fmt.Errorf("tolerance %q: bad fraction %q", part, val)
		}
		out[strings.TrimSpace(name)] = f
	}
	return out, nil
}

// classify scores one numeric metric.
func classify(metric string, golden, cand float64, dir Direction, tol Tolerances) Delta {
	d := Delta{Metric: metric, Golden: golden, Candidate: cand, Direction: dir, Tol: tol.For(metric)}
	diff := math.Abs(cand - golden)
	within := diff == 0 || diff <= d.Tol*math.Abs(golden)
	switch {
	case within:
		d.Status = OK
	case dir == Neutral:
		d.Status = Changed
	case (dir == LowerBetter) == (cand > golden):
		d.Status = Regressed
	default:
		d.Status = Improved
	}
	return d
}

// Compare diffs candidate against golden metric by metric, in a fixed
// deterministic order: headline scalars, latency summary, breakdown
// categories (union of both reports; a category present on one side only
// compares against zero), extras, then config echoes. tol may be nil.
func Compare(golden, cand *obs.Report, tol Tolerances) []Delta {
	if tol == nil {
		tol = Tolerances{}
	}
	var out []Delta
	num := func(metric string, g, c float64, dir Direction) {
		out = append(out, classify(metric, g, c, dir, tol))
	}
	num("ops", float64(golden.Ops), float64(cand.Ops), HigherBetter)
	num("elapsed_cycles", float64(golden.ElapsedCycles), float64(cand.ElapsedCycles), LowerBetter)
	num("throughput_ops_per_sec", golden.ThroughputOpsPerSec, cand.ThroughputOpsPerSec, HigherBetter)
	num("total_cycles", float64(golden.TotalCycles), float64(cand.TotalCycles), LowerBetter)
	num("breakdown_total_cycles", float64(golden.BreakdownTotal), float64(cand.BreakdownTotal), LowerBetter)
	if golden.Latency != nil || cand.Latency != nil {
		g, c := summaryOrZero(golden.Latency), summaryOrZero(cand.Latency)
		num("latency.count", float64(g.Count), float64(c.Count), Neutral)
		num("latency.sum", float64(g.Sum), float64(c.Sum), LowerBetter)
		num("latency.mean", g.Mean, c.Mean, LowerBetter)
		num("latency.min", float64(g.Min), float64(c.Min), LowerBetter)
		num("latency.max", float64(g.Max), float64(c.Max), LowerBetter)
		num("latency.p50", float64(g.P50), float64(c.P50), LowerBetter)
		num("latency.p90", float64(g.P90), float64(c.P90), LowerBetter)
		num("latency.p99", float64(g.P99), float64(c.P99), LowerBetter)
		num("latency.p999", float64(g.P999), float64(c.P999), LowerBetter)
	}
	for _, k := range unionKeysU64(golden.Breakdown, cand.Breakdown) {
		num("breakdown."+k, float64(golden.Breakdown[k]), float64(cand.Breakdown[k]), LowerBetter)
	}
	for _, k := range unionKeysF64(golden.Extra, cand.Extra) {
		num("extra."+k, golden.Extra[k], cand.Extra[k], Neutral)
	}
	for _, k := range unionKeysStr(golden.Config, cand.Config) {
		if g, c := golden.Config[k], cand.Config[k]; g != c {
			out = append(out, Delta{
				Metric: "config." + k, Direction: Neutral, Status: Changed,
				Note: fmt.Sprintf("%q -> %q", g, c),
			})
		}
	}
	if golden.Experiment != cand.Experiment {
		out = append(out, Delta{
			Metric: "experiment", Direction: Neutral, Status: Changed,
			Note: fmt.Sprintf("%q -> %q", golden.Experiment, cand.Experiment),
		})
	}
	num("scale", golden.Scale, cand.Scale, Neutral)
	return out
}

func summaryOrZero(s *obs.Summary) obs.Summary {
	if s == nil {
		return obs.Summary{}
	}
	return *s
}

// Worst returns the most severe status among the deltas (OK when empty).
func Worst(deltas []Delta) Status {
	w := OK
	for _, d := range deltas {
		if d.Status > w {
			w = d.Status
		}
	}
	return w
}

// NotOK filters the deltas that differ beyond tolerance.
func NotOK(deltas []Delta) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Status != OK {
			out = append(out, d)
		}
	}
	return out
}

func unionKeysU64(a, b map[string]uint64) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	return sortedKeys(seen)
}

func unionKeysF64(a, b map[string]float64) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	return sortedKeys(seen)
}

func unionKeysStr(a, b map[string]string) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	return sortedKeys(seen)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
