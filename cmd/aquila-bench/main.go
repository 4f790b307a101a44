// Command aquila-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	aquila-bench -list
//	aquila-bench -exp fig5a,fig7 [-scale 1.0]
//	aquila-bench -exp all
//	aquila-bench -exp fig8a -trace trace.json -metrics-json metrics.json
//
// Every experiment prints the same rows/series the paper reports, plus notes
// stating the paper's headline numbers next to the measured ones. Scale 1.0
// is the default scaled-down configuration documented in EXPERIMENTS.md;
// smaller scales run faster with coarser numbers.
//
// With -trace, every simulated world any experiment boots records
// cycle-attributed spans into one Chrome trace-event file (open in
// chrome://tracing or ui.perfetto.dev). With -metrics-json, all counters,
// histograms and cycle breakdowns are snapshotted to one JSON file. With
// -report-dir, each experiment that supports it writes a machine-readable
// BENCH_<exp>.json report. With -profile-dir, every experiment writes a
// hierarchical cycle profile (PROF_<exp>.json + PROF_<exp>.folded, the
// latter flame-graph ready); -profile concatenates all experiments' folded
// stacks into one file. All are zero-cost when absent: the simulation runs
// bit-identically with and without them.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"aquila/internal/harness"
	"aquila/internal/obs/obscli"
	"aquila/internal/obs/profile"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list experiments and exit")
		exp       = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		scale     = flag.Float64("scale", 1.0, "experiment scale (dataset/ops multiplier)")
		format    = flag.String("format", "table", "output format: table or csv")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON of all runs to this file")
		metricsJ  = flag.String("metrics-json", "", "write a metrics registry snapshot (JSON) to this file")
		reportDir = flag.String("report-dir", "", "write BENCH_<exp>.json reports into this directory")
		profOut   = flag.String("profile", "", "write one folded flame-graph stack file covering all experiments")
		profDir   = flag.String("profile-dir", "", "write per-experiment PROF_<exp>.json and PROF_<exp>.folded profiles into this directory")
		profTop   = flag.Int("profile-top", 0, "print the top-N call paths by exclusive cycles after each experiment")
		wallClock = flag.Bool("host-wallclock", false,
			"also print host wall-clock time per experiment (host-side only; simulated results never depend on it)")
	)
	flag.Parse()

	sinks := obscli.New(*traceOut, *metricsJ, *reportDir != "", *profOut != "" || *profDir != "" || *profTop > 0)
	harness.Instrument(sinks.Tracer, sinks.Registry)
	harness.InstrumentProfiler(sinks.SpanSink())
	prof := sinks.Profiler

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-8s %s\n         paper: %s\n", e.ID, e.Title, e.Paper)
		}
		return
	}

	var ids []string
	if *exp == "all" {
		for _, e := range harness.All() {
			ids = append(ids, e.ID)
		}
	} else {
		// Validate every id before running anything: a typo in a long
		// multi-experiment run must fail fast, not after an hour.
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if _, ok := harness.Find(id); !ok {
				var names []string
				for _, e := range harness.All() {
					names = append(names, e.ID)
				}
				fmt.Fprintf(os.Stderr, "aquila-bench: unknown experiment %q; valid experiments: %s\n",
					id, strings.Join(names, ", "))
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	var allFolded strings.Builder
	for _, id := range ids {
		e, _ := harness.Find(id)
		fmt.Printf("# %s — %s\n# paper: %s\n", e.ID, e.Title, e.Paper)
		var start time.Time
		if *wallClock {
			start = time.Now()
		}
		for _, r := range e.Run(*scale) {
			if *format == "csv" {
				fmt.Print(r.CSV())
			} else {
				fmt.Println(r)
			}
			if r.Report != nil && len(r.Report.Extra) > 0 {
				// Headline scalars the perf gate tracks (huge-page hit
				// ratio, fault reductions, component ratios), in the
				// deterministic sorted-key order the JSON report uses.
				keys := make([]string, 0, len(r.Report.Extra))
				for k := range r.Report.Extra {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				fmt.Printf("# extra:")
				for _, k := range keys {
					fmt.Printf(" %s=%.4g", k, r.Report.Extra[k])
				}
				fmt.Println()
			}
			if *reportDir != "" && r.Report != nil {
				path := filepath.Join(*reportDir, "BENCH_"+r.ID+".json")
				if err := r.Report.WriteFile(path); err != nil {
					fmt.Fprintf(os.Stderr, "write report: %v\n", err)
					os.Exit(1)
				}
				// On stderr: stdout is the golden results_full.txt pins, with
				// or without -report-dir.
				fmt.Fprintf(os.Stderr, "# report written to %s (breakdown coverage %.1f%%)\n",
					path, 100*r.Report.Coverage())
			}
		}
		// The cost figure that matters is deterministic simulated time, not
		// how fast the host ran the discrete-event loop.
		cycles := harness.TakeSimCycles()
		fmt.Printf("# (%.1f simulated Mcycles", float64(cycles)/1e6)
		if *wallClock {
			fmt.Printf(", %s host wall-clock", time.Since(start).Round(time.Millisecond))
		}
		fmt.Printf(")\n\n")
		if prof != nil {
			finishProfile(prof, e.ID, cycles, *profDir, *profTop, &allFolded, *profOut != "")
		}
	}

	harness.PublishAll()
	if what, err := sinks.Flush(os.Stdout, "# "); err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", what, err)
		os.Exit(1)
	}
	if *profOut != "" {
		if err := os.WriteFile(*profOut, []byte(allFolded.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write profile: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("# folded stacks written to %s (feed to flamegraph.pl or speedscope)\n", *profOut)
	}
}

// finishProfile drains the profiler after one experiment: validates the call
// tree against the experiment's simulated cycles, writes the per-experiment
// artifacts, and resets for the next experiment.
func finishProfile(prof *profile.Profiler, id string, cycles uint64,
	dir string, top int, folded *strings.Builder, wantFolded bool) {
	prof.SetTotalCycles(cycles)
	if err := prof.Reconcile(); err != nil {
		fmt.Fprintf(os.Stderr, "profile reconcile (%s): %v\n", id, err)
		os.Exit(1)
	}
	if top > 0 && !prof.Empty() {
		fmt.Printf("# top %d call paths by exclusive cycles:\n", top)
		if err := prof.WriteTop(os.Stdout, top); err != nil {
			fmt.Fprintf(os.Stderr, "write top table: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if wantFolded {
		if err := prof.WriteFolded(folded); err != nil {
			fmt.Fprintf(os.Stderr, "fold profile: %v\n", err)
			os.Exit(1)
		}
	}
	if dir != "" && !prof.Empty() {
		base := filepath.Join(dir, "PROF_"+id)
		if err := prof.WriteFiles(base); err != nil {
			fmt.Fprintf(os.Stderr, "write profile: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("# profile written to %s.json and %s.folded\n", base, base)
	}
	prof.Reset()
}
