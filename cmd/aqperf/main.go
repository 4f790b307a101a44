// Command aqperf is the performance-regression gate: it diffs experiment
// reports (the BENCH_<exp>.json schema) and exits non-zero when the
// candidate drifted from the golden. The simulation is deterministic, so
// the default comparison is exact to the cycle; -tol relaxes individual
// metrics or metric families.
//
// Usage:
//
//	aqperf golden.json candidate.json
//	aqperf -goldens . -dir .perfgate                  # every BENCH_*.json
//	aqperf -tol latency=0.02,breakdown.msync=0.05 a.json b.json
//
// Exit status: 0 all metrics within tolerance (or only improvements with
// -allow-improved), 1 regression/drift detected, 2 usage or I/O error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"aquila/internal/obs"
	"aquila/internal/obs/perfgate"
)

func main() {
	var (
		goldens = flag.String("goldens", "", "directory holding the golden BENCH_*.json reports")
		dir     = flag.String("dir", "", "directory holding the candidate reports to gate (with -goldens)")
		tolS    = flag.String("tol", "", "per-metric relative tolerances: metric=frac,... (families: latency=0.02, breakdown=0.05); default exact")
		allowUp = flag.Bool("allow-improved", false, "exit 0 when the only drifts are improvements (regenerate goldens to absorb them)")
		verbose = flag.Bool("v", false, "print every metric, not only drifted ones")
	)
	flag.Parse()

	tol, err := perfgate.ParseTolerances(*tolS)
	if err != nil {
		fatalf("%v", err)
	}

	type pair struct{ name, golden, cand string }
	var pairs []pair
	switch {
	case *goldens != "" && *dir != "":
		if flag.NArg() != 0 {
			fatalf("positional reports and -goldens/-dir are mutually exclusive")
		}
		matches, err := filepath.Glob(filepath.Join(*goldens, "BENCH_*.json"))
		if err != nil {
			fatalf("list goldens: %v", err)
		}
		if len(matches) == 0 {
			fatalf("no BENCH_*.json goldens in %s", *goldens)
		}
		sort.Strings(matches)
		for _, g := range matches {
			base := filepath.Base(g)
			pairs = append(pairs, pair{name: base, golden: g, cand: filepath.Join(*dir, base)})
		}
	case flag.NArg() == 2:
		pairs = append(pairs, pair{name: filepath.Base(flag.Arg(1)), golden: flag.Arg(0), cand: flag.Arg(1)})
	default:
		fmt.Fprintln(os.Stderr, "usage: aqperf [flags] golden.json candidate.json | aqperf [flags] -goldens DIR -dir DIR")
		flag.PrintDefaults()
		os.Exit(2)
	}

	worst := perfgate.OK
	for _, pr := range pairs {
		golden, err := obs.ReadReportFile(pr.golden)
		if err != nil {
			fatalf("read golden: %v", err)
		}
		cand, err := obs.ReadReportFile(pr.cand)
		if err != nil {
			fatalf("read candidate %s: %v (regenerate with aquila-bench -report-dir)", pr.cand, err)
		}
		deltas := perfgate.Compare(golden, cand, tol)
		status := perfgate.Worst(deltas)
		if status > worst {
			worst = status
		}
		drifted := perfgate.NotOK(deltas)
		fmt.Printf("== %s: %s (%d metrics, %d drifted) ==\n",
			cand.Experiment, status, len(deltas), len(drifted))
		show := drifted
		if *verbose {
			show = deltas
		}
		for _, d := range show {
			fmt.Printf("  %s\n", d)
		}
	}
	switch {
	case worst == perfgate.OK:
		fmt.Println("# perf gate: clean")
	case worst == perfgate.Improved && *allowUp:
		fmt.Println("# perf gate: improvements only (regenerate goldens with `make bench-reports` to absorb them)")
	default:
		fmt.Println("# perf gate: FAILED — candidate drifted from goldens (if intentional, regenerate with `make bench-reports`)")
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "aqperf: "+format+"\n", args...)
	os.Exit(2)
}
