// Command bench is the repository's two-clock benchmark: six workloads run
// through the public API, measured end to end and layer by layer on the
// simulated clock (exact) and the host clock (medians). See README.md.
//
//	go run ./bench                                    # all six workloads, every metric
//	go run ./bench -workload evict-mixed-16t -trace 1 # one workload, per-layer metrics
//	go run ./bench -compare A.json B.json             # two result sets, row by row
//	go run ./bench -selfcheck                         # two full sets of the same code, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// workloadResult is everything one workload reported in one invocation.
type workloadResult struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	// FailRatio is failed ÷ attempted.
	FailRatio float64          `json:"fail_ratio"`
	EndToEnd  map[string]value `json:"end_to_end,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	// HostRuns holds every repetition's value of each host end-to-end
	// metric, so a comparison can tell a regression from run-to-run spread.
	HostRuns map[string][]float64 `json:"host_runs,omitempty"`
	// Sim holds every simulated counter of the measured phase, for exact
	// comparison between sets.
	Sim map[string]float64 `json:"sim,omitempty"`
	// Boundaries is the traced repetition's split at the layer boundaries
	// the benchmark decorates, on both clocks.
	Boundaries map[string]*boundaryAgg `json:"boundaries,omitempty"`
	Errors     []string                `json:"errors,omitempty"`
}

// resultSet is the full metrics document of one invocation.
type resultSet struct {
	Seed       int64                      `json:"seed"`
	Scale      float64                    `json:"scale"`
	GoMaxProcs int                        `json:"gomaxprocs"`
	GoVersion  string                     `json:"go_version"`
	CalibMs    float64                    `json:"calib_ms"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

func main() {
	var (
		workloadF = flag.String("workload", "", "run one workload and print one JSON result line (default: all six, as a table)")
		seed      = flag.Int64("seed", 1, "seed every input is generated from")
		seconds   = flag.Float64("seconds", runSeconds, "host seconds one run measures for; scales the frozen op counts")
		scale     = flag.Float64("scale", 0, "op-count multiplier; overrides -seconds when set")
		trace     = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		out       = flag.String("out", "", "directory for the traced run's artefacts and metrics.json (default bench/out without -workload, none with it)")
		compare   = flag.Bool("compare", false, "compare two metrics.json files given as arguments")
		selfcheck = flag.Bool("selfcheck", false, "run two full sets of the same code and compare them")
		spec      = flag.Bool("spec", false, "print the BENCHMARK.json this code declares")
	)
	flag.Parse()
	// The simulator is one thread of control handing a baton between
	// goroutines. On one P a handoff is a goroutine switch; on more it is a
	// cross-core wake-up whose latency the OS decides, which on the reference
	// box doubled the run-to-run spread of host_wall_s and bought nothing.
	runtime.GOMAXPROCS(1)

	if *scale == 0 {
		*scale = *seconds / runSeconds
	}
	switch {
	case *spec:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		exitOn(enc.Encode(declaredSpec()))
	case *compare:
		if flag.NArg() != 2 {
			exitOn(fmt.Errorf("usage: bench -compare A.json B.json"))
		}
		a, err := readResultSet(flag.Arg(0))
		exitOn(err)
		b, err := readResultSet(flag.Arg(1))
		exitOn(err)
		if !compareSets(os.Stdout, a, b, false) {
			os.Exit(1)
		}
	case *selfcheck:
		a := runSuite(*seed, *scale, "")
		b := runSuite(*seed, *scale, "")
		if !compareSets(os.Stdout, a, b, true) || !a.correct() || !b.correct() {
			os.Exit(1)
		}
	case *workloadF != "":
		w := findWorkload(*workloadF)
		if w == nil {
			exitOn(fmt.Errorf("unknown workload %q", *workloadF))
		}
		res := runOne(w, *seed, *scale, *trace == 1, *out)
		for _, e := range res.Errors {
			fmt.Fprintln(os.Stderr, "bench:", e)
		}
		metrics := res.EndToEnd
		if *trace == 1 {
			metrics = res.PerLayer
		}
		line, err := json.Marshal(map[string]any{
			"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
		})
		exitOn(err)
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	default:
		if *out == "" {
			root, err := repoRoot()
			exitOn(err)
			*out = filepath.Join(root, "bench", "out")
		}
		set := runSuite(*seed, *scale, *out)
		printSet(set)
		if !set.correct() {
			os.Exit(1)
		}
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

func (s *resultSet) correct() bool {
	for _, w := range s.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

// assemble reduces a workload's repetitions to its result. tr and micro are
// nil when only the end-to-end metrics were asked for.
func assemble(w *workload, reps []repResult, tr *tracedResult, micro map[string]float64) *workloadResult {
	host := hostSeries(reps)
	res := &workloadResult{EndToEnd: endToEndMetrics(reps[0], host), HostRuns: host, Sim: reps[0].simValues()}
	all := reps
	if tr != nil {
		all = append(append([]repResult(nil), reps...), tr.rep)
		res.PerLayer = perLayerMetrics(reps[0], tr, micro)
		res.Boundaries = tr.rec.phase
	}
	for _, r := range all {
		res.Attempted += r.ops
		res.Failed += r.failed
	}
	res.FailRatio = ratio(float64(res.Failed), float64(res.Attempted))
	for _, err := range checkReps(w, all, tr != nil) {
		res.Errors = append(res.Errors, err.Error())
	}
	res.Correct = len(res.Errors) == 0 && res.Attempted > 0
	return res
}

// runOne is the driver's protocol: one workload, its repetitions back to
// back. With per-layer metrics asked for, one untraced repetition gives the
// simulated deltas and the base of the tracing overhead, one traced
// repetition and the micro-loops give the rest.
func runOne(w *workload, seed int64, scale float64, layers bool, outDir string) *workloadResult {
	cfg := runCfg{seed: seed, scale: scale}
	if !layers {
		reps := make([]repResult, w.reps)
		for i := range reps {
			reps[i] = runRep(w, cfg)
		}
		return assemble(w, reps, nil, nil)
	}
	reps := []repResult{runRep(w, cfg)}
	micro := microLoops(scale)
	prof, err := startHostProfile(outDir)
	exitOn(err)
	tr := runTraced(w, cfg)
	exitOn(prof.stop())
	exitOn(writeArtefacts(outDir, w.name, tr))
	return assemble(w, reps, tr, micro)
}

// runSuite runs all six workloads: three untraced repetitions each,
// interleaved round-robin so machine drift hits all alike, then one traced
// repetition each and the micro-loops. With outDir set it writes the traced
// run's artefacts and metrics.json there.
func runSuite(seed int64, scale float64, outDir string) *resultSet {
	const suiteReps = 3
	set := &resultSet{Seed: seed, Scale: scale, GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Workloads: make(map[string]*workloadResult)}
	cfg := runCfg{seed: seed, scale: scale}
	reps := make([][]repResult, len(workloads))
	var calib []float64
	for r := 0; r < suiteReps; r++ {
		for i := range workloads {
			fmt.Fprintf(os.Stderr, "bench: %s repetition %d/%d\n", workloads[i].name, r+1, suiteReps)
			rep := runRep(&workloads[i], cfg)
			reps[i] = append(reps[i], rep)
			calib = append(calib, rep.calibMs)
		}
	}
	set.CalibMs = median(calib)
	fmt.Fprintln(os.Stderr, "bench: micro-loops")
	micro := microLoops(scale)
	prof, err := startHostProfile(outDir)
	exitOn(err)
	for i := range workloads {
		w := &workloads[i]
		fmt.Fprintf(os.Stderr, "bench: %s traced repetition\n", w.name)
		tr := runTraced(w, cfg)
		exitOn(writeArtefacts(outDir, w.name, tr))
		set.Workloads[w.name] = assemble(w, reps[i], tr, micro)
	}
	exitOn(prof.stop())
	if outDir != "" {
		exitOn(writeJSON(filepath.Join(outDir, "metrics.json"), set))
		fmt.Fprintln(os.Stderr, "bench: artefacts written to", outDir)
	}
	return set
}

// printSet prints every metric of every workload by name, with its unit.
func printSet(set *resultSet) {
	fmt.Printf("seed=%d scale=%g GOMAXPROCS=%d %s calib=%.2fms\n", set.Seed, set.Scale, set.GoMaxProcs, set.GoVersion, set.CalibMs)
	for _, w := range workloads {
		res := set.Workloads[w.name]
		fmt.Printf("\n== %s ==\n", w.name)
		fmt.Printf("  %-36s %14.6g %s  (%d failed of %d)\n", "fail_ratio", res.FailRatio, "ratio", res.Failed, res.Attempted)
		for _, m := range endToEnd {
			fmt.Printf("  %-36s %14.6g %s\n", m.Name, res.EndToEnd[m.Name].Value, m.Unit)
		}
		for _, m := range perLayer {
			fmt.Printf("  %-36s %14.6g %s\n", m.Name, res.PerLayer[m.Name].Value, m.Unit)
		}
		names := make([]string, 0, len(res.Boundaries))
		for name := range res.Boundaries {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			b := res.Boundaries[name]
			fmt.Printf("  boundary %-20s n=%-9d sim self/total %d/%d cycles, host self/total %.3f/%.3f ms\n",
				name, b.Count, b.SimSelf, b.SimCycles, float64(b.HostSelfNs)/1e6, float64(b.HostNs)/1e6)
		}
		for _, e := range res.Errors {
			fmt.Printf("  ERROR %s\n", e)
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}
