package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"aquila/internal/harness"
	"aquila/internal/obs"
)

// figs-gated runs harness experiments exactly as `make perfgate` does, so
// its op counts are the experiments' own: nothing scales at full size, and
// the seed only picks the order the five run in (each boots its own worlds,
// so order must not matter — the golden check would catch it if it did).

func setupFigsGated(cfg runCfg) *instance {
	full := cfg.scale >= 1
	scale := 1.0
	if !full {
		scale = cfg.scale
	}
	order := append([]string(nil), gatedExperiments...)
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	goldens := make(map[string]*obs.Report)
	var setupFailed uint64
	if full {
		root, err := repoRoot()
		for _, id := range order {
			if err == nil {
				goldens[id], err = obs.ReadReportFile(filepath.Join(root, "BENCH_"+id+".json"))
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "figs-gated:", err)
			setupFailed++
		}
	}
	// Warm-up: the cheapest experiment once, untimed, so the first timed
	// experiment does not pay the process's lazy set-up.
	runExperiment("fig8a", scale, nil)
	if cfg.tracer != nil || cfg.reg != nil {
		harness.Instrument(cfg.tracer, cfg.reg)
	}
	if cfg.prof != nil {
		harness.InstrumentProfiler(cfg.prof)
	}

	reports := make(map[string]*obs.Report)
	run := func() phase {
		ph := phase{extra: make(map[string]float64), failed: setupFailed}
		for _, id := range order {
			t0 := time.Now()
			before := ph.untimed
			rep := runExperiment(id, scale, &ph)
			ph.extra["harness."+id+"_wall_s"] = (time.Since(t0) - (ph.untimed - before)).Seconds()
			if rep == nil {
				ph.ops++
				ph.failed++
				continue
			}
			reports[id] = rep
			ph.ops += rep.Ops
			ph.simCycles += rep.ElapsedCycles
			if id == "fig10a" && rep.Latency != nil {
				ph.latP50, ph.latP999 = rep.Latency.P50, rep.Latency.P999
			}
		}
		harness.PublishAll()
		harness.Instrument(nil, nil)
		harness.InstrumentProfiler(nil)
		return ph
	}
	// verify holds each report to its checked-in golden, to the cycle.
	verify := func(ph *phase) {
		for id, want := range goldens {
			got := reports[id]
			if got == nil {
				continue // already counted as failed
			}
			if got.Ops != want.Ops || got.ElapsedCycles != want.ElapsedCycles || got.TotalCycles != want.TotalCycles {
				fmt.Fprintf(os.Stderr, "figs-gated: %s drifted from BENCH_%s.json: ops %d/%d elapsed_cycles %d/%d total_cycles %d/%d\n",
					id, id, got.Ops, want.Ops, got.ElapsedCycles, want.ElapsedCycles, got.TotalCycles, want.TotalCycles)
				ph.failed += got.Ops
			}
		}
	}
	return &instance{run: run, verify: verify}
}

// runExperiment runs one harness experiment and returns its report (nil
// when the experiment is unknown or produced none). With ph given it reads
// the live heap while the harness still references the experiment's worlds.
func runExperiment(id string, scale float64, ph *phase) *obs.Report {
	e, ok := harness.Find(id)
	if !ok {
		return nil
	}
	results := e.Run(scale)
	if ph != nil {
		t0 := time.Now()
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		ph.heapMB = max(ph.heapMB, float64(ms.HeapAlloc)/(1<<20))
		ph.untimed += time.Since(t0)
	}
	// The harness keeps every world it boots until its cycles are taken;
	// release them as cmd/aquila-bench does after each experiment.
	harness.TakeSimCycles()
	for _, r := range results {
		if r.Report != nil {
			return r.Report
		}
	}
	return nil
}
