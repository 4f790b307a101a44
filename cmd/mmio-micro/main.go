// Command mmio-micro runs the paper's page-fault microbenchmark (§5):
// threads issuing loads at page-granular random offsets within a mapped
// region, with every access taking a page fault.
//
//	mmio-micro -mode aquila -device pmem -threads 16 -cache 64 -dataset 768
//	mmio-micro -mode mmap -shared=false ...
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"aquila"
	"aquila/internal/obs"
	"aquila/internal/obs/obscli"
)

func main() {
	var (
		modeS    = flag.String("mode", "aquila", "world: aquila or mmap")
		device   = flag.String("device", "pmem", "device: pmem or nvme")
		threads  = flag.Int("threads", 1, "threads")
		cacheMB  = flag.Uint64("cache", 32, "DRAM cache (MB)")
		dataMB   = flag.Uint64("dataset", 128, "dataset size (MB)")
		ops      = flag.Int("ops", 10000, "operations per thread")
		shared   = flag.Bool("shared", true, "one shared file (vs per-thread files)")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		trace    = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
		metricsJ = flag.String("metrics-json", "", "write a metrics registry snapshot (JSON) to this file")
		profOut  = flag.String("profile", "", "write the run's folded flame-graph stacks to this file")
		profDir  = flag.String("profile-dir", "", "write profile.json and profile.folded into this directory")
		profTop  = flag.Int("profile-top", 0, "print the top-N call paths by exclusive cycles")
		crashP   = flag.String("crash-plan", "", "JSON crash plan: kill the run at the planned point, capture the durable image, verify recovery")
	)
	flag.Parse()

	sinks := obscli.New(*trace, *metricsJ, false, *profOut != "" || *profDir != "" || *profTop > 0)
	tracer, reg, prof := sinks.Tracer, sinks.Registry, sinks.Profiler

	mode := aquila.ModeAquila
	switch *modeS {
	case "aquila":
	case "mmap":
		mode = aquila.ModeLinuxMmap
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *modeS)
		os.Exit(1)
	}
	dev := aquila.DevicePMem
	if *device == "nvme" {
		dev = aquila.DeviceNVMe
	}
	cache := *cacheMB << 20
	dataset := *dataMB << 20

	opts := aquila.Options{
		Mode: mode, Device: dev, CacheBytes: cache,
		DeviceBytes: dataset + 128<<20, Seed: *seed,
		Tracer: tracer, Registry: reg, Profiler: sinks.SpanSink(),
	}
	sys := aquila.New(opts)
	defer sys.Close()
	if *crashP != "" {
		plan, err := aquila.LoadCrashPlan(*crashP)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crash plan: %v\n", err)
			os.Exit(1)
		}
		sys.InjectCrash(plan)
	}
	maps := make([]aquila.Mapping, *threads)
	sys.Do(func(p *aquila.Proc) {
		if *shared {
			f := sys.NS.Create(p, "micro", dataset)
			m := sys.NS.Mmap(p, f, dataset)
			m.Advise(p, aquila.AdviceRandom)
			for t := range maps {
				maps[t] = m
			}
		} else {
			per := dataset / uint64(*threads) &^ 4095
			for t := range maps {
				f := sys.NS.Create(p, fmt.Sprintf("micro-%d", t), per)
				maps[t] = sys.NS.Mmap(p, f, per)
				maps[t].Advise(p, aquila.AdviceRandom)
			}
		}
	})
	lats := make([]*obs.Histogram, *threads)
	var total uint64
	elapsed := sys.Run(*threads, func(t int, p *aquila.Proc) {
		lat := obs.NewHistogram()
		lats[t] = lat
		// Per-thread generator derived from the CLI seed: never the global
		// math/rand source, so two runs with the same -seed are bit-identical
		// (the detrand rule, applied here by convention — cmd/ is host-side).
		rng := rand.New(rand.NewSource(*seed + int64(t)*101))
		buf := make([]byte, 8)
		pages := maps[t].Size() / 4096
		for i := 0; i < *ops; i++ {
			pg := uint64(rng.Int63n(int64(pages)))
			t0 := p.Now()
			maps[t].Load(p, pg*4096, buf)
			lat.Record(p.Now() - t0)
		}
		total += uint64(*ops)
	})
	if info := sys.Crashed(); info != nil {
		img := sys.CaptureCrash()
		fmt.Printf("crashed: cycle=%d reason=%s\n", info.Cycle, info.Reason)
		fmt.Printf("durable image: fingerprint=%#x dropped-blocks=%d torn-blocks=%d\n",
			img.Fingerprint, img.DroppedBlocks, img.TornBlocks)
		ropts := opts
		ropts.Tracer, ropts.Registry, ropts.Profiler = nil, nil, nil
		rec := aquila.Recover(ropts, img)
		defer rec.Close()
		verdict := "ok"
		if rec.RT != nil {
			if err := rec.RT.CheckInvariants(); err != nil {
				verdict = err.Error()
			}
		}
		fmt.Printf("recovery: booted from durable image, invariants %s\n", verdict)
		return
	}
	all := obs.NewHistogram()
	for _, l := range lats {
		all.Merge(l)
	}
	fmt.Printf("mode=%s device=%s threads=%d shared=%v cache=%dMB dataset=%dMB\n",
		*modeS, *device, *threads, *shared, *cacheMB, *dataMB)
	fmt.Printf("faults=%d  throughput=%.1f Kops/s  avg=%.0f cycles (%.2fus)  p99=%.2fus  p99.9=%.2fus\n",
		total, aquila.ThroughputOpsPerSec(total, elapsed)/1e3,
		all.Mean(), all.Mean()/2400, float64(all.P99())/2400, float64(all.P999())/2400)
	if sys.RT != nil {
		fmt.Printf("aquila: major=%d minor=%d wp=%d evictions=%d shootdown-batches=%d\n",
			sys.RT.Stats.MajorFaults, sys.RT.Stats.MinorFaults, sys.RT.Stats.WPFaults,
			sys.RT.Stats.Evictions, sys.RT.Stats.ShootdownBatches)
	}
	if reg != nil {
		reg.Histogram("fault_latency_cycles", obs.L("mode", *modeS)).Merge(all)
		reg.Counter("micro_faults").Set(total)
		if tracer != nil {
			reg.Counter("aq.obs.spans_dropped").Set(tracer.Dropped())
		}
		sys.PublishStats()
	}
	if prof != nil {
		prof.SetTotalCycles(sys.Sim.Now())
		if err := prof.Reconcile(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *profTop > 0 {
			fmt.Printf("top %d call paths by exclusive cycles:\n", *profTop)
			if err := prof.WriteTop(os.Stdout, *profTop); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if *profOut != "" {
			if err := obscli.WriteTo(*profOut, prof.WriteFolded); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("folded stacks written to %s (feed to flamegraph.pl or speedscope)\n", *profOut)
		}
		if *profDir != "" {
			base := filepath.Join(*profDir, "profile")
			if err := prof.WriteFiles(base); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("profile written to %s.json and %s.folded\n", base, base)
		}
	}
	if _, err := sinks.Flush(os.Stdout, ""); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
