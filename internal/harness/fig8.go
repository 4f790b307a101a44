package harness

import (
	"fmt"

	"aquila"
	"aquila/internal/host"
	"aquila/internal/sim/cpu"
)

const mib = 1 << 20

func init() {
	register(Experiment{
		ID:    "fig8a",
		Title: "Page-fault overhead breakdown, dataset fits in memory (pmem)",
		Paper: "Linux fault ~5380 cycles (49% device I/O, 24% trap=1287); Aquila exception 552 = 2.33x cheaper than the trap",
		Run:   runFig8a,
	})
	register(Experiment{
		ID:    "fig8b",
		Title: "Page-fault overhead with evictions in the common path (pmem)",
		Paper: "Aquila 2.06x lower total overhead than Linux mmap; no Aquila component above 10%",
		Run:   runFig8b,
	})
	register(Experiment{
		ID:    "fig8c",
		Title: "Device access methods in Aquila (per-fault cycles)",
		Paper: "Cache-hit 2179 cycles; DAX-pmem 7.77x cheaper than HOST-pmem; SPDK-NVMe 1.53x cheaper than HOST-NVMe",
		Run:   runFig8c,
	})
}

// faultCost measures the average per-fault cycles of a microbench run.
func faultCost(cfg microConfig) (float64, microResult) {
	res := runMicro(cfg)
	return res.lat.Mean(), res
}

func runFig8a(scale float64) []*Result {
	cache := scaled(64*mib, scale, 8*mib)
	r := &Result{
		ID:     "fig8a",
		Title:  "Per-fault cycles, in-memory dataset, pmem, 1 thread",
		Header: []string{"component", "Linux mmap", "Aquila"},
	}
	base := microConfig{
		device: aquila.DevicePMem, cache: cache, dataset: cache,
		threads: 1, inMemory: true, sharedFile: true, cpus: 4, seed: 42,
	}
	linTotal, _ := faultCost(base.in(aquila.ModeLinuxMmap))
	aqTotal, aqRes := faultCost(base.in(aquila.ModeAquila))
	hugeCfg := base.in(aquila.ModeAquila)
	hugeCfg.huge = true
	hugeTotal, hugeRes := faultCost(hugeCfg)

	linIO := float64(cpu.MemcpyNoSIMD(4096)) + float64(host.PMemBlockOverhead)
	aqIO := float64(cpu.MemcpyAVX2(4096))
	linTrap := float64(cpu.TrapRing3)
	aqExc := float64(cpu.ExceptionRing0)

	r.AddRow("total", f2(linTotal), f2(aqTotal))
	r.AddRow("protection switch (trap/exception)", f2(linTrap), f2(aqExc))
	r.AddRow("device I/O", f2(linIO), f2(aqIO))
	r.AddRow("handler + cache mgmt", f2(linTotal-linTrap-linIO), f2(aqTotal-aqExc-aqIO))
	r.AddRow("total excluding device I/O", f2(linTotal-linIO), f2(aqTotal-aqIO))
	r.AddRow("total, 2 MB path (MADV_HUGEPAGE)", "", f2(hugeTotal))
	r.AddNote("paper: Linux ~5380 total, 2724 excluding I/O; trap/exception = 1287/552 = 2.33x")
	r.AddNote("measured trap/exception ratio: %s; Linux/Aquila total: %s",
		ratio(linTrap, aqExc), ratio(linTotal, aqTotal))
	r.AddNote("2 MB path: %s per access vs 4K Aquila (%d fault events vs %d; one promotion per extent)",
		ratio(aqTotal, hugeTotal), faultEvents(hugeRes.stats), faultEvents(aqRes.stats))

	r.setReport(scale, aqRes.ops, aqRes.elapsed, aqRes.lat, aqRes.breakDelta, aqRes.lat.Sum(), map[string]string{
		"mode":    "aquila",
		"device":  "pmem",
		"cache":   fmt.Sprint(cache),
		"dataset": fmt.Sprint(cache),
		"threads": "1",
		"cpus":    "4",
		"seed":    "42",
	}, map[string]float64{
		"linux_total_per_fault":  linTotal,
		"aquila_total_per_fault": aqTotal,
		"trap_cycles":            linTrap,
		"exception_cycles":       aqExc,
		"linux_over_aquila":      safeDiv(linTotal, aqTotal),
		"trap_over_exception":    safeDiv(linTrap, aqExc),
		"huge_total_per_access":  hugeTotal,
		"aquila_over_huge":       safeDiv(aqTotal, hugeTotal),
		"huge_fault_ratio":       hugeFaultRatio(hugeRes.stats),
	})
	return []*Result{r}
}

func runFig8b(scale float64) []*Result {
	cache := scaled(16*mib, scale, 4*mib)
	dataset := cache * 12 // 8 GB cache / 100 GB dataset class
	r := &Result{
		ID:     "fig8b",
		Title:  "Per-fault cycles with evictions in the common path, pmem, 1 thread",
		Header: []string{"component", "Linux mmap", "Aquila", "Aquila %"},
	}
	base := microConfig{
		device: aquila.DevicePMem, cache: cache, dataset: dataset,
		threads: 1, inMemory: false, opsPerThread: scaledN(20000, scale, 4000),
		sharedFile: true, cpus: 4, seed: 43,
	}
	linTotal, _ := faultCost(base.in(aquila.ModeLinuxMmap))
	aqTotal, aqRes := faultCost(base.in(aquila.ModeAquila))

	// Aquila's own per-component attribution, from the runtime breakdown.
	brk := aqRes.worldBreak
	faults := max(faultEvents(aqRes.stats), 1)
	total := float64(brk.Total())
	r.AddRow("total (measured per fault)", f2(linTotal), f2(aqTotal), "")
	for _, cat := range brk.Categories() {
		v := brk.PerOp(cat, faults)
		pct := 100 * float64(brk.Get(cat)) / total
		r.AddRow("  aquila:"+cat, "", f2(v), fmt.Sprintf("%.1f%%", pct))
	}
	r.AddNote("paper: Aquila 2.06x lower than mmap; measured %s", ratio(linTotal, aqTotal))
	r.AddNote("paper: no single Aquila component dominates the common path")
	return []*Result{r}
}

func runFig8c(scale float64) []*Result {
	cache := scaled(32*mib, scale, 8*mib)
	r := &Result{
		ID:     "fig8c",
		Title:  "Aquila per-fault cycles by device access method",
		Header: []string{"access method", "cycles/fault", "vs cache-hit"},
	}
	// Cache-hit: warm all pages, drop the mapping (PTEs), re-fault.
	hit := measureCacheHitFault(cache)
	r.AddRow("Cache-Hit", f2(hit), "1.00x")

	type engCase struct {
		name   string
		device aquila.DeviceKind
		engine aquila.EngineKind
	}
	cases := []engCase{
		{"DAX-pmem", aquila.DevicePMem, aquila.EngineDAX},
		{"HOST-pmem", aquila.DevicePMem, aquila.EngineHostDirect},
		{"SPDK-NVMe", aquila.DeviceNVMe, aquila.EngineSPDK},
		{"HOST-NVMe", aquila.DeviceNVMe, aquila.EngineHostDirect},
	}
	vals := map[string]float64{}
	for _, c := range cases {
		cost, _ := faultCost(microConfig{
			mode: aquila.ModeAquila, device: c.device, engine: c.engine,
			cache: cache, dataset: cache, threads: 1, inMemory: true,
			sharedFile: true, cpus: 4, seed: 44,
		})
		vals[c.name] = cost
		r.AddRow(c.name, f2(cost), ratio(cost, hit))
	}
	r.AddNote("paper: cache-hit 2179 cycles; measured %.0f", hit)
	r.AddNote("paper: HOST-pmem/DAX-pmem = 7.77x; measured %s",
		ratio(vals["HOST-pmem"]-hit, vals["DAX-pmem"]-hit))
	r.AddNote("paper: HOST-NVMe/SPDK-NVMe = 1.53x; measured %s",
		ratio(vals["HOST-NVMe"], vals["SPDK-NVMe"]))
	return []*Result{r}
}

// measureCacheHitFault warms the Aquila cache, drops the mapping, then
// re-faults every page: each fault finds its page cached (no I/O).
func measureCacheHitFault(cache uint64) float64 {
	sys := boot(aquila.Options{
		Mode: aquila.ModeAquila, Device: aquila.DevicePMem,
		CacheBytes: cache * 2, DeviceBytes: cache + 64*mib, CPUs: 4,
	})
	defer retire(sys.Sim)
	var mean float64
	sys.Do(func(p *aquila.Proc) {
		f := sys.NS.Create(p, "hitfile", cache)
		m := sys.NS.Mmap(p, f, cache)
		m.Advise(p, aquila.AdviceRandom)
		buf := make([]byte, 8)
		pages := cache / 4096
		for pg := uint64(0); pg < pages; pg++ {
			m.Load(p, pg*4096, buf)
		}
		m.Munmap(p)
		m2 := sys.NS.Mmap(p, f, cache)
		m2.Advise(p, aquila.AdviceRandom)
		start := p.Now()
		for pg := uint64(0); pg < pages; pg++ {
			m2.Load(p, pg*4096, buf)
		}
		mean = float64(p.Now()-start) / float64(pages)
	})
	return mean
}
