package harness

import (
	"fmt"
	"slices"

	"aquila"
	"aquila/internal/core"
)

// Ablation for the 2 MB huge-page mmio path: the same workloads with the
// path disabled (4 KB only), with transparent density-driven promotion at two
// thresholds, and with MADV_HUGEPAGE (promote every extent on first fault).
// Two workloads per device: the dense in-memory touch the path targets
// (every per-fault cost amortized 512x) and an out-of-memory mixed workload
// where reclaim churn fragments the buddy tier.

// hugeDensityDefault is the promotion density harness experiments use when
// they enable the 2 MB path: an extent promotes once a quarter of its 4 KB
// pages are resident (or on first fault under AdviseHuge).
const hugeDensityDefault = 0.25

func init() {
	register(Experiment{
		ID:    "ablate-hugepages",
		Title: "Ablation: 2 MB huge-page mmio path vs 4 KB-only (promotion density sweep)",
		Paper: "per-fault costs (trap, hash, LRU, shootdown, dirty-tree) are paid per 4 KB page; 2 MB units amortize them 512x (cf. Figs 8, 10)",
		Run:   runAblateHugepages,
	})
}

// faultEvents is every fault the runtime handled: major, minor and
// write-protect.
func faultEvents(st core.Stats) uint64 {
	return st.MajorFaults + st.MinorFaults + st.WPFaults
}

// hugeFaultRatio is the share of fault events served by a 2 MB unit — the
// promotion-effectiveness number BENCH_ablate-hugepages.json pins.
func hugeFaultRatio(st core.Stats) float64 {
	return safeDiv(float64(st.HugeFaults), float64(faultEvents(st)))
}

// bootHugeWorld boots an Aquila world with the huge path at the given
// promotion density (0 disables it, reproducing the 4 KB-only baseline
// bit-identically).
func bootHugeWorld(dev aquila.DeviceKind, cache, dataset uint64, density float64, seed int64) *aquila.System {
	params := core.ParamsForCache(cache)
	params.HugeFaultDensity = density
	return boot(aquila.Options{
		Mode: aquila.ModeAquila, Device: dev,
		CacheBytes: cache, DeviceBytes: dataset + 96*mib,
		CPUs: 8, Params: params,
	})
}

func runAblateHugepages(scale float64) []*Result {
	r := &Result{
		ID:    "ablate-hugepages",
		Title: "2 MB huge-page path: dense in-memory touch and out-of-memory mixed 2:1 (4 threads)",
		Header: []string{"device", "workload", "config", "Kops/s", "avg(us)",
			"faults", "vs 4K", "promo", "demo", "2M evict", "2M share"},
	}
	cache := scaled(32*mib, scale, 16*mib)
	threads := 4
	mixedOps := scaledN(3000, scale, 600)

	type cfg struct {
		name    string
		density float64
		hint    bool
	}
	cfgs := []cfg{
		{"4K only", 0, false},
		{"density 0.5", 0.5, false},
		{"density 0.25", 0.25, false},
		{"AdviseHuge", hugeDensityDefault, true},
	}

	// Headline numbers for the report: dense in-memory on pmem, 4K baseline
	// vs the AdviseHuge run.
	var base4K, headline microResult
	for _, dev := range []aquila.DeviceKind{aquila.DevicePMem, aquila.DeviceNVMe} {
		for _, inMemory := range []bool{true, false} {
			// Dense: threads sequentially load every page of a mapping that
			// fits the cache. Mixed: a 2:1 read/write mix at random offsets
			// over a dataset several times the cache, so promotion competes
			// with reclaim for contiguity and dirtying stores exercise the
			// demote-vs-whole decision.
			wlName, a := "in-mem dense", access{
				file: "huge-dense", dataset: cache, threads: threads,
				stream: denseStream(threads),
			}
			if !inMemory {
				wlName, a = "out-of-mem mixed", access{
					file: "huge-mixed", dataset: cache * 6, threads: threads,
					advice: adviseRandom, stream: lcgStream(97, mixedOps, true),
				}
			}
			var baseFaults uint64
			for _, c := range cfgs {
				sys := bootHugeWorld(dev, cache, a.dataset, c.density, 97)
				run := a
				if c.hint {
					run.advice = slices.Concat(a.advice, []aquila.Advice{aquila.AdviceHuge})
				}
				res, _ := drive(sys, run)
				st := res.stats
				events := faultEvents(st)
				if c.density == 0 {
					baseFaults = events
				}
				r.AddRow(devLabel[dev], wlName, c.name,
					kops(res.ops, res.elapsed), usF(res.lat.Mean()),
					fmt.Sprint(events), ratio(float64(baseFaults), float64(events)),
					fmt.Sprint(st.HugePromotions), fmt.Sprint(st.HugeDemotions),
					fmt.Sprint(st.HugeEvictions),
					fmt.Sprintf("%.2f", hugeFaultRatio(st)))
				if dev == aquila.DevicePMem && inMemory {
					if c.density == 0 {
						base4K = res
					} else if c.hint {
						headline = res
					}
				}
				retire(sys.Sim)
			}
		}
	}
	r.AddNote("dense in-memory: promotion replaces 512 per-page faults with one merged 2 MB fill + one huge PTE")
	r.AddNote("out-of-memory: reclaim churn splits buddy blocks; only whole-unit evictions restore contiguity, so the 2M share drops")
	r.AddNote("pmem dense faults: 4K %d vs AdviseHuge %d (%s fewer); cycles %s lower",
		faultEvents(base4K.stats), faultEvents(headline.stats),
		ratio(float64(faultEvents(base4K.stats)), float64(faultEvents(headline.stats))),
		ratio(float64(base4K.elapsed), float64(headline.elapsed)))

	r.setReport(scale, headline.ops, headline.elapsed, headline.lat, nil, 0, map[string]string{
		"mode":    "aquila",
		"device":  "pmem",
		"cache":   fmt.Sprint(cache),
		"dataset": fmt.Sprint(cache),
		"threads": fmt.Sprint(threads),
		"cpus":    "8",
		"seed":    "97",
		"config":  "AdviseHuge, in-mem dense",
	}, map[string]float64{
		"fault_events_4k":      float64(faultEvents(base4K.stats)),
		"fault_events_huge":    float64(faultEvents(headline.stats)),
		"fault_reduction":      safeDiv(float64(faultEvents(base4K.stats)), float64(faultEvents(headline.stats))),
		"elapsed_cycles_4k":    float64(base4K.elapsed),
		"elapsed_cycles_huge":  float64(headline.elapsed),
		"cycle_reduction":      safeDiv(float64(base4K.elapsed), float64(headline.elapsed)),
		"huge_fault_ratio":     hugeFaultRatio(headline.stats),
		"huge_promotions":      float64(headline.stats.HugePromotions),
		"tlb_2m_capacity_hint": float64(32),
	})
	return []*Result{r}
}
