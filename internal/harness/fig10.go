package harness

import (
	"fmt"

	"aquila"
)

func init() {
	register(Experiment{
		ID:    "fig10a",
		Title: "Scalability vs Linux mmap, dataset fits in memory",
		Paper: "shared file: Aquila 1.81x @1T -> 8.37x @32T; private file per thread: 1.82x -> 1.99x",
		Run: func(scale float64) []*Result {
			return []*Result{runFig10(scale, true)}
		},
	})
	register(Experiment{
		ID:    "fig10b",
		Title: "Scalability vs Linux mmap, dataset does not fit in memory",
		Paper: "shared file: Aquila 2.17x @1T -> 12.92x @32T; private file per thread: 2.21x -> 2.84x",
		Run: func(scale float64) []*Result {
			return []*Result{runFig10(scale, false)}
		},
	})
}

// runFig10 regenerates one panel of Figure 10: random-read fault throughput
// over thread counts, shared vs per-thread files, Linux mmap vs Aquila.
func runFig10(scale float64, inMemory bool) *Result {
	id, title := "fig10a", "in-memory dataset"
	if !inMemory {
		id, title = "fig10b", "out-of-memory dataset (12x cache)"
	}
	r := &Result{
		ID:    id,
		Title: "Random-read fault throughput (Kops/s), " + title,
		Header: []string{"threads", "file", "Linux", "Aquila", "speedup",
			"Lin avg(us)", "Aq avg(us)", "Lin p99.9(us)", "Aq p99.9(us)"},
	}
	threadCounts := []int{1, 2, 4, 8, 16, 32}
	if scale < 0.5 {
		threadCounts = []int{1, 4, 16}
	}
	var cache, dataset uint64
	var ops int
	if inMemory {
		cache = scaled(96*mib, scale, 16*mib)
		dataset = cache
		ops = 0 // touch every page once
	} else {
		cache = scaled(16*mib, scale, 4*mib)
		dataset = cache * 12
		ops = scaledN(4000, scale, 800)
	}
	maxT := threadCounts[len(threadCounts)-1]
	base := microConfig{
		device: aquila.DevicePMem, cache: cache, dataset: dataset,
		inMemory: inMemory, opsPerThread: ops, cpus: 32, seed: 46,
	}
	addRow := func(threads int, fileLabel string, lin, aq microResult) {
		r.AddRow(
			fmt.Sprintf("%d", threads), fileLabel,
			kops(lin.ops, lin.elapsed), kops(aq.ops, aq.elapsed),
			ratio(aq.throughputKops(), lin.throughputKops()),
			usF(lin.lat.Mean()), usF(aq.lat.Mean()),
			us(lin.lat.P999()), us(aq.lat.P999()),
		)
	}
	linShared := make(map[int]microResult, len(threadCounts))
	var aqTop microResult
	for _, shared := range []bool{true, false} {
		fileLabel := "shared"
		if !shared {
			fileLabel = "private"
		}
		for _, threads := range threadCounts {
			cfg := base
			cfg.threads, cfg.sharedFile = threads, shared
			lin := runMicro(cfg.in(aquila.ModeLinuxMmap))
			aq := runMicro(cfg.in(aquila.ModeAquila))
			if shared {
				linShared[threads] = lin
				if threads == maxT {
					aqTop = aq
				}
			}
			addRow(threads, fileLabel, lin, aq)
		}
	}
	var hugeTop microResult
	if inMemory {
		// The same shared-file workload on the 2 MB mmio path
		// (MADV_HUGEPAGE): the first toucher of each extent promotes it with
		// one merged fill, and every later access hits the Size2M PTE without
		// faulting at all. The Linux column repeats the 4 KB mmap baseline
		// (the Linux worlds ignore the hint), so the speedup column stays
		// huge-Aquila over Linux.
		for _, threads := range threadCounts {
			cfg := base.in(aquila.ModeAquila)
			cfg.threads, cfg.sharedFile, cfg.huge = threads, true, true
			aq := runMicro(cfg)
			if threads == maxT {
				hugeTop = aq
			}
			addRow(threads, "shared+2M", linShared[threads], aq)
		}
	}
	if inMemory {
		r.AddNote("paper: shared 1.81x@1T, 8.37x@32T; private 1.82x@1T, 1.99x@32T")
		r.AddNote("shared+2M @%dT: %s over 4K Aquila (%d huge promotions, %d fault events vs %d)",
			maxT, ratio(hugeTop.throughputKops(), aqTop.throughputKops()),
			hugeTop.stats.HugePromotions,
			faultEvents(hugeTop.stats), faultEvents(aqTop.stats))

		r.setReport(scale, aqTop.ops, aqTop.elapsed, aqTop.lat, nil, 0, map[string]string{
			"mode":    "aquila",
			"device":  "pmem",
			"cache":   fmt.Sprint(cache),
			"dataset": fmt.Sprint(dataset),
			"threads": fmt.Sprint(maxT),
			"cpus":    "32",
			"seed":    "46",
			"config":  "shared file, in-memory, max threads",
		}, map[string]float64{
			"speedup_vs_linux": safeDiv(aqTop.throughputKops(),
				linShared[maxT].throughputKops()),
			"huge_speedup_vs_4k": safeDiv(hugeTop.throughputKops(),
				aqTop.throughputKops()),
			"fault_events_4k":   float64(faultEvents(aqTop.stats)),
			"fault_events_huge": float64(faultEvents(hugeTop.stats)),
			"huge_fault_ratio":  hugeFaultRatio(hugeTop.stats),
			"huge_promotions":   float64(hugeTop.stats.HugePromotions),
		})
	} else {
		r.AddNote("paper: shared 2.17x@1T, 12.92x@32T; private 2.21x@1T, 2.84x@32T")
		r.AddNote("paper latency @32T shared: 8.52x avg, 213x p99.9 lower for Aquila")
	}
	return r
}
