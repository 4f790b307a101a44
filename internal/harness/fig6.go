package harness

import (
	"fmt"

	"aquila"
	"aquila/internal/graph"
	"aquila/internal/sim/cpu"
	"aquila/internal/sim/engine"
)

func init() {
	register(Experiment{
		ID:    "fig6a",
		Title: "Ligra BFS execution time, 8 GB-class DRAM cache",
		Paper: "Aquila vs mmap (pmem): 1.56x @1T, 2.54x @8T, 4.14x @16T; mmap up to 11.8x slower than DRAM-only, Aquila 2.8x",
		Run: func(scale float64) []*Result {
			return []*Result{runFig6(scale, 8, "fig6a")}
		},
	})
	register(Experiment{
		ID:    "fig6b",
		Title: "Ligra BFS execution time, 16 GB-class DRAM cache",
		Paper: "Aquila still up to 2.3x faster than mmap at 16 threads",
		Run: func(scale float64) []*Result {
			return []*Result{runFig6(scale, 4, "fig6b")}
		},
	})
	register(Experiment{
		ID:    "fig6c",
		Title: "Ligra BFS execution-time breakdown, 16 threads, 8 GB-class cache",
		Paper: "mmap: 61.79% system / 10.61% user; Aquila: 43.82% system / 55.92% user; Aquila cuts system+idle time 8.31x",
		Run:   runFig6c,
	})
}

// fig6Config is one Ligra heap configuration.
type fig6Config struct {
	name   string
	mode   aquila.Mode
	device aquila.DeviceKind
	dram   bool
}

var fig6Configs = []fig6Config{
	{"mmap-pmem", aquila.ModeLinuxMmap, aquila.DevicePMem, false},
	{"mmap-NVMe", aquila.ModeLinuxMmap, aquila.DeviceNVMe, false},
	{"aquila-pmem", aquila.ModeAquila, aquila.DevicePMem, false},
	{"aquila-NVMe", aquila.ModeAquila, aquila.DeviceNVMe, false},
	{"DRAM-only", aquila.ModeAquila, aquila.DevicePMem, true},
}

// rmatHeap lays out the symmetrized R-MAT graph (edge factor 10) the graph
// experiments run on, once per experiment, and sizes the heap that holds it:
// CSR offsets, edges, perVertex bytes of algorithm state (BFS parents: 4),
// and a quarter plus 1 MB of slack. Every world of the experiment stores the
// same laid-out CSR; the edge list is dropped here.
func rmatHeap(vertices uint32, seed int64, perVertex uint64) (csr *graph.CSR, heapBytes uint64) {
	raw := graph.RMAT(graph.RMATConfig{Vertices: vertices, EdgeFactor: 10, Seed: seed})
	csr = graph.Layout(vertices, graph.Symmetrize(raw))
	heapBytes = (uint64(vertices)+1)*8 + csr.M*4 + uint64(vertices)*perVertex
	return csr, heapBytes*5/4 + 1<<20
}

// graphCache is the DRAM cache for a heap at the given footprint:cache ratio
// (8 for the paper's 64 GB / 8 GB configuration), floored so the batch:cache
// ratios stay in the paper's regime.
func graphCache(heapBytes, overcommit uint64) uint64 {
	return max(heapBytes/overcommit, 1500*1024)
}

// fig6Sizes derives the BFS graph and heap from the scale.
func fig6Sizes(scale float64) (csr *graph.CSR, heapBytes uint64) {
	return rmatHeap(uint32(scaledN(1<<17, scale, 1<<13)), 21, 4)
}

// runBFSConfig stores the graph into one world and runs BFS there.
func runBFSConfig(cfg fig6Config, csr *graph.CSR, heapBytes, cache uint64, threads int) graph.BFSResult {
	if cfg.dram {
		e := bootEngine(engine.Config{NumCPUs: 32, Seed: 5}, "dram", nil)
		defer retire(e)
		h := graph.NewMemHeap(heapBytes * 2)
		var g *graph.Graph
		e.Spawn(0, "build", func(p *engine.Proc) {
			g = csr.Build(p, h)
		})
		e.Run()
		return graph.RunBFS(e, g, 0, threads)
	}
	sys := boot(aquila.Options{
		Mode: cfg.mode, Device: cfg.device,
		CacheBytes:  cache,
		DeviceBytes: heapBytes*2 + 64*mib,
		CPUs:        32,
	})
	defer retire(sys.Sim)
	var g *graph.Graph
	sys.Do(func(p *aquila.Proc) {
		h := graph.NewMappedHeap(mapFile(p, sys, "heap", heapBytes*2, aquila.AdviceRandom))
		g = csr.Build(p, h)
	})
	return graph.RunBFS(sys.Sim, g, 0, threads)
}

func runFig6(scale float64, overcommit uint64, id string) *Result {
	csr, heapBytes := fig6Sizes(scale)
	cache := graphCache(heapBytes, overcommit)
	r := &Result{
		ID: id,
		Title: fmt.Sprintf("Ligra BFS, R-MAT %dK vertices / %dK sym edges, cache = footprint/%d",
			csr.N/1024, csr.M/1024, overcommit),
		Header: []string{"threads", "config", "exec time(ms)", "vs mmap-pmem", "vs DRAM-only"},
	}
	threadCounts := []int{1, 8, 16}
	if scale < 0.5 {
		threadCounts = []int{1, 8}
	}
	for _, threads := range threadCounts {
		times := map[string]float64{}
		for _, cfg := range fig6Configs {
			res := runBFSConfig(cfg, csr, heapBytes, cache, threads)
			times[cfg.name] = cpu.CyclesToSeconds(res.ElapsedCycles) * 1e3
		}
		for _, cfg := range fig6Configs {
			ms := times[cfg.name]
			r.AddRow(fmt.Sprint(threads), cfg.name, fmt.Sprintf("%.2f", ms),
				ratio(times["mmap-pmem"], ms), ratio(ms, times["DRAM-only"]))
		}
	}
	r.AddNote("paper (8 GB-class): Aquila/mmap = 1.56x @1T, 2.54x @8T, 4.14x @16T; (16 GB-class) up to 2.3x")
	return r
}

func runFig6c(scale float64) []*Result {
	csr, heapBytes := fig6Sizes(scale)
	cache := graphCache(heapBytes, 8)
	threads := 16
	if scale < 0.5 {
		threads = 8
	}
	r := &Result{
		ID:     "fig6c",
		Title:  fmt.Sprintf("BFS execution-time breakdown, %d threads, cache = footprint/8 (pmem)", threads),
		Header: []string{"config", "user %", "system %", "idle %"},
	}
	sums := map[string][4]uint64{}
	for _, cfg := range []fig6Config{fig6Configs[0], fig6Configs[2]} { // mmap-pmem, aquila-pmem
		res := runBFSConfig(cfg, csr, heapBytes, cache, threads)
		total := float64(res.Acct[0] + res.Acct[1] + res.Acct[2] + res.Acct[3])
		if total == 0 {
			total = 1
		}
		user := 100 * float64(res.Acct[engine.KindUser]) / total
		system := 100 * float64(res.Acct[engine.KindSystem]) / total
		idle := 100 * float64(res.Acct[engine.KindIOWait]+res.Acct[engine.KindLockWait]) / total
		sums[cfg.name] = res.Acct
		r.AddRow(cfg.name, fmt.Sprintf("%.1f", user), fmt.Sprintf("%.1f", system),
			fmt.Sprintf("%.1f", idle))
	}
	mm, aq := sums["mmap-pmem"], sums["aquila-pmem"]
	mmNonUser := float64(mm[1] + mm[2] + mm[3])
	aqNonUser := float64(aq[1] + aq[2] + aq[3])
	r.AddNote("paper: mmap 61.79%% system / 10.61%% user; Aquila 43.82%% system / 55.92%% user")
	r.AddNote("paper: Aquila reduces system+idle time 8.31x; measured %s", ratio(mmNonUser, aqNonUser))
	return []*Result{r}
}
