// graphbfs: extend an application's heap over fast storage (§6.2). A Ligra-
// style BFS runs over an R-MAT graph whose heap lives in a memory-mapped
// file eight times larger than DRAM, with only the allocator changed — the
// paper's "large datasets without application redesign" scenario.
//
//	go run ./examples/graphbfs
package main

import (
	"fmt"

	"aquila"
	"aquila/internal/graph"
	"aquila/internal/sim/cpu"
	"aquila/internal/sim/engine"
)

func main() {
	const vertices = 1 << 14
	raw := graph.RMAT(graph.RMATConfig{Vertices: vertices, EdgeFactor: 10, Seed: 7})
	// Laid out once, the CSR image is stored into every heap below.
	csr := graph.Layout(vertices, graph.Symmetrize(raw))
	heapBytes := (vertices*12+csr.M*4)*5/4 + (1 << 20)

	// DRAM-only baseline: the heap is ordinary memory.
	e := engine.New(engine.Config{NumCPUs: 32, Seed: 1})
	memHeap := graph.NewMemHeap(heapBytes * 2)
	var g *graph.Graph
	e.Spawn(0, "build", func(p *engine.Proc) { g = csr.Build(p, memHeap) })
	e.Run()
	dram := graph.RunBFS(e, g, 0, 8)
	e.Close()

	// Heap over a mapped file with a DRAM cache 8x smaller than the data.
	for _, mode := range []struct {
		name string
		m    aquila.Mode
	}{{"Linux mmap", aquila.ModeLinuxMmap}, {"Aquila", aquila.ModeAquila}} {
		sys := aquila.New(aquila.Options{
			Mode: mode.m, Device: aquila.DevicePMem,
			CacheBytes: heapBytes / 8, DeviceBytes: heapBytes*2 + (64 << 20),
		})
		var mg *graph.Graph
		sys.Do(func(p *aquila.Proc) {
			f := sys.NS.Create(p, "heap", heapBytes*2)
			m := sys.NS.Mmap(p, f, heapBytes*2)
			m.Advise(p, aquila.AdviceRandom)
			mg = csr.Build(p, graph.NewMappedHeap(m))
		})
		res := graph.RunBFS(sys.Sim, mg, 0, 8)
		sys.Close()
		fmt.Printf("%-12s BFS: %6.2f ms  (%d rounds, %d vertices reached, %.1fx DRAM-only)\n",
			mode.name, cpu.CyclesToSeconds(res.ElapsedCycles)*1e3,
			res.Rounds, res.Visited,
			float64(res.ElapsedCycles)/float64(dram.ElapsedCycles))
	}
	fmt.Printf("%-12s BFS: %6.2f ms  (%d rounds, %d vertices reached)\n",
		"DRAM-only", cpu.CyclesToSeconds(dram.ElapsedCycles)*1e3, dram.Rounds, dram.Visited)
}
