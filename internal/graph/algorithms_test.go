package graph

import (
	"math"
	"testing"

	"aquila/internal/sim/engine"
)

func TestPageRankSumsToOne(t *testing.T) {
	e, h := memHeapWorld()
	// A ring guarantees no dangling vertices (which would leak rank mass).
	edges := RMAT(RMATConfig{Vertices: 256, EdgeFactor: 8, Seed: 5})
	for v := uint32(0); v < 256; v++ {
		edges = append(edges, [2]uint32{v, (v + 1) % 256})
	}
	edges = Symmetrize(edges)
	var g *Graph
	e.Spawn(0, "build", func(p *engine.Proc) { g = Build(p, h, 256, edges) })
	e.Run()
	res := RunPageRank(e, g, 4, 30, 1e-6)
	if res.Iterations == 0 {
		t.Fatal("no iterations")
	}
	var sum float64
	e.Spawn(0, "check", func(p *engine.Proc) {
		for v := uint32(0); v < 256; v++ {
			r := Rank(p, h, res.RanksOff, v)
			if r < 0 || r > 1 {
				t.Fatalf("rank[%d] = %v out of range", v, r)
			}
			sum += r
		}
	})
	e.Run()
	// Dangling-free symmetric graph: ranks sum to ~1.
	if math.Abs(sum-1.0) > 0.02 {
		t.Errorf("rank sum = %v, want ~1", sum)
	}
}

func TestPageRankHubOutranksLeaf(t *testing.T) {
	e, h := memHeapWorld()
	// Star: vertex 0 connected to all others (symmetric).
	var edges [][2]uint32
	for v := uint32(1); v < 64; v++ {
		edges = append(edges, [2]uint32{0, v}, [2]uint32{v, 0})
	}
	var g *Graph
	e.Spawn(0, "build", func(p *engine.Proc) { g = Build(p, h, 64, edges) })
	e.Run()
	res := RunPageRank(e, g, 2, 50, 1e-9)
	var hub, leaf float64
	e.Spawn(0, "check", func(p *engine.Proc) {
		hub = Rank(p, h, res.RanksOff, 0)
		leaf = Rank(p, h, res.RanksOff, 17)
	})
	e.Run()
	if hub <= 5*leaf {
		t.Errorf("hub rank %v not dominating leaf %v", hub, leaf)
	}
}

func TestPageRankConverges(t *testing.T) {
	e, h := memHeapWorld()
	edges := Symmetrize(RMAT(RMATConfig{Vertices: 128, EdgeFactor: 6, Seed: 9}))
	var g *Graph
	e.Spawn(0, "build", func(p *engine.Proc) { g = Build(p, h, 128, edges) })
	e.Run()
	res := RunPageRank(e, g, 4, 100, 1e-7)
	if res.Iterations >= 100 {
		t.Errorf("did not converge: %d iterations, delta %v", res.Iterations, res.Delta)
	}
	if res.Delta > 1e-7 {
		t.Errorf("final delta %v above eps", res.Delta)
	}
}

func TestPageRankOverMappedHeap(t *testing.T) {
	// Data-integrity check: the same deterministic computation over a
	// pressure-evicted mapped heap must produce bit-identical ranks to the
	// DRAM heap (R-MAT leaves dangling vertices, so the sum itself leaks
	// below 1 by design — comparing against DRAM catches real corruption).
	edges := Symmetrize(RMAT(RMATConfig{Vertices: 1024, EdgeFactor: 6, Seed: 13}))
	run := func(e *engine.Engine, h Heap) []float64 {
		var g *Graph
		e.Spawn(0, "build", func(p *engine.Proc) { g = Build(p, h, 1024, edges) })
		e.Run()
		res := RunPageRank(e, g, 4, 10, 1e-5)
		out := make([]float64, 1024)
		e.Spawn(0, "collect", func(p *engine.Proc) {
			for v := uint32(0); v < 1024; v++ {
				out[v] = Rank(p, h, res.RanksOff, v)
			}
		})
		e.Run()
		return out
	}
	eMem, hMem := memHeapWorld()
	want := run(eMem, hMem)
	eMap, hMap := mappedHeapWorld(2 * mib) // under memory pressure
	got := run(eMap, hMap)
	for v := range want {
		if want[v] != got[v] {
			t.Fatalf("rank[%d] differs: dram %v vs mapped %v (eviction corruption)", v, want[v], got[v])
		}
	}
}
