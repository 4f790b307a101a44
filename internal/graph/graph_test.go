package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"aquila/internal/host"
	"aquila/internal/sim/device"
	"aquila/internal/sim/engine"
)

const mib = 1 << 20

func memHeapWorld() (*engine.Engine, Heap) {
	e := engine.New(engine.Config{NumCPUs: 8, Seed: 1})
	return e, NewMemHeap(64 * mib)
}

func mappedHeapWorld(cacheBytes uint64) (*engine.Engine, Heap) {
	e := engine.New(engine.Config{NumCPUs: 8, Seed: 1})
	disk := host.NewPMemDisk("pmem0", device.NewPMem(256*mib, device.DefaultPMemConfig()))
	os := host.NewOS(e, disk, cacheBytes)
	var h Heap
	e.Spawn(0, "setup", func(p *engine.Proc) {
		f := os.FS.Create(p, "heap", 128*mib)
		h = NewMappedHeap(os.Mmap(p, f, 128*mib))
	})
	e.Run()
	return e, h
}

func TestHeapTypedAccess(t *testing.T) {
	e, h := memHeapWorld()
	e.Spawn(0, "t", func(p *engine.Proc) {
		g := &Graph{H: h}
		off := h.Alloc(64)
		g.StoreU32(p, off, 0xDEADBEEF)
		g.StoreU64(p, off+8, 0x123456789ABCDEF0)
		if got := g.LoadU32(p, off); got != 0xDEADBEEF {
			t.Errorf("u32 = %#x", got)
		}
		if got := g.LoadU64(p, off+8); got != 0x123456789ABCDEF0 {
			t.Errorf("u64 = %#x", got)
		}
	})
	e.Run()
}

func TestHeapAllocAlignment(t *testing.T) {
	_, h := memHeapWorld()
	a := h.Alloc(1)
	b := h.Alloc(100)
	if a%64 != 0 || b%64 != 0 {
		t.Errorf("allocations not 64-byte aligned: %d %d", a, b)
	}
	if b-a < 64 {
		t.Error("allocations overlap")
	}
}

func TestRMATDeterministicAndSkewed(t *testing.T) {
	cfg := RMATConfig{Vertices: 1024, EdgeFactor: 10, Seed: 3}
	a := RMAT(cfg)
	b := RMAT(cfg)
	if len(a) != len(b) || len(a) != 10240 {
		t.Fatalf("lengths: %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic generation")
		}
	}
	// Degree skew: max out-degree far above average (power law).
	deg := make(map[uint32]int)
	for _, e := range a {
		deg[e[0]]++
	}
	max := 0
	for _, d := range deg {
		if d > max {
			max = d
		}
	}
	if max < 50 { // average is 10
		t.Errorf("max degree %d too uniform for R-MAT", max)
	}
}

func TestSymmetrize(t *testing.T) {
	edges := [][2]uint32{{1, 2}, {3, 4}}
	sym := Symmetrize(edges)
	if len(sym) != 4 {
		t.Fatalf("len = %d", len(sym))
	}
	if sym[1] != [2]uint32{2, 1} || sym[3] != [2]uint32{4, 3} {
		t.Fatalf("sym = %v", sym)
	}
}

func TestBuildCSRAndNeighbors(t *testing.T) {
	e, h := memHeapWorld()
	e.Spawn(0, "t", func(p *engine.Proc) {
		edges := [][2]uint32{{0, 1}, {0, 2}, {1, 2}, {2, 0}, {0, 3}}
		g := Build(p, h, 4, edges)
		if g.M != 5 {
			t.Fatalf("m = %d", g.M)
		}
		if got := g.Degree(p, 0); got != 3 {
			t.Errorf("deg(0) = %d", got)
		}
		nbrs := g.Neighbors(p, 0, nil)
		want := []uint32{1, 2, 3}
		if len(nbrs) != 3 {
			t.Fatalf("neighbors(0) = %v", nbrs)
		}
		for i := range want {
			if nbrs[i] != want[i] {
				t.Fatalf("neighbors(0) = %v, want %v", nbrs, want)
			}
		}
		if got := g.Degree(p, 3); got != 0 {
			t.Errorf("deg(3) = %d", got)
		}
	})
	e.Run()
}

// bfsAgainstReference checks a parallel BFS result against a sequential one:
// same reachable set, and every parent edge exists with level(parent) ==
// level(child) - 1.
func bfsAgainstReference(t *testing.T, e *engine.Engine, h Heap, n uint32, edges [][2]uint32, threads int) BFSResult {
	t.Helper()
	var g *Graph
	e.Spawn(0, "build", func(p *engine.Proc) {
		g = Build(p, h, n, edges)
	})
	e.Run()
	res := RunBFS(e, g, 0, threads)
	ref := ReferenceBFS(n, edges, 0)
	wantVisited := uint64(0)
	for _, l := range ref {
		if l >= 0 {
			wantVisited++
		}
	}
	if res.Visited != wantVisited {
		t.Fatalf("visited %d, want %d", res.Visited, wantVisited)
	}
	edgeSet := make(map[[2]uint32]bool, len(edges))
	for _, ed := range edges {
		edgeSet[ed] = true
	}
	e.Spawn(0, "verify", func(p *engine.Proc) {
		for v := uint32(0); v < n; v++ {
			par := Parent(p, h, res.ParentsOff, v)
			if ref[v] < 0 {
				if par != unvisited {
					t.Errorf("unreachable %d has parent %d", v, par)
				}
				continue
			}
			if par == unvisited {
				t.Errorf("reachable %d unvisited", v)
				continue
			}
			if v == 0 {
				continue
			}
			if !edgeSet[[2]uint32{par, v}] {
				t.Errorf("parent edge (%d,%d) not in graph", par, v)
			}
			if ref[par] != ref[v]-1 {
				t.Errorf("vertex %d: parent %d at level %d, v at %d", v, par, ref[par], ref[v])
			}
		}
	})
	e.Run()
	return res
}

func TestBFSCorrectSingleThread(t *testing.T) {
	e, h := memHeapWorld()
	edges := Symmetrize(RMAT(RMATConfig{Vertices: 512, EdgeFactor: 8, Seed: 7}))
	bfsAgainstReference(t, e, h, 512, edges, 1)
}

func TestBFSCorrectParallel(t *testing.T) {
	e, h := memHeapWorld()
	edges := Symmetrize(RMAT(RMATConfig{Vertices: 512, EdgeFactor: 8, Seed: 7}))
	res := bfsAgainstReference(t, e, h, 512, edges, 7)
	if res.Rounds == 0 || res.ElapsedCycles == 0 {
		t.Error("no work recorded")
	}
}

func TestBFSOverMappedHeap(t *testing.T) {
	e, h := mappedHeapWorld(32 * mib)
	edges := Symmetrize(RMAT(RMATConfig{Vertices: 1024, EdgeFactor: 8, Seed: 9}))
	bfsAgainstReference(t, e, h, 1024, edges, 4)
}

func TestBFSMappedHeapUnderMemoryPressure(t *testing.T) {
	// Cache far smaller than the graph: evictions in the BFS loop.
	e, h := mappedHeapWorld(1 * mib)
	edges := Symmetrize(RMAT(RMATConfig{Vertices: 2048, EdgeFactor: 10, Seed: 11}))
	bfsAgainstReference(t, e, h, 2048, edges, 4)
}

func TestBFSParallelSpeedup(t *testing.T) {
	edges := Symmetrize(RMAT(RMATConfig{Vertices: 2048, EdgeFactor: 10, Seed: 13}))
	elapsed := func(threads int) uint64 {
		e, h := memHeapWorld()
		var g *Graph
		e.Spawn(0, "build", func(p *engine.Proc) {
			g = Build(p, h, 2048, edges)
		})
		e.Run()
		return RunBFS(e, g, 0, threads).ElapsedCycles
	}
	t1 := elapsed(1)
	t4 := elapsed(4)
	// Small graphs have short rounds and serial merge overhead; require a
	// 1.5x speedup at 4 threads (larger graphs in the harness scale better).
	if float64(t4) >= float64(t1)/1.5 {
		t.Errorf("4 threads (%d) not at least 1.5x faster than 1 (%d)", t4, t1)
	}
}

// TestCSRGolden pins the CSR bytes Build writes for a seeded, symmetrized
// R-MAT graph: the offsets array and every sorted adjacency list. The digest
// was taken while Build still sorted each list with sort.Slice.
func TestCSRGolden(t *testing.T) {
	const want = "c814e16e625d84ef28bf37f8426e74624e2702cc25e78d14d7f7da9ca90a8e24"
	edges := Symmetrize(RMAT(RMATConfig{Vertices: 1 << 12, EdgeFactor: 10, Seed: 5}))
	e, h := memHeapWorld()
	var g *Graph
	e.Spawn(0, "build", func(p *engine.Proc) { g = Build(p, h, 1<<12, edges) })
	e.Run()
	mh := h.(*MemHeap)
	sum := sha256.Sum256(mh.data[g.offsetsOff : g.edgesOff+g.M*4])
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("CSR digest %s, want %s", got, want)
	}
}
