package graph

import (
	"runtime"
	"slices"
	"testing"

	"aquila/internal/sim/engine"
)

// wrappedHeap is a Heap behind a decorator, the shape of a caller's metering
// or tracing wrapper (bench's meterHeap and tracedHeap): a buffer the graph
// hands it passes through two interface calls and escapes to the host heap,
// so only a borrowed buffer keeps an access from allocating.
type wrappedHeap struct{ Heap }

// What a traversal allocates per heap access once its scratch buffers exist:
// nothing, for an edge run of any length and for every typed accessor.
func TestGraphHeapAccessesAllocateNothing(t *testing.T) {
	const hubDeg = 1500 // the hub's edge run is 6,000 bytes, past a 4 KB buffer
	var edges [][2]uint32
	for v := uint32(1); v <= hubDeg; v++ {
		edges = append(edges, [2]uint32{0, v}, [2]uint32{v, 0})
	}
	e := engine.New(engine.Config{NumCPUs: 1, Seed: 1})
	e.Spawn(0, "t", func(p *engine.Proc) {
		g := Build(p, wrappedHeap{NewMemHeap(mib)}, hubDeg+1, edges)
		off := g.H.Alloc(16)
		var list []uint32
		for _, c := range []struct {
			name   string
			access func()
		}{
			{"Neighbors of a leaf", func() { list = g.Neighbors(p, 7, list) }},
			{"Neighbors of the hub", func() { list = g.Neighbors(p, 0, list) }},
			{"Degree", func() { g.Degree(p, 7) }},
			{"LoadU32", func() { g.LoadU32(p, off) }},
			{"StoreU32", func() { g.StoreU32(p, off, 7) }},
			{"LoadU64", func() { g.LoadU64(p, off+8) }},
			{"StoreU64", func() { g.StoreU64(p, off+8, 7) }},
		} {
			if n := testing.AllocsPerRun(100, c.access); n != 0 {
				t.Errorf("%s: %v allocs, want 0", c.name, n)
			}
		}
		if got := g.Neighbors(p, 0, list); len(got) != hubDeg || got[hubDeg-1] != hubDeg {
			t.Errorf("hub's list: %d entries", len(got))
		}
		if got := g.Neighbors(p, 7, list); len(got) != 1 || got[0] != 0 || g.Degree(p, 0) != hubDeg {
			t.Errorf("leaf's list %v, hub's degree %d", got, g.Degree(p, 0))
		}
	})
	e.Run()
}

// splitHeap copies every Load in two halves with an AdvanceUser between them,
// so a thread inside Neighbors is descheduled holding half of its offset pair
// or edge run, and the other thread runs.
type splitHeap struct{ *MemHeap }

func (h splitHeap) Load(p *engine.Proc, off uint64, buf []byte) {
	half := len(buf) / 2
	copy(buf[:half], h.data[off:])
	p.AdvanceUser(1)
	copy(buf[half:], h.data[off+uint64(half):])
}

// Two threads inside Neighbors at once must each decode the run they loaded.
// One buffer shared by the graph would hand one thread the other's halves.
func TestConcurrentNeighborsEachSeeTheirOwnList(t *testing.T) {
	const n = 512
	edges := Symmetrize(RMAT(RMATConfig{Vertices: n, EdgeFactor: 8, Seed: 7}))
	want := make([][]uint32, n)
	for _, ed := range edges {
		want[ed[0]] = append(want[ed[0]], ed[1])
	}
	for _, l := range want {
		slices.Sort(l)
	}
	e := engine.New(engine.Config{NumCPUs: 3, Seed: 1})
	var g *Graph
	e.Spawn(0, "build", func(p *engine.Proc) {
		g = Build(p, splitHeap{NewMemHeap(mib)}, n, edges)
		// Spawned from inside a running thread, both start at its clock and
		// run interleaved from their first access.
		for th := 0; th < 2; th++ {
			e.Spawn(1+th, "neighbors", func(p *engine.Proc) {
				var list []uint32
				for v := uint32(th); v < n; v += 2 {
					if list = g.Neighbors(p, v, list); !slices.Equal(list, want[v]) {
						t.Errorf("thread %d: vertex %d has %d neighbours, want %d", th, v, len(list), len(want[v]))
						return
					}
				}
			})
		}
	})
	e.Run()
	if g.bufs.Free() < 2 {
		t.Fatalf("%d scratch buffers: the threads never held a buffer each at once, the test shows nothing", g.bufs.Free())
	}
}

// BenchmarkNeighbors fetches the adjacency lists of a 4 K-vertex R-MAT graph,
// vertex by vertex, over a wrapped DRAM heap: the graph layer's own host cost
// per fetch (0 allocs/op).
func BenchmarkNeighbors(b *testing.B) {
	const n = 1 << 12
	edges := Symmetrize(RMAT(RMATConfig{Vertices: n, EdgeFactor: 10, Seed: 1}))
	e := engine.New(engine.Config{NumCPUs: 1, Seed: 1})
	e.Spawn(0, "bench", func(p *engine.Proc) {
		g := Build(p, wrappedHeap{NewMemHeap(16 * mib)}, n, edges)
		var list []uint32
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			list = g.Neighbors(p, uint32(i)&(n-1), list)
		}
	})
	e.Run()
}

// A traversal stores its parents array from the graph's one megabyte of 0xff
// bytes, made by the first: a second BFS of a small graph allocates a
// fraction of the megabyte each traversal used to make afresh.
func TestRepeatedBFSReusesTheUnvisitedRun(t *testing.T) {
	e, h := memHeapWorld()
	var g *Graph
	e.Spawn(0, "build", func(p *engine.Proc) {
		g = Build(p, h, 512, Symmetrize(RMAT(RMATConfig{Vertices: 512, EdgeFactor: 8, Seed: 7})))
	})
	e.Run()
	first := RunBFS(e, g, 0, 2)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	second := RunBFS(e, g, 0, 2)
	runtime.ReadMemStats(&ms1)
	if first.Visited != second.Visited || first.Rounds != second.Rounds {
		t.Fatalf("two traversals from one source: %+v, then %+v", first, second)
	}
	if got := ms1.TotalAlloc - ms0.TotalAlloc; got >= 256<<10 {
		t.Errorf("the second BFS of a 512-vertex graph allocated %d bytes, want under 256 KB", got)
	}
}
