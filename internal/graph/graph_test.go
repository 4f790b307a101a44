package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"slices"
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

// TestCSRGolden pins, for two seeded R-MAT graphs, the raw edge list RMAT
// draws and the CSR bytes Build writes from its symmetrized form: the offsets
// array and every sorted adjacency list. The 4 K-vertex CSR digest was taken
// while Build still sorted each list with sort.Slice, the rest while it
// sorted each list with slices.Sort. 19,660 vertices is fig6's graph at the
// scale tier-1 runs it; not a power of two, it takes RMAT's rejection path.
func TestCSRGolden(t *testing.T) {
	for _, c := range []struct {
		vertices  uint32
		seed      int64
		rmat, csr string
	}{
		{1 << 12, 5, "e7b881dcd69ca6df4e900fdcaf7872085d393426d28a2a8bf01a6698625607b1", "c814e16e625d84ef28bf37f8426e74624e2702cc25e78d14d7f7da9ca90a8e24"},
		{19660, 21, "d8056fdcd04af8181503aff8d4c6bbee9ef4e495a952412daab61721efd14ed1", "49b00e496424a5120d952b862cb711c61f67ed6b147b836c573fb49727edac47"},
	} {
		raw := RMAT(RMATConfig{Vertices: c.vertices, EdgeFactor: 10, Seed: c.seed})
		rawBytes := make([]byte, 0, len(raw)*8)
		for _, ed := range raw {
			rawBytes = binary.LittleEndian.AppendUint32(rawBytes, ed[0])
			rawBytes = binary.LittleEndian.AppendUint32(rawBytes, ed[1])
		}
		if got := sha256Hex(rawBytes); got != c.rmat {
			t.Errorf("%d vertices: RMAT digest %s, want %s", c.vertices, got, c.rmat)
		}
		e, h := memHeapWorld()
		var g *Graph
		e.Spawn(0, "build", func(p *engine.Proc) { g = Build(p, h, c.vertices, Symmetrize(raw)) })
		e.Run()
		mh := h.(*MemHeap)
		if got := sha256Hex(mh.data[g.offsetsOff : g.edgesOff+g.M*4]); got != c.csr {
			t.Errorf("%d vertices: CSR digest %s, want %s", c.vertices, got, c.csr)
		}
	}
}

// perVertexSortLayout is the layout Build used before Layout, kept as the
// reference: a counting sort by source, then slices.Sort of each list.
func perVertexSortLayout(n uint32, edges [][2]uint32) (offsets, edgeBytes []byte) {
	counts := make([]uint64, n+1)
	for _, e := range edges {
		counts[e[0]+1]++
	}
	for i := uint32(1); i <= n; i++ {
		counts[i] += counts[i-1]
	}
	offsets = make([]byte, (uint64(n)+1)*8)
	for i := uint64(0); i <= uint64(n); i++ {
		binary.LittleEndian.PutUint64(offsets[i*8:], counts[i])
	}
	sorted := make([]uint32, len(edges))
	cursor := make([]uint64, n)
	copy(cursor, counts[:n])
	for _, e := range edges {
		sorted[cursor[e[0]]] = e[1]
		cursor[e[0]]++
	}
	for v := uint32(0); v < n; v++ {
		slices.Sort(sorted[counts[v]:counts[v+1]])
	}
	edgeBytes = make([]byte, len(edges)*4)
	for i, v := range sorted {
		binary.LittleEndian.PutUint32(edgeBytes[i*4:], v)
	}
	return offsets, edgeBytes
}

// Layout's two counting sorts lay out the same bytes as sorting each list.
func TestLayoutMatchesPerVertexSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// random draws m edges whose endpoints src and dst pick.
	random := func(m int, src, dst func() uint32) [][2]uint32 {
		edges := make([][2]uint32, m)
		for i := range edges {
			edges[i] = [2]uint32{src(), dst()}
		}
		return edges
	}
	below := func(n uint32) func() uint32 { return func() uint32 { return uint32(rng.Intn(int(n))) } }
	selfLoops := random(500, below(16), below(16)) // 500 edges over 256 pairs: duplicates
	for v := uint32(0); v < 16; v += 3 {
		selfLoops = append(selfLoops, [2]uint32{v, v}, [2]uint32{v, v})
	}
	for _, c := range []struct {
		name  string
		n     uint32
		edges [][2]uint32
	}{
		{"duplicates and self-loops", 16, selfLoops},
		{"isolated vertices", 1000, random(3000, below(400), below(400))},
		{"one vertex holds every edge", 300, random(2000, func() uint32 { return 137 }, below(300))},
		{"every edge into one vertex", 300, random(2000, below(300), func() uint32 { return 0 })},
		{"n = 1", 1, random(40, below(1), below(1))},
		{"zero edges", 50, nil},
		{"n = 1, zero edges", 1, nil},
		{"symmetrized R-MAT", 3000, Symmetrize(RMAT(RMATConfig{Vertices: 3000, EdgeFactor: 6, Seed: 2}))},
	} {
		got := Layout(c.n, c.edges)
		wantOff, wantEdges := perVertexSortLayout(c.n, c.edges)
		if got.N != c.n || got.M != uint64(len(c.edges)) {
			t.Errorf("%s: N, M = %d, %d, want %d, %d", c.name, got.N, got.M, c.n, len(c.edges))
		}
		if !bytes.Equal(got.offsets, wantOff) {
			t.Errorf("%s: offsets differ", c.name)
		}
		if !bytes.Equal(got.edges, wantEdges) {
			t.Errorf("%s: edges differ", c.name)
		}
	}
}

// BenchmarkRMAT draws bfs-rmat-8t's raw edge list: 128 K vertices, edge
// factor 10.
func BenchmarkRMAT(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rmatSink = RMAT(RMATConfig{Vertices: 1 << 17, EdgeFactor: 10, Seed: 1})
	}
}

// BenchmarkLayout lays out the CSR image of bfs-rmat-8t's symmetrized graph.
func BenchmarkLayout(b *testing.B) {
	const n = 1 << 17
	edges := Symmetrize(RMAT(RMATConfig{Vertices: n, EdgeFactor: 10, Seed: 1}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layoutSink = Layout(n, edges)
	}
}

var (
	rmatSink   [][2]uint32
	layoutSink *CSR
)

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
