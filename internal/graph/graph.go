package graph

import (
	"encoding/binary"

	"aquila/internal/scratch"
	"aquila/internal/sim/engine"
)

// Graph is a CSR graph stored in a Heap: offsets[n+1] of uint64 followed by
// edges[m] of uint32. With a mapped heap, every traversal access goes
// through the mmio path under study.
type Graph struct {
	H          Heap
	N          uint32 // vertices
	M          uint64 // edges
	offsetsOff uint64 // heap offset of the offsets array
	edgesOff   uint64 // heap offset of the edge array
	// bufs lends every buffer a traversal's heap access reads into or writes
	// from: an offset pair, an edge run, a parent, a rank (scratch.Stack: why
	// a LIFO, why no defer gives back). A buffer passed to Heap.Load or
	// Heap.Store escapes, so one made per access would be one allocation per
	// access.
	bufs scratch.Stack
	// unvisited is 1 MB of 0xff bytes, made by the first RunBFS: every
	// traversal stores its parents array from it. Nothing writes it after.
	unvisited []byte
}

// CSR is a graph's heap image laid out in Go memory: the offsets array and
// the edge array exactly as Build stores them. It is computed once per graph
// and can be stored into any number of heaps; nothing writes it after Layout.
type CSR struct {
	N       uint32 // vertices
	M       uint64 // edges
	offsets []byte // N+1 little-endian uint64: vertex v's run is edges[offsets[v], offsets[v+1])
	edges   []byte // M little-endian uint32, each vertex's run in ascending order
}

// Layout lays out the CSR image of a directed edge list over n vertices
// (duplicates and self-loops kept) with two stable counting sorts: by
// destination into an in-edge array of sources, then by source while walking
// destinations in ascending order, so every adjacency list comes out sorted
// with no comparison sort. Both passes are linear in n+m.
func Layout(n uint32, edges [][2]uint32) *CSR {
	m := len(edges)
	outStart := make([]int, n+1)
	inStart := make([]int, n+1)
	for _, e := range edges {
		outStart[e[0]+1]++
		inStart[e[1]+1]++
	}
	for v := uint32(1); v <= n; v++ {
		outStart[v] += outStart[v-1]
		inStart[v] += inStart[v-1]
	}
	// srcs[inStart[d]:inStart[d+1]] are the sources of d's in-edges.
	srcs := make([]uint32, m)
	cursor := make([]int, n)
	copy(cursor, inStart)
	for _, e := range edges {
		srcs[cursor[e[1]]] = e[0]
		cursor[e[1]]++
	}
	c := &CSR{N: n, M: uint64(m), offsets: make([]byte, (int(n)+1)*8), edges: make([]byte, m*4)}
	for v, o := range outStart {
		binary.LittleEndian.PutUint64(c.offsets[v*8:], uint64(o))
	}
	copy(cursor, outStart)
	for d := uint32(0); d < n; d++ {
		for _, s := range srcs[inStart[d]:inStart[d+1]] {
			binary.LittleEndian.PutUint32(c.edges[cursor[s]*4:], d)
			cursor[s]++
		}
	}
	return c
}

// Build allocates the CSR's two arrays in the heap and stores them there in
// 1 MB chunks: the sequential write pattern of the load step of §6.2, which
// also exercises the heap's write path.
func (c *CSR) Build(p *engine.Proc, h Heap) *Graph {
	g := &Graph{H: h, N: c.N, M: c.M}
	g.offsetsOff = h.Alloc(uint64(len(c.offsets)))
	g.edgesOff = h.Alloc(uint64(len(c.edges)))
	storeChunks(p, h, g.offsetsOff, c.offsets)
	storeChunks(p, h, g.edgesOff, c.edges)
	return g
}

// storeChunks stores b at off in 1 MB Stores.
func storeChunks(p *engine.Proc, h Heap, off uint64, b []byte) {
	const chunk = 1 << 20
	for lo := 0; lo < len(b); lo += chunk {
		h.Store(p, off+uint64(lo), b[lo:min(lo+chunk, len(b))])
	}
}

// Build constructs a CSR graph in the heap from an edge list: Layout, then
// (*CSR).Build. A caller that stores one graph into several heaps lays it
// out once instead.
func Build(p *engine.Proc, h Heap, n uint32, edges [][2]uint32) *Graph {
	return Layout(n, edges).Build(p, h)
}

// Degree returns a vertex's out-degree (its offset pair, one load through the
// heap).
func (g *Graph) Degree(p *engine.Proc, v uint32) uint64 {
	lo, hi := g.offsets(p, v)
	return hi - lo
}

// offsets loads a vertex's offset pair in one 16-byte access: its edge run is
// edges[lo, hi).
func (g *Graph) offsets(p *engine.Proc, v uint32) (lo, hi uint64) {
	b := g.bufs.Borrow(16)
	g.H.Load(p, g.offsetsOff+uint64(v)*8, b)
	lo, hi = binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])
	g.bufs.GiveBack(b)
	return lo, hi
}

// Neighbors loads a vertex's adjacency list through the heap in one access
// run (the loads Ligra's edgeMap issues) and decodes it into list, which it
// grows when the degree exceeds its capacity.
func (g *Graph) Neighbors(p *engine.Proc, v uint32, list []uint32) []uint32 {
	lo, hi := g.offsets(p, v)
	deg := hi - lo
	if deg == 0 {
		return list[:0]
	}
	if uint64(cap(list)) < deg {
		list = make([]uint32, deg)
	}
	list = list[:deg]
	buf := g.bufs.Borrow(int(deg * 4))
	g.H.Load(p, g.edgesOff+lo*4, buf)
	for i := range list {
		list[i] = binary.LittleEndian.Uint32(buf[i*4:])
	}
	g.bufs.GiveBack(buf)
	return list
}

// Typed accessors: one heap access each, its buffer borrowed from g.bufs.

// LoadU32 reads one uint32 from the heap.
func (g *Graph) LoadU32(p *engine.Proc, off uint64) uint32 {
	b := g.bufs.Borrow(4)
	g.H.Load(p, off, b)
	v := binary.LittleEndian.Uint32(b)
	g.bufs.GiveBack(b)
	return v
}

// StoreU32 writes one uint32 to the heap.
func (g *Graph) StoreU32(p *engine.Proc, off uint64, v uint32) {
	b := g.bufs.Borrow(4)
	binary.LittleEndian.PutUint32(b, v)
	g.H.Store(p, off, b)
	g.bufs.GiveBack(b)
}

// LoadU64 reads one uint64 from the heap.
func (g *Graph) LoadU64(p *engine.Proc, off uint64) uint64 {
	b := g.bufs.Borrow(8)
	g.H.Load(p, off, b)
	v := binary.LittleEndian.Uint64(b)
	g.bufs.GiveBack(b)
	return v
}

// StoreU64 writes one uint64 to the heap.
func (g *Graph) StoreU64(p *engine.Proc, off uint64, v uint64) {
	b := g.bufs.Borrow(8)
	binary.LittleEndian.PutUint64(b, v)
	g.H.Store(p, off, b)
	g.bufs.GiveBack(b)
}

// VertexSubset is a Ligra frontier: sparse (vertex list) or dense (bitmap).
type VertexSubset struct {
	n      uint32
	sparse []uint32
	dense  []uint64
	count  uint64
}

// NewSparseSubset builds a sparse frontier.
func NewSparseSubset(n uint32, vs []uint32) *VertexSubset {
	return &VertexSubset{n: n, sparse: vs, count: uint64(len(vs))}
}

// Len returns the frontier size.
func (s *VertexSubset) Len() uint64 { return s.count }

// Has reports membership (dense O(1); sparse only valid after toDense).
func (s *VertexSubset) Has(v uint32) bool {
	if s.dense != nil {
		return s.dense[v/64]&(1<<(v%64)) != 0
	}
	for _, x := range s.sparse {
		if x == v {
			return true
		}
	}
	return false
}

// toDense converts to a bitmap.
func (s *VertexSubset) toDense() {
	if s.dense != nil {
		return
	}
	s.dense = make([]uint64, (s.n+63)/64)
	for _, v := range s.sparse {
		s.dense[v/64] |= 1 << (v % 64)
	}
}
