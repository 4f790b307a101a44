package graph

import (
	"encoding/binary"
	"slices"

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
}

// Build constructs a CSR graph in the heap from an edge list (counting sort
// by source). The build phase models the load step of §6.2 and writes
// through the heap (Store), so it also exercises the write path.
func Build(p *engine.Proc, h Heap, n uint32, edges [][2]uint32) *Graph {
	m := uint64(len(edges))
	g := &Graph{H: h, N: n, M: m}
	g.offsetsOff = h.Alloc((uint64(n) + 1) * 8)
	g.edgesOff = h.Alloc(m * 4)

	// Counting sort by source vertex (in Go memory, then bulk-stored).
	counts := make([]uint64, n+1)
	for _, e := range edges {
		counts[e[0]+1]++
	}
	for i := uint32(1); i <= n; i++ {
		counts[i] += counts[i-1]
	}
	offBytes := make([]byte, (uint64(n)+1)*8)
	for i := uint64(0); i <= uint64(n); i++ {
		binary.LittleEndian.PutUint64(offBytes[i*8:], counts[i])
	}
	sorted := make([]uint32, m)
	cursor := make([]uint64, n)
	copy(cursor, counts[:n])
	for _, e := range edges {
		sorted[cursor[e[0]]] = e[1]
		cursor[e[0]]++
	}
	// Sort each adjacency list for deterministic traversal order.
	for v := uint32(0); v < n; v++ {
		slices.Sort(sorted[counts[v]:counts[v+1]])
	}
	edgeBytes := make([]byte, m*4)
	for i, v := range sorted {
		binary.LittleEndian.PutUint32(edgeBytes[i*4:], v)
	}
	// Bulk store (1 MB chunks): the sequential write pattern of loading.
	const chunk = 1 << 20
	for off := 0; off < len(offBytes); off += chunk {
		end := off + chunk
		if end > len(offBytes) {
			end = len(offBytes)
		}
		h.Store(p, g.offsetsOff+uint64(off), offBytes[off:end])
	}
	for off := 0; off < len(edgeBytes); off += chunk {
		end := off + chunk
		if end > len(edgeBytes) {
			end = len(edgeBytes)
		}
		h.Store(p, g.edgesOff+uint64(off), edgeBytes[off:end])
	}
	return g
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
