package graph

import (
	"encoding/binary"
	"slices"

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

// Degree returns a vertex's out-degree (two offset loads through the heap).
func (g *Graph) Degree(p *engine.Proc, v uint32) uint64 {
	var b [16]byte
	g.H.Load(p, g.offsetsOff+uint64(v)*8, b[:])
	lo := binary.LittleEndian.Uint64(b[0:])
	hi := binary.LittleEndian.Uint64(b[8:])
	return hi - lo
}

// Neighbors loads a vertex's adjacency list through the heap in one access
// run (the loads Ligra's edgeMap issues).
func (g *Graph) Neighbors(p *engine.Proc, v uint32, scratch []uint32) []uint32 {
	var b [16]byte
	g.H.Load(p, g.offsetsOff+uint64(v)*8, b[:])
	lo := binary.LittleEndian.Uint64(b[0:])
	hi := binary.LittleEndian.Uint64(b[8:])
	deg := hi - lo
	if deg == 0 {
		return scratch[:0]
	}
	if uint64(cap(scratch)) < deg {
		scratch = make([]uint32, deg)
	}
	scratch = scratch[:deg]
	buf := make([]byte, deg*4)
	g.H.Load(p, g.edgesOff+lo*4, buf)
	for i := range scratch {
		scratch[i] = binary.LittleEndian.Uint32(buf[i*4:])
	}
	return scratch
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
