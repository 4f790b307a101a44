// Package graph implements a Ligra-like shared-memory graph processing
// framework (Shun & Blelloch, PPoPP '13) as used in the paper's §6.2:
// CSR graphs, frontier-based EdgeMap with Ligra's sparse/dense direction
// switching, and BFS. The twist the paper evaluates: all large allocations
// (the graph and per-vertex state) go through a heap allocator that can be
// backed by a memory-mapped file on a fast storage device, extending the
// application's address space beyond DRAM with no other code changes.
package graph

import (
	"fmt"

	"aquila/internal/iface"
	"aquila/internal/sim/engine"
)

// Heap is the allocation target for graph data: either DRAM (the paper's
// "DRAM-only" malloc baseline) or a memory-mapped file over pmem/NVMe.
type Heap interface {
	// Alloc reserves n bytes and returns their heap offset.
	Alloc(n uint64) uint64
	// Load copies heap bytes [off, off+len(buf)) into buf.
	Load(p *engine.Proc, off uint64, buf []byte)
	// Store copies buf into the heap at off.
	Store(p *engine.Proc, off uint64, buf []byte)
	// Size returns the heap capacity.
	Size() uint64
}

// MappedHeap is a bump allocator over a memory mapping — the converted
// malloc of §5 ("we convert all malloc/free calls of Ligra to allocate space
// over a memory-mapped file").
type MappedHeap struct {
	M    iface.Mapping
	next uint64
}

// NewMappedHeap wraps a mapping as a heap.
func NewMappedHeap(m iface.Mapping) *MappedHeap { return &MappedHeap{M: m} }

// Alloc implements Heap (64-byte aligned bump allocation).
func (h *MappedHeap) Alloc(n uint64) uint64 {
	off := h.next
	h.next += (n + 63) &^ 63
	if h.next > h.M.Size() {
		panic(fmt.Sprintf("graph: mapped heap exhausted (%d > %d)", h.next, h.M.Size()))
	}
	return off
}

// Load implements Heap.
func (h *MappedHeap) Load(p *engine.Proc, off uint64, buf []byte) { h.M.Load(p, off, buf) }

// Store implements Heap.
func (h *MappedHeap) Store(p *engine.Proc, off uint64, buf []byte) { h.M.Store(p, off, buf) }

// Size implements Heap.
func (h *MappedHeap) Size() uint64 { return h.M.Size() }

// MemHeap is the DRAM-only baseline: a plain in-memory heap whose accesses
// cost only the data movement (no faults, no cache management).
type MemHeap struct {
	data []byte
	next uint64
}

// NewMemHeap allocates an in-memory heap.
func NewMemHeap(capacity uint64) *MemHeap {
	return &MemHeap{data: make([]byte, capacity)}
}

// Alloc implements Heap.
func (h *MemHeap) Alloc(n uint64) uint64 {
	off := h.next
	h.next += (n + 63) &^ 63
	if h.next > uint64(len(h.data)) {
		panic("graph: mem heap exhausted")
	}
	return off
}

// Load implements Heap.
func (h *MemHeap) Load(p *engine.Proc, off uint64, buf []byte) {
	copy(buf, h.data[off:])
	p.AdvanceUser(uint64(len(buf))/16 + 2)
}

// Store implements Heap.
func (h *MemHeap) Store(p *engine.Proc, off uint64, buf []byte) {
	copy(h.data[off:], buf)
	p.AdvanceUser(uint64(len(buf))/16 + 2)
}

// Size implements Heap.
func (h *MemHeap) Size() uint64 { return uint64(len(h.data)) }
