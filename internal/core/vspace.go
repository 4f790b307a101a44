package core

import "aquila/internal/iface"

// Region is one mapped virtual address range: Aquila's analogue of a VMA.
type Region struct {
	Start, End uint64 // page-aligned VA range
	File       *fileState
	Advice     iface.Advice
	// ReadOnly blocks stores (mprotect(PROT_READ), §4.4).
	ReadOnly bool
	// HugeHint marks the region MADV_HUGEPAGE'd: with huge pages enabled,
	// extents promote on first fault and dirtying stores re-dirty the whole
	// unit instead of splitting it.
	HugeHint bool
}

// Pages returns the number of pages the region covers.
func (r *Region) Pages() uint64 { return (r.End - r.Start) / pageSize }

// Bounds is the region's address range (detutil.Ranged). The address space
// (Runtime.vs) is a detutil.RangeSet of regions: the model's structure is the
// RadixVM-style radix tree of §3.4 — lock-free lookups, per-entry locking, an
// update a few node visits — and fault, wpFault, Mmap, Mremap and munmapRegion
// charge it as that (costRadixLookup, costEntryLock) where they use it.
func (r *Region) Bounds() (start, end uint64) { return r.Start, r.End }
