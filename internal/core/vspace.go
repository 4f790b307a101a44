package core

import (
	"aquila/internal/iface"
	"aquila/internal/sim/pagetable"
)

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
	// moving is the start of the range a growing Mremap is moving the
	// region's PTEs to, 0 when none is: the move yields between PTEs, and a
	// page's PTE is at its old or its new address meanwhile.
	moving uint64
}

// Pages returns the number of pages the region covers.
func (r *Region) Pages() uint64 { return (r.End - r.Start) / pageSize }

// Bounds is the region's address range (detutil.Ranged). The address space
// (Runtime.vs) is a detutil.RangeSet of regions: the model's structure is the
// RadixVM-style radix tree of §3.4 — lock-free lookups, per-entry locking, an
// update a few node visits — and fault, wpFault, Mmap, Mremap and munmapRegion
// charge it as that (costRadixLookup, costEntryLock) where they use it.
func (r *Region) Bounds() (start, end uint64) { return r.Start, r.End }

// vaBuf holds one page's PTE addresses on the walker's stack (appendVAs into
// vaBuf[:0]), taken before a loop over them charges: a charge yields, and the
// regions may change meanwhile. More, as a misfit unit's aliases, spill.
type vaBuf [4]uint64

// appendVAs appends to dst the virtual addresses whose PTEs map pg, found as
// Linux finds a file page's through i_mmap: in each of its file's regions, in
// creation order, that covers the page's index, the page's address there,
// where the PTE maps the page's frame. A 2 MB unit's is its 2 MB entry, or
// else its 4 KB aliases (a region too small for the unit, or grown past it
// since). A region a growing Mremap is moving is looked at in both ranges.
// Finding them costs no simulated time: each is charged where it is acted on.
func (rt *Runtime) appendVAs(dst []uint64, pg *Page) []uint64 {
	for _, r := range pg.file.regions {
		dst = rt.appendRegionVAs(dst, pg, r.Start, r.Pages())
		if r.moving != 0 {
			dst = rt.appendRegionVAs(dst, pg, r.moving, r.Pages())
		}
	}
	return dst
}

// appendRegionVAs is appendVAs over one range of n pages based at start.
func (rt *Runtime) appendRegionVAs(dst []uint64, pg *Page, start, n uint64) []uint64 {
	if pg.idx >= n {
		return dst
	}
	va := start + pg.idx*pageSize
	if e, ok := rt.PT.Lookup(va); ok && e.Frame == pg.frame.ID && (e.PageSize == pagetable.Size2M) == pg.huge {
		return append(dst, va)
	}
	for i := uint64(0); pg.huge && i < min(hugePages, n-pg.idx); i++ {
		va := start + (pg.idx+i)*pageSize
		if e, ok := rt.PT.Lookup(va); ok && e.PageSize == pagetable.Size4K && e.Frame == pg.frame.BlockFrame(int(i)).ID {
			dst = append(dst, va)
		}
	}
	return dst
}
