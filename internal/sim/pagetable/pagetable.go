// Package pagetable implements an x86-64-style 4-level radix page table used
// both for guest virtual -> guest physical translation (the table Aquila
// manages in non-root ring 0) and, with large pages, for the EPT
// (guest physical -> host physical) managed by the hypervisor.
//
// Virtual addresses are decomposed into four 9-bit indices plus a 12-bit
// offset, exactly as the hardware does. Huge mappings are supported at
// level 3 (1 GB) and level 2 (2 MB).
//
// A table page is the hardware's: 512 packed 8-byte PTEs, the frame number
// from bit 12 and the flags in the low byte. The size a PTE maps follows
// from its level. A page above the last level also holds a pointer per slot
// to its child page; a present huge PTE shadows a child left under it.
// Table pages are allocated as mappings need them and taken off the tree
// only by Release, as Linux's munmap frees emptied tables (free_pgtables); an
// emptied page waits on its level's spare list in the table for the next Map
// that needs one.
package pagetable

import "fmt"

// Page sizes supported by the table.
const (
	Size4K = 1 << 12
	Size2M = 1 << 21
	Size1G = 1 << 30
)

// Flags is the per-entry permission/state bit set.
type Flags uint8

// Entry flag bits.
const (
	FlagPresent Flags = 1 << iota
	FlagWritable
	FlagDirty
	FlagAccessed
	FlagUser
)

// Has reports whether all bits in q are set.
func (f Flags) Has(q Flags) bool { return f&q == q }

// Entry is a leaf translation.
type Entry struct {
	Frame    uint64 // physical frame number (target >> 12)
	Flags    Flags
	PageSize uint64 // Size4K, Size2M or Size1G
}

// Present reports whether the entry maps something.
func (e Entry) Present() bool { return e.Flags.Has(FlagPresent) }

const (
	present  = uint64(FlagPresent)
	maxFrame = 1 << 52 // frame << 12 must fit a PTE
)

// page is a table page of the last level (4 KB PTEs), and the PTE half of
// every page above it.
type page struct {
	pte  [512]uint64
	live int // present PTEs plus child pages
}

// dir is a table page above the last level, whose children are Cs.
type dir[C any] struct {
	page
	kids [512]*C
}

type (
	pd   = dir[page] // 2 MB PTEs
	pdpt = dir[pd]   // 1 GB PTEs
	pml4 = dir[pdpt] // the root: maps nothing itself
)

// Table is a 4-level page table.
type Table struct {
	root   pml4
	asid   uint32
	mapped uint64 // number of present leaf entries
	pages  int    // table pages, the root included
	// The spare lists hold the pages Release took off the tree, one list per
	// level below the root, each page's PTEs zero and its child pointers nil,
	// for the next Map that needs one: never more than the table once held.
	spareLeaf []*page
	sparePD   []*pd
	sparePDPT []*pdpt
}

// New creates an empty table with the given address-space id.
func New(asid uint32) *Table {
	return &Table{asid: asid, pages: 1}
}

// ASID returns the address-space id used to tag TLB entries.
func (t *Table) ASID() uint32 { return t.asid }

// Mapped returns the number of present leaf entries.
func (t *Table) Mapped() uint64 { return t.mapped }

// Pages returns the number of table pages the table holds, the root
// included; spare pages are not held.
func (t *Table) Pages() int { return t.pages }

// Lookup walks the table for va. It returns the leaf entry and true when a
// present mapping covers va (at any page size).
func (t *Table) Lookup(va uint64) (Entry, bool) {
	pg, i, size := t.find(va)
	if pg == nil {
		return Entry{}, false
	}
	p := pg.pte[i]
	return Entry{Frame: p >> 12, Flags: Flags(p), PageSize: size}, true
}

// find returns the table page and slot of the present PTE covering va and
// the size it maps, or a nil page.
func (t *Table) find(va uint64) (*page, uint64, uint64) {
	d1 := t.root.kids[va>>39&511]
	if d1 == nil {
		return nil, 0, 0
	}
	i := va >> 30 & 511
	if d1.pte[i]&present != 0 {
		return &d1.page, i, Size1G
	}
	d2 := d1.kids[i]
	if d2 == nil {
		return nil, 0, 0
	}
	i = va >> 21 & 511
	if d2.pte[i]&present != 0 {
		return &d2.page, i, Size2M
	}
	pg := d2.kids[i]
	if pg == nil {
		return nil, 0, 0
	}
	i = va >> 12 & 511
	if pg.pte[i]&present != 0 {
		return pg, i, Size4K
	}
	return nil, 0, 0
}

// child returns d's child page in slot i. When there is none it takes one
// from spare, the spare list of the child's level, and allocates one only
// when that list is empty.
func child[C any](t *Table, d *dir[C], i uint64, spare *[]*C) *C {
	c := d.kids[i]
	if c == nil {
		if n := len(*spare) - 1; n >= 0 {
			c = (*spare)[n]
			*spare = (*spare)[:n]
		} else {
			c = new(C)
		}
		d.kids[i] = c
		d.live++
		t.pages++
	}
	return c
}

// Map installs a translation of the given page size for the page containing
// va. va must be size-aligned. Remapping an existing entry overwrites it.
func (t *Table) Map(va uint64, frame uint64, flags Flags, pageSize uint64) {
	if va%pageSize != 0 {
		panic(fmt.Sprintf("pagetable: unaligned map va=%#x size=%d", va, pageSize))
	}
	if pageSize != Size4K && pageSize != Size2M && pageSize != Size1G {
		panic(fmt.Sprintf("pagetable: bad page size %d", pageSize))
	}
	if frame >= maxFrame {
		panic(fmt.Sprintf("pagetable: frame %#x past the PTE's frame field", frame))
	}
	d1 := child(t, &t.root, va>>39&511, &t.sparePDPT)
	pg, i := &d1.page, va>>30&511
	if pageSize < Size1G {
		d2 := child(t, d1, i, &t.sparePD)
		pg, i = &d2.page, va>>21&511
		if pageSize < Size2M {
			pg, i = child(t, d2, i, &t.spareLeaf), va>>12&511
		}
	}
	if pg.pte[i]&present == 0 {
		pg.live++
		t.mapped++
	}
	pg.pte[i] = frame<<12 | uint64(flags|FlagPresent)
}

// Unmap removes the translation covering va. It reports whether a present
// mapping was removed. The table page that held it stays, even when empty:
// only Release frees table pages.
func (t *Table) Unmap(va uint64) bool {
	pg, i, _ := t.find(va)
	if pg == nil {
		return false
	}
	t.clear(pg, i)
	return true
}

func (t *Table) clear(pg *page, i uint64) {
	pg.pte[i] = 0
	pg.live--
	t.mapped--
}

// Protect rewrites the flags of the present mapping covering va, preserving
// the frame. It reports whether a mapping was found.
func (t *Table) Protect(va uint64, flags Flags) bool {
	pg, i, _ := t.find(va)
	if pg == nil {
		return false
	}
	pg.pte[i] = pg.pte[i]&^0xff | uint64(flags|FlagPresent)
	return true
}

// UnmapRange removes all mappings in [va, va+length). Huge mappings fully
// inside the range are removed whole; a huge mapping that only partially
// overlaps the range is split — the entry is removed and the surviving pieces
// outside the range are re-mapped as 4 KB entries with the same flags and the
// corresponding base frames. It ends by releasing the range's emptied table
// pages. Returns the number of mappings removed (a split counts as one
// removal).
func (t *Table) UnmapRange(va, length uint64) int {
	removed := 0
	end := va + length
	for cur := va; cur < end; {
		pg, i, size := t.find(cur)
		if pg == nil {
			cur += Size4K
			continue
		}
		p := pg.pte[i]
		t.clear(pg, i)
		removed++
		base := cur &^ (size - 1)
		entryEnd := base + size
		if size > Size4K && (base < va || entryEnd > end) {
			// Partial overlap: keep the pieces that survive as 4 KB
			// mappings.
			for q := base; q < entryEnd; q += Size4K {
				if q >= va && q < end {
					continue
				}
				t.Map(q, p>>12+(q-base)>>12, Flags(p), Size4K)
			}
		}
		cur = entryEnd
	}
	t.Release(va, end)
	return removed
}

// Release takes every table page under [lo, hi) that maps nothing — no
// present PTE and no child page — off the tree, onto its level's spare list.
// The root is never taken. Release charges nothing; a range unmap calls it
// once its PTEs are gone, while the per-page Unmap of reclaim leaves table
// pages in place for the refault.
func (t *Table) Release(lo, hi uint64) {
	if lo >= hi {
		return
	}
	last := hi - 1
	release(t, &t.root, 0, 39, lo, last, &t.sparePDPT, func(d1 *pdpt, b1 uint64) bool {
		return release(t, d1, b1, 30, lo, last, &t.sparePD, func(d2 *pd, b2 uint64) bool {
			return release(t, d2, b2, 21, lo, last, &t.spareLeaf, func(pg *page, _ uint64) bool { return pg.live == 0 })
		})
	})
}

// release visits the children of d, a page starting at base whose slots
// each cover 1<<shift bytes, that [lo, last] touches. It moves each child
// that sub, after releasing under it, reports empty to spare, and reports
// whether d is empty afterwards.
func release[C any](t *Table, d *dir[C], base uint64, shift uint, lo, last uint64, spare *[]*C, sub func(*C, uint64) bool) bool {
	first, end := uint64(0), uint64(511)
	if lo > base {
		first = (lo - base) >> shift
	}
	if last-base < 512<<shift {
		end = (last - base) >> shift
	}
	for i := first; i <= end; i++ {
		if c := d.kids[i&511]; c != nil && sub(c, base+i<<shift) {
			*spare = append(*spare, c)
			d.kids[i&511] = nil
			d.live--
			t.pages--
		}
	}
	return d.live == 0
}
