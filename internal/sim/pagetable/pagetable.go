// Package pagetable implements an x86-64-style 4-level radix page table used
// both for guest virtual -> guest physical translation (the table Aquila
// manages in non-root ring 0) and, with large pages, for the EPT
// (guest physical -> host physical) managed by the hypervisor.
//
// Virtual addresses are decomposed into four 9-bit indices plus a 12-bit
// offset, exactly as the hardware does. Huge mappings are supported at
// level 3 (1 GB) and level 2 (2 MB).
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

type node struct {
	// children for interior levels; nil slots are non-present.
	children [512]*node
	// leaves for the level at which mapping happened, held by value like the
	// hardware's PTE array: a slot that was never mapped is a non-present
	// Entry, and mapping one allocates nothing.
	leaves [512]Entry
}

// Table is a 4-level page table.
type Table struct {
	root    *node
	asid    uint32
	mapped  uint64 // number of present leaf entries
	walkLen int    // levels touched by the last Lookup (cost hook)
}

// New creates an empty table with the given address-space id.
func New(asid uint32) *Table {
	return &Table{root: &node{}, asid: asid}
}

// ASID returns the address-space id used to tag TLB entries.
func (t *Table) ASID() uint32 { return t.asid }

// Mapped returns the number of present leaf entries.
func (t *Table) Mapped() uint64 { return t.mapped }

// LastWalkLevels returns the number of levels the last Lookup touched.
func (t *Table) LastWalkLevels() int { return t.walkLen }

// indices decomposes a virtual address into the four 9-bit level indices,
// from level 4 (root) down to level 1.
func indices(va uint64) [4]int {
	return [4]int{
		int(va >> 39 & 0x1ff),
		int(va >> 30 & 0x1ff),
		int(va >> 21 & 0x1ff),
		int(va >> 12 & 0x1ff),
	}
}

// Lookup walks the table for va. It returns the leaf entry and true when a
// present mapping covers va (at any page size).
func (t *Table) Lookup(va uint64) (Entry, bool) {
	idx := indices(va)
	n := t.root
	t.walkLen = 0
	for d := 0; d < 4; d++ {
		t.walkLen++
		if e := &n.leaves[idx[d]]; e.Present() {
			return *e, true
		}
		child := n.children[idx[d]]
		if child == nil {
			return Entry{}, false
		}
		n = child
	}
	return Entry{}, false
}

// lookupRef returns a pointer to the live leaf entry covering va, or nil.
func (t *Table) lookupRef(va uint64) *Entry {
	idx := indices(va)
	n := t.root
	for d := 0; d < 4; d++ {
		if e := &n.leaves[idx[d]]; e.Present() {
			return e
		}
		child := n.children[idx[d]]
		if child == nil {
			return nil
		}
		n = child
	}
	return nil
}

// Map installs a translation of the given page size for the page containing
// va. va must be size-aligned. Remapping an existing entry overwrites it.
func (t *Table) Map(va uint64, frame uint64, flags Flags, pageSize uint64) {
	if va%pageSize != 0 {
		panic(fmt.Sprintf("pagetable: unaligned map va=%#x size=%d", va, pageSize))
	}
	depth := 3
	switch pageSize {
	case Size4K:
		depth = 3
	case Size2M:
		depth = 2
	case Size1G:
		depth = 1
	default:
		panic(fmt.Sprintf("pagetable: bad page size %d", pageSize))
	}
	idx := indices(va)
	n := t.root
	for d := 0; d < depth; d++ {
		child := n.children[idx[d]]
		if child == nil {
			child = &node{}
			n.children[idx[d]] = child
		}
		n = child
	}
	if !n.leaves[idx[depth]].Present() {
		t.mapped++
	}
	n.leaves[idx[depth]] = Entry{Frame: frame, Flags: flags | FlagPresent, PageSize: pageSize}
}

// Unmap removes the translation covering va. It reports whether a present
// mapping was removed.
func (t *Table) Unmap(va uint64) bool {
	e := t.lookupRef(va)
	if e == nil {
		return false
	}
	*e = Entry{}
	t.mapped--
	return true
}

// Protect rewrites the flags of the present mapping covering va, preserving
// the frame. It reports whether a mapping was found.
func (t *Table) Protect(va uint64, flags Flags) bool {
	e := t.lookupRef(va)
	if e == nil {
		return false
	}
	e.Flags = flags | FlagPresent
	return true
}

// UnmapRange removes all mappings in [va, va+length). Huge mappings fully
// inside the range are removed whole; a huge mapping that only partially
// overlaps the range is split — the entry is removed and the surviving pieces
// outside the range are re-mapped as 4 KB entries with the same flags and the
// corresponding base frames. Returns the number of mappings removed (a split
// counts as one removal).
func (t *Table) UnmapRange(va, length uint64) int {
	removed := 0
	end := va + length
	for cur := va; cur < end; {
		e := t.lookupRef(cur)
		if e == nil {
			cur += Size4K
			continue
		}
		size := e.PageSize
		base := cur &^ (size - 1)
		entryEnd := base + size
		if size > Size4K && (base < va || entryEnd > end) {
			// Partial overlap: drop the huge entry, keep the pieces that
			// survive as 4 KB mappings.
			ent := *e
			*e = Entry{}
			t.mapped--
			removed++
			for p := base; p < entryEnd; p += Size4K {
				if p >= va && p < end {
					continue
				}
				t.Map(p, ent.Frame+((p-base)>>12), ent.Flags, Size4K)
			}
			cur = entryEnd
			continue
		}
		*e = Entry{}
		t.mapped--
		removed++
		cur = entryEnd
	}
	return removed
}
