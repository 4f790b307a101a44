package pagetable

// refTable is the reference model the table is held to: one map per page
// size from a mapping's base to its entry, with no table pages at all. A
// va's translation is the first of its 1 GB, 2 MB and 4 KB bases that maps
// something, which is the table's walk order: a huge entry shadows whatever
// smaller mappings were left under it.
type refTable [3]map[uint64]Entry

var refSizes = [3]uint64{Size1G, Size2M, Size4K}

func newRefTable() *refTable {
	return &refTable{{}, {}, {}}
}

// find returns the size class and base of the mapping covering va.
func (r *refTable) find(va uint64) (int, uint64, bool) {
	for k, size := range refSizes {
		base := va &^ (size - 1)
		if _, ok := r[k][base]; ok {
			return k, base, true
		}
	}
	return 0, 0, false
}

func (r *refTable) Lookup(va uint64) (Entry, bool) {
	k, base, ok := r.find(va)
	if !ok {
		return Entry{}, false
	}
	return r[k][base], true
}

func (r *refTable) Map(va, frame uint64, flags Flags, size uint64) {
	for k, s := range refSizes {
		if s == size {
			r[k][va] = Entry{Frame: frame, Flags: flags | FlagPresent, PageSize: size}
		}
	}
}

func (r *refTable) Unmap(va uint64) bool {
	k, base, ok := r.find(va)
	if ok {
		delete(r[k], base)
	}
	return ok
}

func (r *refTable) Protect(va uint64, flags Flags) bool {
	k, base, ok := r.find(va)
	if ok {
		e := r[k][base]
		e.Flags = flags | FlagPresent
		r[k][base] = e
	}
	return ok
}

// UnmapRange is the table's rule stated over the maps: walk [va, va+length)
// by the covering mapping, drop each, and map the parts of a partly covered
// huge mapping that lie outside the range again as 4 KB pages.
func (r *refTable) UnmapRange(va, length uint64) int {
	removed := 0
	end := va + length
	for cur := va; cur < end; {
		k, base, ok := r.find(cur)
		if !ok {
			cur += Size4K
			continue
		}
		e := r[k][base]
		delete(r[k], base)
		removed++
		entryEnd := base + e.PageSize
		if e.PageSize > Size4K && (base < va || entryEnd > end) {
			for q := base; q < entryEnd; q += Size4K {
				if q < va || q >= end {
					r.Map(q, e.Frame+(q-base)/Size4K, e.Flags, Size4K)
				}
			}
		}
		cur = entryEnd
	}
	return removed
}

func (r *refTable) Mapped() uint64 {
	return uint64(len(r[0]) + len(r[1]) + len(r[2]))
}

// Pages is the number of table pages a fresh table holding r's mappings
// needs: the root, and one page per 512 GB, 1 GB and 2 MB span that holds a
// mapping below that level.
func (r *refTable) Pages() int {
	spans := [3]map[uint64]bool{{}, {}, {}} // by level: 512 GB, 1 GB, 2 MB
	for k := range r {
		for base := range r[k] {
			spans[k][base>>(39-9*k)] = true
		}
	}
	for k := 2; k > 0; k-- {
		for s := range spans[k] {
			spans[k-1][s>>9] = true
		}
	}
	return 1 + len(spans[0]) + len(spans[1]) + len(spans[2])
}
