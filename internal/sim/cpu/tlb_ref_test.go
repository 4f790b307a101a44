package cpu

// refTLB is the TLB as it was before the flat table: two Go maps as the sets,
// rebuilt on every flush. It is the reference model the differential test
// holds TLB to — the goldens were all generated on it — and is kept verbatim,
// quirks included (FlushAll leaves an empty 2 MB side's ring alone).
type refTLB struct {
	capacity int
	entries  map[tlbKey]struct{}
	order    []tlbKey
	next     int

	capacity2M int
	entries2M  map[tlbKey]struct{}
	order2M    []tlbKey
	next2M     int

	hits    uint64
	misses  uint64
	flushes uint64
}

func newRefTLB(capacity int) *refTLB {
	if capacity <= 0 {
		capacity = 1536
	}
	return &refTLB{
		capacity:   capacity,
		entries:    make(map[tlbKey]struct{}, capacity),
		order:      make([]tlbKey, 0, capacity),
		capacity2M: Default2MEntries,
		entries2M:  make(map[tlbKey]struct{}, Default2MEntries),
	}
}

func (t *refTLB) SetCapacity2M(n int) {
	if n <= 0 {
		n = Default2MEntries
	}
	t.capacity2M = n
	t.entries2M = make(map[tlbKey]struct{}, n)
	t.order2M = t.order2M[:0]
	t.next2M = 0
}

func (t *refTLB) Lookup(asid uint32, vpn uint64) bool {
	if _, ok := t.entries[tlbKey{asid, vpn}]; ok {
		t.hits++
		return true
	}
	t.misses++
	return false
}

func (t *refTLB) Insert(asid uint32, vpn uint64) {
	k := tlbKey{asid, vpn}
	if _, ok := t.entries[k]; ok {
		return
	}
	if len(t.entries) >= t.capacity {
		for {
			victim := t.order[t.next%len(t.order)]
			t.next++
			if _, ok := t.entries[victim]; ok {
				delete(t.entries, victim)
				break
			}
		}
	}
	t.entries[k] = struct{}{}
	t.order = append(t.order, k)
	if len(t.order) > 4*t.capacity {
		live := t.order[:0]
		for _, k := range t.order {
			if _, ok := t.entries[k]; ok {
				live = append(live, k)
			}
		}
		t.order = live
		t.next = 0
	}
}

func (t *refTLB) LookupVA(asid uint32, va uint64) bool {
	if _, ok := t.entries[tlbKey{asid, va >> 12}]; ok {
		t.hits++
		return true
	}
	if len(t.entries2M) > 0 {
		if _, ok := t.entries2M[tlbKey{asid, va >> 21}]; ok {
			t.hits++
			return true
		}
	}
	t.misses++
	return false
}

func (t *refTLB) Insert2M(asid uint32, vpn2m uint64) {
	k := tlbKey{asid, vpn2m}
	if _, ok := t.entries2M[k]; ok {
		return
	}
	if len(t.entries2M) >= t.capacity2M {
		for {
			victim := t.order2M[t.next2M%len(t.order2M)]
			t.next2M++
			if _, ok := t.entries2M[victim]; ok {
				delete(t.entries2M, victim)
				break
			}
		}
	}
	t.entries2M[k] = struct{}{}
	t.order2M = append(t.order2M, k)
	if len(t.order2M) > 4*t.capacity2M {
		live := t.order2M[:0]
		for _, k := range t.order2M {
			if _, ok := t.entries2M[k]; ok {
				live = append(live, k)
			}
		}
		t.order2M = live
		t.next2M = 0
	}
}

func (t *refTLB) InvalidatePage(asid uint32, vpn uint64) {
	delete(t.entries, tlbKey{asid, vpn})
}

func (t *refTLB) Invalidate2M(asid uint32, vpn2m uint64) {
	delete(t.entries2M, tlbKey{asid, vpn2m})
}

func (t *refTLB) FlushAll() {
	t.entries = make(map[tlbKey]struct{}, t.capacity)
	t.order = t.order[:0]
	t.next = 0
	if len(t.entries2M) > 0 {
		t.entries2M = make(map[tlbKey]struct{}, t.capacity2M)
		t.order2M = t.order2M[:0]
		t.next2M = 0
	}
	t.flushes++
}

func (t *refTLB) Stats() (hits, misses, flushes uint64) {
	return t.hits, t.misses, t.flushes
}

func (t *refTLB) Len() int   { return len(t.entries) }
func (t *refTLB) Len2M() int { return len(t.entries2M) }
