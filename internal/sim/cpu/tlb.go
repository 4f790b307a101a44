package cpu

import "math/rand"

// tlbKey identifies a cached translation: address-space id + virtual page
// number.
type tlbKey struct {
	asid uint32
	vpn  uint64
}

// Default2MEntries is the default 2 MB-entry capacity: the dedicated huge-page
// DTLB array of the testbed generation (Haswell: 32 entries).
const Default2MEntries = 32

// TLB is one CPU's translation lookaside buffer, modeled as a fixed-capacity
// set with deterministic pseudo-random replacement. Only the presence of a
// translation is tracked; the actual translation lives in the page table.
//
// 4 KB and 2 MB translations live in split arrays, as on real hardware: a
// huge mapping consumes one 2 MB entry (and one shootdown slot) instead of
// 512 base entries. The 2 MB side is keyed by va>>21.
type TLB struct {
	capacity int
	entries  map[tlbKey]struct{}
	order    []tlbKey // insertion ring for replacement
	next     int
	rng      *rand.Rand

	capacity2M int
	entries2M  map[tlbKey]struct{}
	order2M    []tlbKey
	next2M     int

	hits    uint64
	misses  uint64
	flushes uint64
}

// NewTLB creates a TLB with the given 4 KB-entry capacity and the default
// 2 MB-entry capacity.
func NewTLB(capacity int, seed int64) *TLB {
	if capacity <= 0 {
		capacity = 1536 // L2 STLB size of the testbed generation
	}
	return &TLB{
		capacity:   capacity,
		entries:    make(map[tlbKey]struct{}, capacity),
		order:      make([]tlbKey, 0, capacity),
		rng:        rand.New(rand.NewSource(seed)),
		capacity2M: Default2MEntries,
		entries2M:  make(map[tlbKey]struct{}, Default2MEntries),
	}
}

// SetCapacity2M overrides the 2 MB-entry capacity (flushing the 2 MB side).
func (t *TLB) SetCapacity2M(n int) {
	if n <= 0 {
		n = Default2MEntries
	}
	t.capacity2M = n
	t.entries2M = make(map[tlbKey]struct{}, n)
	t.order2M = t.order2M[:0]
	t.next2M = 0
}

// Lookup reports whether (asid, vpn) is cached, updating hit/miss counters.
func (t *TLB) Lookup(asid uint32, vpn uint64) bool {
	if _, ok := t.entries[tlbKey{asid, vpn}]; ok {
		t.hits++
		return true
	}
	t.misses++
	return false
}

// Insert caches a translation, evicting a pseudo-random victim when full.
func (t *TLB) Insert(asid uint32, vpn uint64) {
	k := tlbKey{asid, vpn}
	if _, ok := t.entries[k]; ok {
		return
	}
	if len(t.entries) >= t.capacity {
		// Evict a pseudo-random resident entry (clock-ish).
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
		t.compactOrder()
	}
}

func (t *TLB) compactOrder() {
	live := t.order[:0]
	for _, k := range t.order {
		if _, ok := t.entries[k]; ok {
			live = append(live, k)
		}
	}
	t.order = live
	t.next = 0
}

// LookupVA reports whether a translation covering va is cached at either page
// size, updating hit/miss counters once. With no 2 MB entries resident it
// behaves exactly like Lookup(asid, va>>12).
func (t *TLB) LookupVA(asid uint32, va uint64) bool {
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

// Insert2M caches a 2 MB translation (vpn2m = va>>21), evicting a
// pseudo-random resident 2 MB entry when that side is full.
func (t *TLB) Insert2M(asid uint32, vpn2m uint64) {
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

// InvalidatePage drops one translation (invlpg).
func (t *TLB) InvalidatePage(asid uint32, vpn uint64) {
	delete(t.entries, tlbKey{asid, vpn})
}

// Invalidate2M drops one 2 MB translation (one invlpg covers the whole
// mapping — this is the single shootdown slot a huge page costs).
func (t *TLB) Invalidate2M(asid uint32, vpn2m uint64) {
	delete(t.entries2M, tlbKey{asid, vpn2m})
}

// FlushAll empties the TLB, both page sizes.
func (t *TLB) FlushAll() {
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

// Stats returns (hits, misses, flushes).
func (t *TLB) Stats() (hits, misses, flushes uint64) {
	return t.hits, t.misses, t.flushes
}

// Len returns the number of resident 4 KB translations.
func (t *TLB) Len() int { return len(t.entries) }

// Len2M returns the number of resident 2 MB translations.
func (t *TLB) Len2M() int { return len(t.entries2M) }

// TLBSet is the per-CPU TLB array of a simulated machine.
type TLBSet struct {
	tlbs []*TLB
}

// NewTLBSet builds one TLB per CPU.
func NewTLBSet(numCPUs, capacity int, seed int64) *TLBSet {
	s := &TLBSet{}
	for i := 0; i < numCPUs; i++ {
		s.tlbs = append(s.tlbs, NewTLB(capacity, seed+int64(i)))
	}
	return s
}

// CPU returns the TLB of the given CPU.
func (s *TLBSet) CPU(i int) *TLB { return s.tlbs[i] }

// Len returns the number of TLBs.
func (s *TLBSet) Len() int { return len(s.tlbs) }

// InvalidatePageAll drops a translation from every TLB (used by shootdowns
// after the IPI cost has been modeled by the caller).
func (s *TLBSet) InvalidatePageAll(asid uint32, vpn uint64) {
	for _, t := range s.tlbs {
		t.InvalidatePage(asid, vpn)
	}
}

// Invalidate2MAll drops a 2 MB translation from every TLB.
func (s *TLBSet) Invalidate2MAll(asid uint32, vpn2m uint64) {
	for _, t := range s.tlbs {
		t.Invalidate2M(asid, vpn2m)
	}
}
