package cpu

// tlbKey identifies a cached translation: address-space id + virtual page
// number.
type tlbKey struct {
	asid uint32
	vpn  uint64
}

// Default2MEntries is the default 2 MB-entry capacity: the dedicated huge-page
// DTLB array of the testbed generation (Haswell: 32 entries).
const Default2MEntries = 32

// tlbSlot is one slot of a tlbTable: a key and the epoch it was stored in.
type tlbSlot struct {
	vpn   uint64
	asid  uint32
	epoch uint32
}

// tlbTable is a set of tlbKeys in a fixed open-addressed table: a power-of-two
// number of slots, at least twice the capacity it is built for (so probe runs
// stay short and always end), linear probing, backward-shift deletion instead
// of tombstones. A slot is occupied only while its epoch equals the table's,
// which makes emptying the table one increment — a full flush costs the same
// as the hardware's, not a rebuild.
type tlbTable struct {
	slots []tlbSlot
	shift uint   // 64 - log2(len(slots)): home takes the hash's top bits
	epoch uint32 // never 0, so a zeroed slot is free
	n     int
}

func newTLBTable(capacity int) tlbTable {
	bits := uint(1)
	for 1<<bits < 2*capacity {
		bits++
	}
	return tlbTable{slots: make([]tlbSlot, 1<<bits), shift: 64 - bits, epoch: 1}
}

// home is the slot a key's probe run starts at (Fibonacci hashing: page
// numbers arrive in strides, the multiplier scatters them).
func (s *tlbTable) home(asid uint32, vpn uint64) int {
	return int((vpn ^ uint64(asid)<<48) * 0x9E3779B97F4A7C15 >> s.shift)
}

// has spells out the probe loop del also has: it must stay small enough to
// inline into Lookup, the path of every simulated load that hits.
func (s *tlbTable) has(k tlbKey) bool {
	mask := len(s.slots) - 1
	for i := s.home(k.asid, k.vpn); ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.epoch != s.epoch {
			return false
		}
		if sl.vpn == k.vpn && sl.asid == k.asid {
			return true
		}
	}
}

// add stores a key the caller knows to be absent.
func (s *tlbTable) add(k tlbKey) {
	mask := len(s.slots) - 1
	i := s.home(k.asid, k.vpn)
	for s.slots[i].epoch == s.epoch {
		i = (i + 1) & mask
	}
	s.slots[i] = tlbSlot{vpn: k.vpn, asid: k.asid, epoch: s.epoch}
	s.n++
}

// del removes k and reports whether it was there. The rest of k's probe run
// shifts back over the hole: a slot moves when its home is not inside the
// span it would jump over, so every key stays reachable from its home.
func (s *tlbTable) del(k tlbKey) bool {
	mask := len(s.slots) - 1
	i := s.home(k.asid, k.vpn)
	for ; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.epoch != s.epoch {
			return false
		}
		if sl.vpn == k.vpn && sl.asid == k.asid {
			break
		}
	}
	for j := (i + 1) & mask; s.slots[j].epoch == s.epoch; j = (j + 1) & mask {
		if h := s.home(s.slots[j].asid, s.slots[j].vpn); (j-h)&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i].epoch = 0
	s.n--
	return true
}

// flush empties the table. Stamps of earlier epochs stay behind in the slots,
// so the one time in 2^32 the counter wraps they are wiped first.
func (s *tlbTable) flush() {
	s.n = 0
	s.epoch++
	if s.epoch == 0 {
		clear(s.slots)
		s.epoch = 1
	}
}

// tlbArray is the translation array of one page size: a set of at most
// capacity keys and the replacement ring that picks its victims. order holds
// every key in insertion order and is deleted from lazily — invalidation
// leaves the key in place, the victim scan skips keys no longer in the set —
// so two things follow that simulated hit/miss sequences (and every golden
// built on them) depend on: a key invalidated and inserted again sits in the
// ring twice and can be chosen at its old position; and once the ring passes
// 4x capacity it is compacted to the resident keys and the scan restarts at
// its head (next = 0), wherever it stood.
type tlbArray struct {
	capacity int
	set      tlbTable
	order    []tlbKey
	next     int
}

func (a *tlbArray) insert(k tlbKey) {
	if a.set.has(k) {
		return
	}
	if a.set.n >= a.capacity {
		for {
			victim := a.order[a.next%len(a.order)]
			a.next++
			if a.set.del(victim) {
				break
			}
		}
	}
	a.set.add(k)
	a.order = append(a.order, k)
	if len(a.order) > 4*a.capacity {
		live := a.order[:0]
		for _, k := range a.order {
			if a.set.has(k) {
				live = append(live, k)
			}
		}
		a.order = live
		a.next = 0
	}
}

func (a *tlbArray) flush() {
	a.set.flush()
	a.order = a.order[:0]
	a.next = 0
}

// TLB is one CPU's translation lookaside buffer, modeled as a fixed-capacity
// set whose victim, when full, is the oldest resident entry of an
// insertion-order ring (see tlbArray; nothing about it is random). Only the
// presence of a translation is tracked; the actual translation lives in the
// page table.
//
// 4 KB and 2 MB translations live in split arrays, as on real hardware: a
// huge mapping consumes one 2 MB entry (and one shootdown slot) instead of
// 512 base entries. The 2 MB side is keyed by va>>21.
type TLB struct {
	base tlbArray
	huge tlbArray

	hits    uint64
	misses  uint64
	flushes uint64
}

// NewTLB creates a TLB with the given 4 KB-entry capacity and the default
// 2 MB-entry capacity. Replacement draws no random numbers; seed is unused
// and stays for the callers that pass one.
func NewTLB(capacity int, seed int64) *TLB {
	if capacity <= 0 {
		capacity = 1536 // L2 STLB size of the testbed generation
	}
	t := &TLB{base: tlbArray{
		capacity: capacity,
		set:      newTLBTable(capacity),
		order:    make([]tlbKey, 0, capacity),
	}}
	t.SetCapacity2M(Default2MEntries)
	return t
}

// SetCapacity2M overrides the 2 MB-entry capacity (flushing the 2 MB side).
func (t *TLB) SetCapacity2M(n int) {
	if n <= 0 {
		n = Default2MEntries
	}
	t.huge = tlbArray{capacity: n, set: newTLBTable(n), order: t.huge.order[:0]}
}

// Lookup reports whether (asid, vpn) is cached, updating hit/miss counters.
func (t *TLB) Lookup(asid uint32, vpn uint64) bool {
	if t.base.set.has(tlbKey{asid, vpn}) {
		t.hits++
		return true
	}
	t.misses++
	return false
}

// Insert caches a translation, evicting the ring's next resident entry when
// full.
func (t *TLB) Insert(asid uint32, vpn uint64) { t.base.insert(tlbKey{asid, vpn}) }

// LookupVA reports whether a translation covering va is cached at either page
// size, updating hit/miss counters once. With no 2 MB entries resident it
// behaves exactly like Lookup(asid, va>>12).
func (t *TLB) LookupVA(asid uint32, va uint64) bool {
	if t.base.set.has(tlbKey{asid, va >> 12}) ||
		t.huge.set.n > 0 && t.huge.set.has(tlbKey{asid, va >> 21}) {
		t.hits++
		return true
	}
	t.misses++
	return false
}

// Insert2M caches a 2 MB translation (vpn2m = va>>21), evicting the 2 MB
// ring's next resident entry when that side is full.
func (t *TLB) Insert2M(asid uint32, vpn2m uint64) { t.huge.insert(tlbKey{asid, vpn2m}) }

// InvalidatePage drops one translation (invlpg).
func (t *TLB) InvalidatePage(asid uint32, vpn uint64) { t.base.set.del(tlbKey{asid, vpn}) }

// Invalidate2M drops one 2 MB translation (one invlpg covers the whole
// mapping — this is the single shootdown slot a huge page costs).
func (t *TLB) Invalidate2M(asid uint32, vpn2m uint64) { t.huge.set.del(tlbKey{asid, vpn2m}) }

// FlushAll empties the TLB, both page sizes. A 2 MB side with nothing
// resident is left alone, ring included.
func (t *TLB) FlushAll() {
	t.base.flush()
	if t.huge.set.n > 0 {
		t.huge.flush()
	}
	t.flushes++
}

// Stats returns (hits, misses, flushes).
func (t *TLB) Stats() (hits, misses, flushes uint64) {
	return t.hits, t.misses, t.flushes
}

// Len returns the number of resident 4 KB translations.
func (t *TLB) Len() int { return t.base.set.n }

// Len2M returns the number of resident 2 MB translations.
func (t *TLB) Len2M() int { return t.huge.set.n }

// TLBSet is the per-CPU TLB array of a simulated machine. A CPU's TLB (91 KB
// at the worlds' 1,536 entries) is built when CPU first returns it: every
// world boots two sets, and a CPU that never runs a thread — or a whole set,
// the host's in Aquila mode — costs a nil pointer.
type TLBSet struct {
	tlbs     []*TLB
	capacity int
	seed     int64
}

// NewTLBSet makes the set for numCPUs CPUs; no TLB is built yet.
func NewTLBSet(numCPUs, capacity int, seed int64) *TLBSet {
	return &TLBSet{tlbs: make([]*TLB, numCPUs), capacity: capacity, seed: seed}
}

// CPU returns the TLB of the given CPU.
func (s *TLBSet) CPU(i int) *TLB {
	if t := s.tlbs[i]; t != nil {
		return t
	}
	return s.build(i)
}

// build is kept out of line so that CPU, the hot path's first call, inlines.
//
//go:noinline
func (s *TLBSet) build(i int) *TLB {
	s.tlbs[i] = NewTLB(s.capacity, s.seed+int64(i))
	return s.tlbs[i]
}

// Len returns the number of TLBs.
func (s *TLBSet) Len() int { return len(s.tlbs) }

// InvalidatePageAll drops a translation from every TLB (used by shootdowns
// after the IPI cost has been modeled by the caller). A CPU that never had a
// TLB holds no translation.
func (s *TLBSet) InvalidatePageAll(asid uint32, vpn uint64) {
	for _, t := range s.tlbs {
		if t != nil {
			t.InvalidatePage(asid, vpn)
		}
	}
}
