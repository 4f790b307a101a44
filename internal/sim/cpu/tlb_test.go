package cpu

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestTLBMatchesReferenceModel drives the flat-table TLB and the map-based
// reference with the same seeded random operation sequences and requires every
// return value, counter, population and both replacement rings to be equal
// after every step. The key universe is three times the capacity, so keys are
// invalidated and inserted again, the arrays run full, and the rings grow past
// 4x capacity and compact; after some flushes the table's epoch is pushed to
// its last value so the next flush wraps it over stamps left by epoch 1.
func TestTLBMatchesReferenceModel(t *testing.T) {
	for _, tc := range []struct {
		capacity, capacity2M int
		flushEvery           int // mean steps between FlushAlls
	}{
		{8, 2, 150},
		{13, 4, 400},
		{32, 7, 2000},
		{64, 0, 4000}, // 0: the default 32
	} {
		rng := rand.New(rand.NewSource(int64(tc.capacity)))
		got, want := NewTLB(tc.capacity, 1), newRefTLB(tc.capacity)
		got.SetCapacity2M(tc.capacity2M)
		want.SetCapacity2M(tc.capacity2M)
		regions := 3 * got.huge.capacity
		pagesPer := 3*tc.capacity/regions + 1
		var compactions, compactions2M, wraps, reinserts int
		invalidated := map[tlbKey]bool{}
		for step := 0; step < 60000; step++ {
			asid := uint32(1 + rng.Intn(2))
			region := uint64(rng.Intn(regions))
			vpn := region<<9 | uint64(rng.Intn(pagesPer))
			switch op := rng.Intn(100); {
			case rng.Intn(tc.flushEvery) == 0:
				got.FlushAll()
				want.FlushAll()
				clear(invalidated)
				if got.base.set.epoch == 1 {
					wraps++
				}
				// A set the flush emptied is at a point where its epoch can
				// be moved without changing what it holds.
				if rng.Intn(2) == 0 {
					got.base.set.epoch = math.MaxUint32
					if got.huge.set.n == 0 {
						got.huge.set.epoch = math.MaxUint32
					}
				}
			case rng.Intn(20000) == 0:
				n := []int{0, 2, 4, 7}[rng.Intn(4)]
				got.SetCapacity2M(n)
				want.SetCapacity2M(n)
			case op < 35:
				before := len(got.base.order)
				got.Insert(asid, vpn)
				want.Insert(asid, vpn)
				if len(got.base.order) < before {
					compactions++
				}
				if invalidated[tlbKey{asid, vpn}] {
					reinserts++
					delete(invalidated, tlbKey{asid, vpn})
				}
			case op < 55:
				if g, w := got.Lookup(asid, vpn), want.Lookup(asid, vpn); g != w {
					t.Fatalf("cap %d step %d: Lookup(%d, %#x) = %v, reference %v", tc.capacity, step, asid, vpn, g, w)
				}
			case op < 70:
				va := vpn<<12 | uint64(rng.Intn(4096))
				if g, w := got.LookupVA(asid, va), want.LookupVA(asid, va); g != w {
					t.Fatalf("cap %d step %d: LookupVA(%d, %#x) = %v, reference %v", tc.capacity, step, asid, va, g, w)
				}
			case op < 85:
				if got.base.set.has(tlbKey{asid, vpn}) {
					invalidated[tlbKey{asid, vpn}] = true
				}
				got.InvalidatePage(asid, vpn)
				want.InvalidatePage(asid, vpn)
			case op < 94:
				before := len(got.huge.order)
				got.Insert2M(asid, region)
				want.Insert2M(asid, region)
				if len(got.huge.order) < before {
					compactions2M++
				}
			default:
				got.Invalidate2M(asid, region)
				want.Invalidate2M(asid, region)
			}
			gh, gm, gf := got.Stats()
			wh, wm, wf := want.Stats()
			if gh != wh || gm != wm || gf != wf {
				t.Fatalf("cap %d step %d: Stats %d/%d/%d, reference %d/%d/%d", tc.capacity, step, gh, gm, gf, wh, wm, wf)
			}
			if got.Len() != want.Len() || got.Len2M() != want.Len2M() {
				t.Fatalf("cap %d step %d: Len %d Len2M %d, reference %d %d", tc.capacity, step,
					got.Len(), got.Len2M(), want.Len(), want.Len2M())
			}
			if got.base.next != want.next || !slices.Equal(got.base.order, want.order) {
				t.Fatalf("cap %d step %d: 4 KB ring diverged from the reference", tc.capacity, step)
			}
			if got.huge.next != want.next2M || !slices.Equal(got.huge.order, want.order2M) {
				t.Fatalf("cap %d step %d: 2 MB ring diverged from the reference", tc.capacity, step)
			}
		}
		// Every resident key of the reference is findable, and nothing else is.
		for k := range want.entries {
			if !got.base.set.has(k) {
				t.Fatalf("cap %d: %v resident in the reference only", tc.capacity, k)
			}
		}
		for k := range want.entries2M {
			if !got.huge.set.has(k) {
				t.Fatalf("cap %d: 2 MB %v resident in the reference only", tc.capacity, k)
			}
		}
		if compactions == 0 || compactions2M == 0 || wraps == 0 || reinserts == 0 {
			t.Fatalf("cap %d: sequence too tame: %d/%d ring compactions, %d epoch wraps, %d invalidate-then-reinserts",
				tc.capacity, compactions, compactions2M, wraps, reinserts)
		}
	}
}

// A table whose epoch wraps must not resurrect what an earlier epoch 1 stored.
func TestTLBTableEpochWrap(t *testing.T) {
	s := newTLBTable(8)
	for v := uint64(0); v < 8; v++ {
		s.add(tlbKey{1, v})
	}
	s.flush()
	s.epoch = math.MaxUint32
	s.add(tlbKey{1, 100})
	s.flush()
	if s.epoch != 1 || s.n != 0 {
		t.Fatalf("after the wrap: epoch %d n %d, want 1 and 0", s.epoch, s.n)
	}
	for v := uint64(0); v < 8; v++ {
		if s.has(tlbKey{1, v}) {
			t.Fatalf("key %d of the first epoch 1 is back after the wrap", v)
		}
	}
	if s.has(tlbKey{1, 100}) {
		t.Fatal("key of the last epoch survived the flush")
	}
}

// The simulated TLB's own operations must not cost the host an allocation once
// the replacement ring has reached its compaction size.
func TestTLBSteadyStateAllocatesNothing(t *testing.T) {
	const capacity = 64
	tlb := NewTLB(capacity, 1)
	set := NewTLBSet(4, capacity, 1)
	next := uint64(0)
	fill := func(t *TLB) {
		for i := 0; i < 10*capacity; i++ {
			t.Insert(1, next)
			t.Insert2M(1, next)
			next++
		}
	}
	fill(tlb)
	for i := 0; i < set.Len(); i++ {
		fill(set.CPU(i))
	}
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"FlushAll", func() {
			tlb.Insert(1, next)
			tlb.Insert2M(1, next)
			tlb.FlushAll()
		}},
		{"InvalidatePage", func() {
			tlb.Insert(1, 7)
			tlb.InvalidatePage(1, 7)
		}},
		{"TLBSet.InvalidatePageAll", func() {
			set.CPU(int(next)%set.Len()).Insert(1, 7)
			set.InvalidatePageAll(1, 7)
			next++
		}},
		{"Insert at capacity", func() {
			tlb.Insert(1, next)
			tlb.Insert2M(1, next)
			next++
		}},
	} {
		if tc.name == "Insert at capacity" {
			fill(tlb) // the flushes above emptied it
		}
		if a := testing.AllocsPerRun(20*capacity, tc.fn); a != 0 {
			t.Errorf("%s: %v allocations per run, want 0", tc.name, a)
		}
	}
}

func BenchmarkTLBFlushAll(b *testing.B) {
	tlb := NewTLB(1536, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tlb.Insert(1, uint64(i))
		tlb.FlushAll()
	}
}

func BenchmarkTLBInsertFull(b *testing.B) {
	tlb := NewTLB(1536, 1)
	for v := uint64(0); v < 8192; v++ {
		tlb.Insert(1, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tlb.Insert(1, uint64(i)&8191)
	}
}

func BenchmarkTLBSetShootdown32(b *testing.B) {
	set := NewTLBSet(32, 1536, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set.CPU(i&31).Insert(1, uint64(i)&1023)
		set.InvalidatePageAll(1, uint64(i)&1023)
	}
}
