package pagetable

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMapLookupUnmap(t *testing.T) {
	pt := New(1)
	va := uint64(0x7f0000001000)
	pt.Map(va, 99, FlagWritable|FlagUser, Size4K)
	e, ok := pt.Lookup(va)
	if !ok {
		t.Fatal("lookup after map failed")
	}
	if e.Frame != 99 || !e.Flags.Has(FlagWritable) || !e.Present() {
		t.Fatalf("entry = %+v", e)
	}
	if e.PageSize != Size4K {
		t.Fatalf("page size = %d", e.PageSize)
	}
	if !pt.Unmap(va) {
		t.Fatal("unmap failed")
	}
	if _, ok := pt.Lookup(va); ok {
		t.Fatal("lookup after unmap succeeded")
	}
	if pt.Mapped() != 0 {
		t.Fatalf("mapped = %d, want 0", pt.Mapped())
	}
}

func TestLookupWithinPage(t *testing.T) {
	pt := New(1)
	pt.Map(0x1000, 5, 0, Size4K)
	if _, ok := pt.Lookup(0x1fff); !ok {
		t.Fatal("lookup within page should hit")
	}
	if _, ok := pt.Lookup(0x2000); ok {
		t.Fatal("lookup past page should miss")
	}
}

func TestHugePages(t *testing.T) {
	pt := New(1)
	pt.Map(0, 0, FlagWritable, Size1G)
	pt.Map(Size1G, 1, FlagWritable, Size1G)
	pt.Map(2*Size1G, 2, FlagWritable, Size2M)
	for _, va := range []uint64{0, Size1G - 1, 4096} {
		e, ok := pt.Lookup(va)
		if !ok || e.Frame != 0 || e.PageSize != Size1G {
			t.Fatalf("va %#x: e=%+v ok=%v", va, e, ok)
		}
	}
	e, ok := pt.Lookup(Size1G + 12345)
	if !ok || e.Frame != 1 {
		t.Fatalf("second gig: %+v %v", e, ok)
	}
	e, ok = pt.Lookup(2*Size1G + 100)
	if !ok || e.PageSize != Size2M {
		t.Fatalf("2M page: %+v %v", e, ok)
	}
	if _, ok := pt.Lookup(2*Size1G + Size2M); ok {
		t.Fatal("unmapped 2M region should miss")
	}
}

func TestMapUnaligned(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unaligned map")
		}
	}()
	pt := New(1)
	pt.Map(0x1234, 0, 0, Size4K)
}

func TestProtectAndDirty(t *testing.T) {
	pt := New(1)
	pt.Map(0x4000, 7, FlagUser, Size4K)
	if !pt.Protect(0x4000, FlagUser|FlagWritable) {
		t.Fatal("protect failed")
	}
	e, _ := pt.Lookup(0x4000)
	if !e.Flags.Has(FlagWritable) || e.Frame != 7 {
		t.Fatalf("after protect: %+v", e)
	}
	// A dirtying store's upgrade is a Protect too (core.wpFault).
	if !pt.Protect(0x4000, FlagUser|FlagWritable|FlagAccessed|FlagDirty) {
		t.Fatal("protect to dirty failed")
	}
	e, _ = pt.Lookup(0x4000)
	if !e.Flags.Has(FlagDirty|FlagAccessed) || e.Frame != 7 {
		t.Fatalf("dirty bits missing: %+v", e)
	}
	if pt.Protect(0x9000, 0) {
		t.Fatal("protect of unmapped va should fail")
	}
}

func TestUnmapRange(t *testing.T) {
	pt := New(1)
	for i := uint64(0); i < 16; i++ {
		pt.Map(i*Size4K, i, 0, Size4K)
	}
	removed := pt.UnmapRange(4*Size4K, 8*Size4K)
	if removed != 8 {
		t.Fatalf("removed = %d, want 8", removed)
	}
	for i := uint64(0); i < 16; i++ {
		_, ok := pt.Lookup(i * Size4K)
		want := i < 4 || i >= 12
		if ok != want {
			t.Fatalf("page %d present=%v want %v", i, ok, want)
		}
	}
}

func TestUnmapRangeHugeWhole(t *testing.T) {
	pt := New(1)
	pt.Map(0, 0, FlagWritable, Size2M)
	pt.Map(Size2M, 512, FlagWritable, Size2M)
	removed := pt.UnmapRange(0, 2*Size2M)
	if removed != 2 {
		t.Fatalf("removed = %d, want 2", removed)
	}
	if pt.Mapped() != 0 {
		t.Fatalf("mapped = %d, want 0", pt.Mapped())
	}
}

// Regression: a range that starts or ends mid-2MB must neither remove mapped
// memory outside the range nor skip the entry — the huge entry splits into
// surviving 4 KB mappings.
func TestUnmapRangeHugePartial(t *testing.T) {
	pt := New(1)
	pt.Map(0, 1000, FlagWritable|FlagUser|FlagDirty, Size2M)

	// Punch out the middle quarter [64*4K, 128*4K).
	removed := pt.UnmapRange(64*Size4K, 64*Size4K)
	if removed != 1 {
		t.Fatalf("removed = %d, want 1 (the huge entry)", removed)
	}
	for i := uint64(0); i < 512; i++ {
		va := i * Size4K
		e, ok := pt.Lookup(va)
		inHole := i >= 64 && i < 128
		if ok == inHole {
			t.Fatalf("page %d: present=%v, inHole=%v", i, ok, inHole)
		}
		if !ok {
			continue
		}
		if e.PageSize != Size4K {
			t.Fatalf("page %d: survivor has size %d, want 4K", i, e.PageSize)
		}
		if e.Frame != 1000+i {
			t.Fatalf("page %d: survivor frame %d, want %d", i, e.Frame, 1000+i)
		}
		if !e.Flags.Has(FlagWritable | FlagUser | FlagDirty) {
			t.Fatalf("page %d: survivor flags %v", i, e.Flags)
		}
	}
	if pt.Mapped() != 512-64 {
		t.Fatalf("mapped = %d, want %d", pt.Mapped(), 512-64)
	}
}

func TestUnmapRangeHugeStraddle(t *testing.T) {
	pt := New(1)
	// Two adjacent huge mappings; unmap a range straddling their boundary.
	pt.Map(0, 0, FlagUser, Size2M)
	pt.Map(Size2M, 512, FlagUser, Size2M)
	removed := pt.UnmapRange(Size2M-4*Size4K, 8*Size4K)
	if removed != 2 {
		t.Fatalf("removed = %d, want 2", removed)
	}
	// First mapping keeps pages 0..507, second keeps 516..1023.
	for i := uint64(0); i < 1024; i++ {
		va := i * Size4K
		e, ok := pt.Lookup(va)
		inHole := i >= 508 && i < 516
		if ok == inHole {
			t.Fatalf("page %d: present=%v, inHole=%v", i, ok, inHole)
		}
		if ok && e.Frame != i {
			t.Fatalf("page %d: frame %d, want %d", i, e.Frame, i)
		}
	}
	if pt.Mapped() != 1024-8 {
		t.Fatalf("mapped = %d, want %d", pt.Mapped(), 1024-8)
	}
}

func TestWalkLevels(t *testing.T) {
	pt := New(1)
	pt.Map(0, 0, 0, Size4K)
	pt.Lookup(0)
	if pt.LastWalkLevels() != 4 {
		t.Fatalf("4K walk levels = %d, want 4", pt.LastWalkLevels())
	}
	pt2 := New(2)
	pt2.Map(0, 0, 0, Size1G)
	pt2.Lookup(0)
	if pt2.LastWalkLevels() != 2 {
		t.Fatalf("1G walk levels = %d, want 2", pt2.LastWalkLevels())
	}
}

// Property: the table agrees with a reference map under random map/unmap/
// lookup sequences over a bounded VA space of 4K pages.
func TestTableMatchesReferenceModel(t *testing.T) {
	type op struct {
		Kind uint8
		Page uint16
	}
	check := func(ops []op) bool {
		pt := New(1)
		ref := make(map[uint64]uint64)
		for i, o := range ops {
			va := uint64(o.Page) * Size4K
			switch o.Kind % 3 {
			case 0:
				pt.Map(va, uint64(i), 0, Size4K)
				ref[va] = uint64(i)
			case 1:
				got := pt.Unmap(va)
				_, want := ref[va]
				if got != want {
					return false
				}
				delete(ref, va)
			case 2:
				e, ok := pt.Lookup(va)
				frame, want := ref[va]
				if ok != want || (ok && e.Frame != frame) {
					return false
				}
			}
			if pt.Mapped() != uint64(len(ref)) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// Once a region's nodes exist, mapping, unmapping and mapping a PTE again is
// three stores into the leaf array: no host allocation.
func TestWarmMapUnmapAllocatesNothing(t *testing.T) {
	pt := New(1)
	const pages = 1024 // two leaf nodes
	for v := uint64(0); v < pages; v++ {
		pt.Map(v*Size4K, v, FlagUser, Size4K)
	}
	pt.UnmapRange(0, pages*Size4K)
	v := uint64(0)
	if a := testing.AllocsPerRun(2*pages, func() {
		va := v % pages * Size4K
		pt.Map(va, v, FlagUser, Size4K)
		pt.Unmap(va)
		pt.Map(va, v+1, FlagUser|FlagWritable, Size4K)
		v++
	}); a != 0 {
		t.Fatalf("Map -> Unmap -> Map on a warm table: %v allocations per run, want 0", a)
	}
	if pt.Mapped() != pages {
		t.Fatalf("Mapped() = %d after remapping every page, want %d", pt.Mapped(), pages)
	}
}

func BenchmarkTableMapUnmap(b *testing.B) {
	pt := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		va := uint64(1<<20+i&4095) * Size4K
		pt.Map(va, uint64(i), FlagUser, Size4K)
		pt.Unmap(va)
	}
}
