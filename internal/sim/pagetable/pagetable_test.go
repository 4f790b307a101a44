package pagetable

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
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

// Property: the table agrees with a reference model under random sequences
// of 4 KB, 2 MB and 1 GB maps, unmaps, lookups, protects, range unmaps and
// releases over four 1 GB regions under two root slots. Mapped() is checked
// after every step; after a Release over the whole space, Pages() must be
// what a fresh table holding the same mappings needs, which catches both a
// leaked table page and one freed while it still maps something.
func TestTableMatchesReferenceModel(t *testing.T) {
	type op struct {
		Kind   uint8
		Region uint8
		Page   uint16
		Len    uint8
	}
	regions := [4]uint64{0, Size1G, 512 * Size1G, 513 * Size1G}
	var why string
	check := func(ops []op) bool {
		pt, ref := New(1), newRefTable()
		for i, o := range ops {
			base := regions[o.Region%4]
			va := base + uint64(o.Page%2048)*Size4K // four 2 MB spans
			frame, flags := uint64(i+1)<<20, Flags(o.Len)&(FlagWritable|FlagDirty|FlagAccessed|FlagUser)
			switch o.Kind % 16 {
			case 0, 1, 2, 3, 4:
				pt.Map(va, frame, flags, Size4K)
				ref.Map(va, frame, flags, Size4K)
			case 5, 6:
				va &^= Size2M - 1
				pt.Map(va, frame, flags, Size2M)
				ref.Map(va, frame, flags, Size2M)
			case 7:
				// Rarely, since a range unmap that lands on a 1 GB entry
				// splits it into 262,143 pages.
				if o.Len%64 == 0 {
					pt.Map(base, frame, flags, Size1G)
					ref.Map(base, frame, flags, Size1G)
				}
			case 8, 9:
				if pt.Unmap(va) != ref.Unmap(va) {
					why = fmt.Sprintf("step %d: Unmap(%#x) disagrees", i, va)
					return false
				}
			case 10, 11:
				// Lookup: every step checks va below.
			case 12:
				if pt.Protect(va, flags) != ref.Protect(va, flags) {
					why = fmt.Sprintf("step %d: Protect(%#x) disagrees", i, va)
					return false
				}
			case 13, 14:
				// A range of 1..240 pages, or one straddling two 2 MB spans.
				lo, length := va, (uint64(o.Len)+1)*Size4K
				if o.Len >= 240 {
					lo, length = va&^(Size2M-1)+Size4K, 2*Size2M
				}
				if got, want := pt.UnmapRange(lo, length), ref.UnmapRange(lo, length); got != want {
					why = fmt.Sprintf("step %d: UnmapRange(%#x, %#x) removed %d, want %d", i, lo, length, got, want)
					return false
				}
			case 15:
				lo, hi := va, va+uint64(o.Len)*Size2M
				if o.Len%2 == 0 {
					lo, hi = 0, 1<<48
				}
				pt.Release(lo, hi)
				if got, want := pt.Pages(), ref.Pages(); got < want || lo == 0 && got != want {
					why = fmt.Sprintf("step %d: Pages() = %d after Release(%#x, %#x), fresh table needs %d", i, got, lo, hi, want)
					return false
				}
			}
			if got, want := pt.Mapped(), ref.Mapped(); got != want {
				why = fmt.Sprintf("step %d (kind %d): Mapped() = %d, want %d", i, o.Kind%16, got, want)
				return false
			}
			for _, probe := range []uint64{va, base, va + Size2M} {
				e, ok := pt.Lookup(probe)
				want, wantOK := ref.Lookup(probe)
				if ok != wantOK || e != want {
					why = fmt.Sprintf("step %d (kind %d): Lookup(%#x) = %+v %v, want %+v %v", i, o.Kind%16, probe, e, ok, want, wantOK)
					return false
				}
			}
		}
		pt.Release(0, 1<<48)
		if got, want := pt.Pages(), ref.Pages(); got != want {
			why = fmt.Sprintf("end: Pages() = %d after releasing everything, fresh table needs %d", got, want)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatalf("%s\n%v", why, err)
	}
}

// Per-page Unmap, the reclaim path, never frees a table page, so a refault
// allocates nothing; Release frees what maps nothing, and never the root.
func TestReleaseFreesOnlyEmptyTablePages(t *testing.T) {
	pt := New(1)
	const span = 96 << 20
	for va := uint64(0); va < span; va += Size4K {
		pt.Map(va, va>>12, FlagUser, Size4K)
	}
	full := pt.Pages()
	if want := 1 + 1 + 1 + span/Size2M; full != want {
		t.Fatalf("Pages() = %d after mapping 96 MB, want %d", full, want)
	}
	for va := uint64(0); va < span; va += Size4K {
		pt.Unmap(va)
	}
	if pt.Pages() != full {
		t.Fatalf("per-page Unmap changed Pages() from %d to %d", full, pt.Pages())
	}
	pt.Release(Size2M+Size4K, Size2M+2*Size4K) // touches one empty page
	if pt.Pages() != full-1 {
		t.Fatalf("Pages() = %d after releasing one 4 KB page's span, want %d", pt.Pages(), full-1)
	}
	pt.Map(span-Size4K, 1, FlagUser, Size4K) // one live page keeps its path
	pt.Release(0, span)
	if pt.Pages() != 4 {
		t.Fatalf("Pages() = %d after Release with one page mapped, want 4", pt.Pages())
	}
	pt.Unmap(span - Size4K)
	pt.Release(span-Size4K, span-Size4K+1)
	if pt.Pages() != 1 {
		t.Fatalf("Pages() = %d after releasing everything, want 1 (the root)", pt.Pages())
	}
	if a := testing.AllocsPerRun(10, func() { pt.Release(0, 1<<48) }); a != 0 {
		t.Fatalf("Release: %v allocations per run, want 0", a)
	}
	// A huge entry over a leftover child table: the child maps nothing
	// visible but still holds its PTE, so it stays until that is unmapped.
	pt.Map(Size4K, 7, FlagUser, Size4K)
	pt.Map(0, 9, FlagUser, Size2M)
	pt.Release(0, Size2M)
	if e, ok := pt.Lookup(Size4K); !ok || e.Frame != 9 || pt.Pages() != 4 {
		t.Fatalf("huge over a child: Lookup = %+v %v, Pages() = %d, want frame 9 and 4 pages", e, ok, pt.Pages())
	}
	pt.Unmap(0)
	if e, ok := pt.Lookup(Size4K); !ok || e.Frame != 7 {
		t.Fatalf("after unmapping the huge entry: Lookup = %+v %v, want frame 7", e, ok)
	}
}

// TestReleasedLeavesAreReused: a table page Release takes off the tree — a
// last-level page, a pd or a pdpt — is what the next Map that needs one of
// its level gets, wherever it maps. A round over a sparse 96 MB span — one
// PTE per 2 MB, unmapped, released — allocates nothing once a first round has
// left its pages spare, although each round moves to a new root slot, a new
// pdpt slot, a new run of pd slots and a new PTE slot; a reused page maps only
// what is mapped into it, and the spare lists never hold more pages than the
// table once did.
func TestReleasedLeavesAreReused(t *testing.T) {
	const span, leaves = 96 << 20, 96 << 20 / Size2M
	pt := New(1)
	// The round's 1 GB region in its root slot, and its span's offset in it.
	region := func(r uint64) uint64 { return r%256<<39 | r%512<<30 }
	offset := func(r uint64) uint64 { return r%8*leaves*Size2M + r%512*Size4K }
	r := uint64(0)
	round := func() {
		base := region(r) + offset(r)
		for va := base; va < base+span; va += Size2M {
			pt.Map(va, r, FlagUser, Size4K)
		}
		if r > 0 {
			// Last round's mappings, moved under this round's root entry
			// (through its reused pdpt) and under its pdpt entry (through its
			// reused pd and leaves).
			prev := region(r-1)&(1<<39-1) + offset(r-1)
			for k := uint64(0); k < leaves; k++ {
				for _, va := range []uint64{r%256<<39 + prev, region(r) + offset(r-1)} {
					if _, ok := pt.Lookup(va + k*Size2M); ok {
						t.Fatalf("round %d: a reused page still maps the last round's %#x", r, va+k*Size2M)
					}
				}
			}
		}
		if pt.Mapped() != leaves || pt.Pages() != 3+leaves {
			t.Fatalf("round %d: %d PTEs in %d table pages, want %d in %d", r, pt.Mapped(), pt.Pages(), leaves, 3+leaves)
		}
		for va := base; va < base+span; va += Size2M {
			pt.Unmap(va)
		}
		pt.Release(region(r), region(r)+Size1G)
		if pt.Pages() != 1 || len(pt.spareLeaf) != leaves || len(pt.sparePD) != 1 || len(pt.sparePDPT) != 1 {
			t.Fatalf("round %d: %d table pages and %d/%d/%d spare leaves/pds/pdpts after Release, want 1 and %d/1/1",
				r, pt.Pages(), len(pt.spareLeaf), len(pt.sparePD), len(pt.sparePDPT), leaves)
		}
		r++
	}
	round()
	if a := testing.AllocsPerRun(10, round); a != 0 {
		t.Fatalf("a round over released table pages: %v allocations, want 0", a)
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

// A 4 KB hit through all four levels, the address pattern of bench's
// pagetable.lookup_ns.
func BenchmarkTableLookup(b *testing.B) {
	pt := New(1)
	for v := uint64(0); v < 4096; v++ {
		pt.Map(v*Size4K, v, FlagUser, Size4K)
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if _, ok := pt.Lookup(uint64(i&4095) * Size4K); ok {
			hits++
		}
	}
	if hits != b.N {
		b.Fatalf("%d of %d lookups hit", hits, b.N)
	}
}

// Releasing a 96 MB span once its PTEs are unmapped one by one, as a
// world's range unmap does. Each run first rebuilds the span's table pages
// (one PTE per 2 MB maps the same 48 last-level pages a full span does, and
// Release's walk does not look at PTEs): ns/op and allocs/op include that,
// release-ns/op is the Release call alone.
func BenchmarkTableRelease(b *testing.B) {
	const span = 96 << 20
	pt := New(1)
	var released time.Duration
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for va := uint64(0); va < span; va += Size2M {
			pt.Map(va, va>>12, FlagUser, Size4K)
			pt.Unmap(va)
		}
		start := time.Now()
		pt.Release(0, span)
		released += time.Since(start)
	}
	if pt.Pages() != 1 {
		b.Fatalf("Pages() = %d after Release, want 1", pt.Pages())
	}
	b.ReportMetric(float64(released.Nanoseconds())/float64(b.N), "release-ns/op")
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
