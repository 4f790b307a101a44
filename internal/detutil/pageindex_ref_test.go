package detutil

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

type page struct{ idx uint64 }

// refIndex is the cache index as both worlds kept it before PageIndex: a Go
// map keyed by page index, with every ordered walk a collect-then-sort. The
// reference the table is held to.
type refIndex map[uint64]*page

func (r refIndex) sortedKeys(lo, hi uint64) []uint64 {
	var keys []uint64
	for k := range r {
		if k >= lo && k < hi {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// extent returns how many pages the reference holds in extent ext.
func (r refIndex) extent(ext uint64) int {
	return len(r.sortedKeys(ext<<LeafShift, (ext+1)<<LeafShift))
}

// walk collects a Range walk, failing on an index out of order or out of
// range.
func walk(t *testing.T, x *PageIndex[page], lo, hi uint64) []uint64 {
	t.Helper()
	var got []uint64
	for idx, p := range x.Range(lo, hi) {
		if p.idx != idx || idx < lo || idx >= hi || (len(got) > 0 && got[len(got)-1] >= idx) {
			t.Fatalf("Range(%d, %d) yielded page %d at %d after %v", lo, hi, p.idx, idx, got)
		}
		got = append(got, idx)
	}
	return got
}

// TestPageIndexMatchesMapReference drives a PageIndex and the map reference
// with one seeded sequence of inserts, removals (of the page, of another page
// at its index, of an absent index), lookups, covering-extent lookups, range
// walks and full walks, over a file whose last leaf is partial, deleting the
// file and creating the next one on the same pool now and then — and after
// every step holds the table to the reference and to its own audit.
func TestPageIndexMatchesMapReference(t *testing.T) {
	// 5 full leaves and 37 pages of a sixth: the last leaf is partial.
	const limit = 5*LeafSlots + 37
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var pool LeafPool[page]
		x, ref := NewPageIndex(&pool, limit), refIndex{}
		var made, recreated, lastLeaf, emptied int
		leaves := func() int {
			n := len(pool.free)
			for _, e := range x.dir {
				if e.leaf != nil {
					n++
				}
			}
			return n
		}
		pick := func() uint64 {
			// Dense in two extents, sparse elsewhere, the last leaf included.
			switch r := rng.Intn(10); {
			case r < 4:
				return uint64(rng.Intn(LeafSlots))
			case r < 7:
				return uint64(2*LeafSlots + rng.Intn(64))
			case r < 8:
				return uint64(5*LeafSlots + rng.Intn(37))
			}
			return uint64(rng.Intn(limit))
		}
		for step := 0; step < 6000; step++ {
			idx := pick()
			switch op := rng.Intn(100); {
			case op < 35:
				if ref[idx] == nil {
					p := &page{idx}
					x.Insert(idx, p)
					ref[idx] = p
					if idx >= 5*LeafSlots {
						lastLeaf++
					}
				}
			case op < 75:
				if keys := ref.sortedKeys(0, limit); len(keys) > 0 && rng.Intn(2) == 0 {
					idx = keys[rng.Intn(len(keys))] // a page that is there
				}
				p := ref[idx]
				if rng.Intn(8) == 0 {
					p = &page{idx} // not what the index holds there
				}
				was := ref.extent(idx >> LeafShift)
				if got, want := x.Remove(idx, p), p != nil && ref[idx] == p; got != want {
					t.Fatalf("seed %d step %d: Remove(%d) = %v, reference %v", seed, step, idx, got, want)
				} else if want {
					delete(ref, idx)
					if was == 1 {
						emptied++
					}
				}
			case op < 85:
				lo := pick()
				hi := lo + uint64(rng.Intn(3*LeafSlots))
				if got, want := walk(t, &x, lo, hi), ref.sortedKeys(lo, hi); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Range(%d, %d) = %v, reference %v", seed, step, lo, hi, got, want)
				}
			case op < 99:
				// Lookups: the page, and its extent the way a covering 2 MB unit
				// is found — slot 0 of the leaf — with the leaf's population.
				if got := x.Get(idx); got != ref[idx] {
					t.Fatalf("seed %d step %d: Get(%d) = %v, reference %v", seed, step, idx, got, ref[idx])
				}
				leaf, n := x.Extent(idx >> LeafShift)
				if want := ref.extent(idx >> LeafShift); n != want || (leaf == nil) != (want == 0) {
					t.Fatalf("seed %d step %d: Extent(%d) holds %d (leaf %v), reference %d", seed, step, idx>>LeafShift, n, leaf != nil, want)
				}
				if leaf != nil && leaf[0] != ref[idx&^(LeafSlots-1)] {
					t.Fatalf("seed %d step %d: extent %d slot 0 is not the reference's base page", seed, step, idx>>LeafShift)
				}
			case rng.Intn(4) == 0:
				// Delete the file and create the next: its leaves serve it.
				before := leaves()
				for _, idx := range ref.sortedKeys(0, ^uint64(0)) {
					x.Remove(idx, ref[idx])
				}
				x, ref = NewPageIndex(&pool, limit), refIndex{}
				if got := leaves(); got != before || len(pool.free) != before {
					t.Fatalf("seed %d step %d: %d leaves before the delete, %d after, %d pooled", seed, step, before, got, len(pool.free))
				}
				recreated++
			}
			if x.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len %d, reference %d", seed, step, x.Len(), len(ref))
			}
			if err := x.Check(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			made = max(made, leaves())
			if step%64 == 0 {
				var all []uint64
				for idx := range x.All() {
					all = append(all, idx)
				}
				if want := ref.sortedKeys(0, ^uint64(0)); !slices.Equal(all, want) {
					t.Fatalf("seed %d step %d: All() = %v, reference %v", seed, step, all, want)
				}
				for _, l := range pool.free {
					if slices.ContainsFunc(l[:], func(p *page) bool { return p != nil }) {
						t.Fatalf("seed %d step %d: a pooled leaf still holds a page", seed, step)
					}
				}
			}
		}
		// A leaf is made only when none is pooled: there are never more than
		// the file has extents, however often it was deleted and recreated.
		if made > 6 || recreated < 5 || lastLeaf < 50 || emptied < 30 {
			t.Fatalf("seed %d: %d leaves ever made for 6 extents; sequence too tame? %d recreations, %d inserts in the last leaf, %d leaves emptied",
				seed, made, recreated, lastLeaf, emptied)
		}
	}
}

func panicMessage(f func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	f()
	return "no panic"
}

// An index at or past the reserved bound is refused, and neither the refusal
// nor any lookup grows the directory; Reserve with a size the owner trusts is
// what admits more.
func TestPageIndexIsBounded(t *testing.T) {
	var pool LeafPool[page]
	x := NewPageIndex(&pool, LeafSlots+1) // one full leaf and one page
	x.Insert(LeafSlots, &page{LeafSlots})
	for _, idx := range []uint64{LeafSlots + 1, 1 << 40, ^uint64(0)} {
		want := fmt.Sprintf("detutil: page index %d beyond the %d pages reserved", idx, LeafSlots+1)
		if got := panicMessage(func() { x.Insert(idx, &page{idx}) }); got != want {
			t.Errorf("Insert(%d): %q, want %q", idx, got, want)
		}
		if x.Get(idx) != nil || x.Remove(idx, &page{idx}) {
			t.Errorf("index %d: found or removed", idx)
		}
		if leaf, n := x.Extent(idx >> LeafShift); idx>>LeafShift > 1 && (leaf != nil || n != 0) {
			t.Errorf("extent of index %d: not empty", idx)
		}
		for range x.Range(idx, ^uint64(0)) {
			t.Errorf("Range from %d yielded a page", idx)
		}
	}
	if len(x.dir) != 2 || x.Len() != 1 {
		t.Fatalf("directory of %d extents holding %d pages, want 2 and 1", len(x.dir), x.Len())
	}
	if got, want := panicMessage(func() { x.Insert(LeafSlots, &page{LeafSlots}) }), "detutil: page index 512 inserted twice"; got != want {
		t.Errorf("second insert: %q, want %q", got, want)
	}
	x.Reserve(3)
	if x.limit != LeafSlots+1 {
		t.Errorf("Reserve lowered the bound to %d", x.limit)
	}
	x.Reserve(4 * LeafSlots)
	x.Insert(4*LeafSlots-1, &page{4*LeafSlots - 1})
	if err := x.Check(); err != nil || len(x.dir) != 4 {
		t.Fatalf("after Reserve: %d extents, audit %v", len(x.dir), err)
	}
}

// Check names each state the index rules out.
func TestPageIndexCheckNamesPlantedStates(t *testing.T) {
	var pool LeafPool[page]
	x := NewPageIndex(&pool, 4*LeafSlots)
	a, b := &page{3}, &page{LeafSlots + 5}
	x.Insert(a.idx, a)
	x.Insert(b.idx, b)
	expect := func(want string) {
		t.Helper()
		if err := x.Check(); err == nil || err.Error() != want {
			t.Errorf("Check() = %v, want %q", err, want)
		}
	}
	x.dir[0].leaf[9] = &page{9} // a page nobody counted
	expect("extent 0: population 1 != recount 2")
	x.dir[0].leaf[9] = nil
	x.dir[1].leaf[5] = nil // the leaf's last page gone, the leaf still linked
	x.dir[1].n = 0
	expect("extent 1: empty leaf still linked")
	x.dir[1].leaf[5], x.dir[1].n = b, 1
	x.n++
	expect("index population 3 != recount 2")
	x.n--
	x.limit = LeafSlots // the directory outgrew what was reserved
	expect("directory of 2 extents past the 512 pages reserved")
	x.limit = 4 * LeafSlots
	if err := x.Check(); err != nil {
		t.Fatal(err)
	}
}

// A create / touch / delete round on a pool that has served one allocates
// nothing: not a leaf, not a directory.
func TestPageIndexRoundAllocatesNothing(t *testing.T) {
	const pages = 3*LeafSlots + 100
	var pool LeafPool[page]
	ps := make([]page, pages)
	x := NewPageIndex(&pool, pages)
	round := func() {
		for i := range ps {
			x.Insert(uint64(i), &ps[i])
		}
		for i := range ps {
			x.Remove(uint64(i), &ps[i])
		}
	}
	round()
	if got := testing.AllocsPerRun(20, round); got != 0 {
		t.Errorf("insert-all / remove-all round: %v allocations, want 0", got)
	}
}

// BenchmarkPageIndexLookupInsertRemove is the index's steady state — a cache
// an eighth the size of its file, every miss an insert and a removal — over
// the table and over the map it replaced.
func BenchmarkPageIndexLookupInsertRemove(b *testing.B) {
	const filePages, cached = 1 << 16, 1 << 13
	rng := rand.New(rand.NewSource(1))
	trace := make([]uint64, 1<<16)
	for i := range trace {
		trace[i] = uint64(rng.Intn(filePages))
	}
	ps := make([]page, filePages)
	// misses evict first in, first out: slot m of the ring is the m-th miss's.
	b.Run("table", func(b *testing.B) {
		var pool LeafPool[page]
		x := NewPageIndex(&pool, filePages)
		var fifo [cached]uint64
		b.ReportAllocs()
		for i, m := 0, 0; i < b.N; i++ {
			idx := trace[i&(len(trace)-1)]
			if x.Get(idx) != nil {
				continue
			}
			slot := &fifo[m&(cached-1)]
			if m >= cached {
				x.Remove(*slot, &ps[*slot])
			}
			*slot = idx
			x.Insert(idx, &ps[idx])
			m++
		}
	})
	b.Run("map", func(b *testing.B) {
		x := refIndex{}
		var fifo [cached]uint64
		b.ReportAllocs()
		for i, m := 0, 0; i < b.N; i++ {
			idx := trace[i&(len(trace)-1)]
			if x[idx] != nil {
				continue
			}
			slot := &fifo[m&(cached-1)]
			if m >= cached {
				delete(x, *slot)
			}
			*slot = idx
			x[idx] = &ps[idx]
			m++
		}
	})
}
