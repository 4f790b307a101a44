package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRBTreeBasics(t *testing.T) {
	tr := &rbTree{}
	pg := &Page{}
	tr.Insert(5, pg)
	if got, ok := tr.Get(5); !ok || got != pg {
		t.Fatal("get after insert failed")
	}
	if _, ok := tr.Get(6); ok {
		t.Fatal("get of missing key succeeded")
	}
	if tr.Len() != 1 {
		t.Fatalf("len = %d", tr.Len())
	}
	if !tr.Delete(5) {
		t.Fatal("delete failed")
	}
	if tr.Delete(5) {
		t.Fatal("double delete succeeded")
	}
	if tr.Len() != 0 {
		t.Fatalf("len after delete = %d", tr.Len())
	}
}

func TestRBTreeAscendSorted(t *testing.T) {
	tr := &rbTree{}
	keys := []uint64{42, 7, 99, 3, 56, 21, 88, 1}
	for _, k := range keys {
		tr.Insert(k, &Page{idx: k})
	}
	var got []uint64
	tr.Ascend(func(k uint64, pg *Page) bool {
		got = append(got, k)
		return true
	})
	sorted := append([]uint64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i := range sorted {
		if got[i] != sorted[i] {
			t.Fatalf("ascend order %v, want %v", got, sorted)
		}
	}
	k, _, ok := tr.Min()
	if !ok || k != 1 {
		t.Fatalf("min = %d, %v", k, ok)
	}
}

func TestRBTreeAscendEarlyStop(t *testing.T) {
	tr := &rbTree{}
	for i := uint64(0); i < 10; i++ {
		tr.Insert(i, &Page{})
	}
	count := 0
	tr.Ascend(func(k uint64, pg *Page) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d", count)
	}
}

// Property: the tree stays a valid red-black tree and agrees with a map
// under random insert/delete sequences.
func TestRBTreeInvariantsProperty(t *testing.T) {
	type op struct {
		Key uint16
		Del bool
	}
	check := func(ops []op) bool {
		tr := &rbTree{}
		ref := make(map[uint64]*Page)
		for _, o := range ops {
			k := uint64(o.Key % 128)
			if o.Del {
				got := tr.Delete(k)
				_, want := ref[k]
				if got != want {
					return false
				}
				delete(ref, k)
			} else {
				pg := &Page{idx: k}
				tr.Insert(k, pg)
				ref[k] = pg
			}
			if tr.Len() != len(ref) {
				return false
			}
			if tr.checkInvariants() < 0 {
				return false
			}
		}
		// Final content check.
		for k, pg := range ref {
			got, ok := tr.Get(k)
			if !ok || got != pg {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRBTreeNodeRecyclingChurn holds the tree to a map-plus-sort reference
// through seeded churn — fill, drain, overwrite, refill, the way a dirty tree
// lives — and checks after every step the red-black invariants, the Ascend
// order, that the nodes the tree ever made are all either linked or on its
// free list (so a delete feeds the next insert: the tree allocates no more
// nodes than it ever held entries at once), and that a free node keeps nothing
// of what it was: no page, no key, no child.
func TestRBTreeNodeRecyclingChurn(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := &rbTree{}
		ref := make(map[uint64]*Page)
		peak, reused := 0, 0
		for step := 0; step < 5000; step++ {
			// Phases: grow for a while, shrink for a while.
			k, grow := uint64(rng.Intn(192)), (step/400)%2 == 0
			switch r := rng.Intn(10); {
			case r < 3 || (grow && r < 8):
				if _, had := ref[k]; !had && tr.free != nil {
					reused++
				}
				pg := &Page{idx: k}
				tr.Insert(k, pg)
				ref[k] = pg
			default:
				_, want := ref[k]
				if got := tr.Delete(k); got != want {
					t.Fatalf("seed %d step %d: Delete(%d) = %v, reference %v", seed, step, k, got, want)
				}
				delete(ref, k)
			}
			peak = max(peak, len(ref))
			if tr.Len() != len(ref) || tr.checkInvariants() < 0 {
				t.Fatalf("seed %d step %d: len %d (reference %d), black height %d", seed, step, tr.Len(), len(ref), tr.checkInvariants())
			}
			want := make([]uint64, 0, len(ref))
			for k := range ref {
				want = append(want, k)
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			i := 0
			tr.Ascend(func(k uint64, pg *Page) bool {
				if i >= len(want) || k != want[i] || pg != ref[k] {
					t.Fatalf("seed %d step %d: Ascend entry %d is key %d, reference %v", seed, step, i, k, want)
				}
				i++
				return true
			})
			if i != len(want) {
				t.Fatalf("seed %d step %d: Ascend visited %d entries, reference %d", seed, step, i, len(want))
			}
			free := 0
			for n := tr.free; n != nil; n = n.left {
				if n.page != nil || n.key != 0 || n.right != nil || n.red {
					t.Fatalf("seed %d step %d: free node keeps %+v", seed, step, *n)
				}
				free++
			}
			if tr.Len()+free != peak {
				t.Fatalf("seed %d step %d: %d linked + %d free nodes, but the tree never held more than %d entries", seed, step, tr.Len(), free, peak)
			}
		}
		if reused < 500 {
			t.Fatalf("seed %d: only %d inserts drew from the free list", seed, reused)
		}
	}
}

func TestRBTreeLargeSequential(t *testing.T) {
	tr := &rbTree{}
	const n = 10000
	for i := uint64(0); i < n; i++ {
		tr.Insert(i, &Page{idx: i})
	}
	if tr.Len() != n {
		t.Fatalf("len = %d", tr.Len())
	}
	if tr.checkInvariants() < 0 {
		t.Fatal("invariants violated after sequential insert")
	}
	for i := uint64(0); i < n; i += 2 {
		tr.Delete(i)
	}
	if tr.Len() != n/2 {
		t.Fatalf("len after deletes = %d", tr.Len())
	}
	if tr.checkInvariants() < 0 {
		t.Fatal("invariants violated after deletes")
	}
}

func TestVSpaceInsertFindRemove(t *testing.T) {
	vs := &vspace{}
	f := &fileState{id: 1, name: "f"}
	r := &Region{Start: 1 << 30, End: 1<<30 + 64*pageSize, File: f}
	vs.Insert(r)
	if got := vs.Find(1<<30 + 5*pageSize + 7); got != r {
		t.Fatal("find inside region failed")
	}
	if got := vs.Find(1<<30 - 1); got != nil {
		t.Fatal("find before region succeeded")
	}
	if got := vs.Find(1<<30 + 64*pageSize); got != nil {
		t.Fatal("find past region succeeded")
	}
	vs.Remove(r)
	if got := vs.Find(1<<30 + 5*pageSize); got != nil {
		t.Fatal("find after remove succeeded")
	}
}

func TestVSpaceLargeRegionCollapses(t *testing.T) {
	vs := &vspace{}
	f := &fileState{id: 1}
	// A 4 GB region aligned to 1 GB: must use interior slots, not 1M leaves.
	r := &Region{Start: 1 << 39, End: 1<<39 + 4<<30, File: f}
	vs.Insert(r)
	for _, off := range []uint64{0, 1 << 30, 4<<30 - pageSize} {
		if vs.Find(r.Start+off) != r {
			t.Fatalf("find at +%d failed", off)
		}
	}
	if vs.Find(r.Start+4<<30) != nil {
		t.Fatal("find past collapsed region succeeded")
	}
}

func TestVSpaceMultipleRegions(t *testing.T) {
	vs := &vspace{}
	var regions []*Region
	for i := uint64(0); i < 20; i++ {
		r := &Region{
			Start: 1<<40 + i*1000*pageSize,
			End:   1<<40 + i*1000*pageSize + 100*pageSize,
			File:  &fileState{id: i},
		}
		regions = append(regions, r)
		vs.Insert(r)
	}
	if vs.Len() != 20 {
		t.Fatalf("len = %d", vs.Len())
	}
	for i, r := range regions {
		if vs.Find(r.Start+50*pageSize) != r {
			t.Fatalf("region %d not found", i)
		}
		// Gaps between regions are unmapped.
		if vs.Find(r.End+pageSize) != nil {
			t.Fatalf("gap after region %d mapped", i)
		}
	}
}
