package mem

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestAllocatorBasics(t *testing.T) {
	a := NewAllocator(1<<20, 2) // 256 frames, 128 per node
	if a.Capacity() != 256 {
		t.Fatalf("capacity = %d, want 256", a.Capacity())
	}
	f := a.Alloc(0)
	if f == nil {
		t.Fatal("alloc returned nil")
	}
	if f.Node() != 0 {
		t.Errorf("frame node = %d, want 0", f.Node())
	}
	if a.Allocated() != 1 {
		t.Errorf("allocated = %d, want 1", a.Allocated())
	}
	a.Release(f)
	if a.Allocated() != 0 {
		t.Errorf("allocated after release = %d, want 0", a.Allocated())
	}
}

func TestAllocatorNUMAFallback(t *testing.T) {
	a := NewAllocator(8*PageSize, 2) // 4 frames per node
	// Exhaust node 0.
	for i := 0; i < 4; i++ {
		f := a.Alloc(0)
		if f.Node() != 0 {
			t.Fatalf("alloc %d landed on node %d", i, f.Node())
		}
	}
	// Next preferring node 0 must fall back to node 1.
	f := a.Alloc(0)
	if f == nil || f.Node() != 1 {
		t.Fatalf("fallback alloc = %+v, want node 1", f)
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	a := NewAllocator(4*PageSize, 1)
	for i := 0; i < 4; i++ {
		if a.Alloc(0) == nil {
			t.Fatalf("alloc %d failed early", i)
		}
	}
	if f := a.Alloc(0); f != nil {
		t.Fatalf("alloc past capacity returned %+v", f)
	}
}

func TestFrameIdentityPreservedAcrossReuse(t *testing.T) {
	a := NewAllocator(PageSize, 1)
	f1 := a.Alloc(0)
	f1.WriteAt(0, []byte{42})
	a.Release(f1)
	f2 := a.Alloc(0)
	if f1 != f2 {
		t.Fatal("expected same frame object on reuse")
	}
	var b [1]byte
	if f2.ReadAt(b[:], 0); b[0] != 42 {
		t.Fatal("payload not preserved (caller must Reset explicitly)")
	}
	f2.Reset()
	if f2.ReadAt(b[:], 0); b[0] != 0 || !f2.HasData() {
		t.Fatal("Reset did not zero payload")
	}
}

// TestFrameRecordSize: a frame is a record of its node's table, one per 4 KB
// of simulated DRAM whether or not it ever holds a payload — its ID, the
// payload slice and the pointer to its node's home, 40 bytes. The table is
// one allocation, so the bound is the bytes per frame, not a size class.
func TestFrameRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Frame{}); got > 40 {
		t.Fatalf("a Frame is %d bytes, want at most 40: every 4 KB of simulated DRAM a world touches pays it in its node's frame table (DESIGN.md §3 \"Page records\")", got)
	}
}

func TestAllocN(t *testing.T) {
	a := NewAllocator(8*PageSize, 1)
	got := a.AllocN(0, 5)
	if len(got) != 5 {
		t.Fatalf("AllocN got %d, want 5", len(got))
	}
	got2 := a.AllocN(0, 10)
	if len(got2) != 3 {
		t.Fatalf("AllocN after partial exhaustion got %d, want 3", len(got2))
	}
}

// Property: alloc/release conservation — after any interleaving, allocated +
// free == capacity, and no frame is handed out twice concurrently.
func TestAllocatorConservationProperty(t *testing.T) {
	check := func(ops []bool) bool {
		a := NewAllocator(64*PageSize, 2)
		var held []*Frame
		outstanding := make(map[uint64]bool)
		for _, alloc := range ops {
			if alloc {
				f := a.Alloc(int(a.Allocated()) % 2)
				if f == nil {
					continue
				}
				if outstanding[f.ID] {
					return false // double allocation
				}
				outstanding[f.ID] = true
				held = append(held, f)
			} else if len(held) > 0 {
				f := held[len(held)-1]
				held = held[:len(held)-1]
				delete(outstanding, f.ID)
				a.Release(f)
			}
			if a.Allocated()+a.Free() != a.Capacity() {
				return false
			}
			if a.Allocated() != uint64(len(held)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameLookupUnallocated(t *testing.T) {
	a := NewAllocator(4*PageSize, 1)
	if a.Frame(2) != nil {
		t.Fatal("never-allocated frame id resolved")
	}
	f := a.Alloc(0)
	if a.Frame(f.ID) != f {
		t.Fatal("allocated frame not resolvable by id")
	}
}
