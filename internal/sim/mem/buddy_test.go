package mem

import "testing"

func TestBuddyCarveConservation(t *testing.T) {
	// 2048 frames over 2 nodes: 1024 per node = 2 max-order blocks each.
	a := NewBuddyAllocator(2048*PageSize, 2)
	if !a.Buddy() {
		t.Fatal("Buddy() = false")
	}
	if a.Capacity() != 2048 || a.Free() != 2048 {
		t.Fatalf("capacity=%d free=%d, want 2048/2048", a.Capacity(), a.Free())
	}
	for n := 0; n < 2; n++ {
		if got := a.FreeBlocksOnNode(n); got != 2 {
			t.Fatalf("node %d free blocks = %d, want 2", n, got)
		}
		if got := a.FreeOnNode(n); got != 1024 {
			t.Fatalf("node %d free frames = %d, want 1024", n, got)
		}
	}
}

func TestBuddyCarveUnalignedRange(t *testing.T) {
	// 768 frames per node: one order-9 block + one order-8 block.
	a := NewBuddyAllocator(2*768*PageSize, 2)
	for n := 0; n < 2; n++ {
		if got := a.FreeBlocksOnNode(n); got != 1 {
			t.Fatalf("node %d free blocks = %d, want 1", n, got)
		}
		if got := a.FreeOnNode(n); got != 768 {
			t.Fatalf("node %d free frames = %d, want 768", n, got)
		}
	}
}

func TestBuddyAllocBlock(t *testing.T) {
	a := NewBuddyAllocator(2048*PageSize, 2)
	blk := a.AllocBlock(1)
	base := blk.ID
	if base%BlockFrames != 0 {
		t.Fatalf("block base %d not 2MB-aligned", base)
	}
	for i := range BlockFrames {
		f := blk.BlockFrame(i)
		if f.ID != base+uint64(i) {
			t.Fatalf("frame %d has id %d, want %d", i, f.ID, base+uint64(i))
		}
		if f.Node() != 1 {
			t.Fatalf("frame %d on node %d, want 1", i, f.Node())
		}
	}
	if a.Free() != 2048-BlockFrames || a.Allocated() != BlockFrames {
		t.Fatalf("free=%d allocated=%d after block alloc", a.Free(), a.Allocated())
	}
	a.ReleaseBlock(blk)
	if a.Free() != 2048 || a.FreeBlocksOnNode(1) != 2 {
		t.Fatalf("free=%d blocks=%d after release", a.Free(), a.FreeBlocksOnNode(1))
	}
}

func TestBuddySplitAndCoalesce(t *testing.T) {
	a := NewBuddyAllocator(1024*PageSize, 1)
	if a.FreeBlocksOnNode(0) != 2 {
		t.Fatalf("want 2 initial blocks")
	}
	// A single-frame alloc splits one block down to order 0.
	f := a.Alloc(0)
	if f == nil {
		t.Fatal("Alloc returned nil")
	}
	if got := a.FreeBlocksOnNode(0); got != 1 {
		t.Fatalf("free blocks after split = %d, want 1", got)
	}
	if a.Free() != 1023 {
		t.Fatalf("free = %d, want 1023", a.Free())
	}
	// Releasing it coalesces all the way back to a max-order block.
	a.Release(f)
	if got := a.FreeBlocksOnNode(0); got != 2 {
		t.Fatalf("free blocks after coalesce = %d, want 2", got)
	}
	if a.Free() != 1024 || a.Allocated() != 0 {
		t.Fatalf("free=%d allocated=%d after coalesce", a.Free(), a.Allocated())
	}
}

func TestBuddyContiguityExhaustionAndRecovery(t *testing.T) {
	a := NewBuddyAllocator(1024*PageSize, 1)
	single := a.Alloc(0) // fragments one block
	blk := a.AllocBlock(0)
	if blk == nil {
		t.Fatal("first AllocBlock failed")
	}
	if got := a.AllocBlock(0); got != nil {
		t.Fatal("AllocBlock should fail with no contiguity left")
	}
	// Fall back to singles from the fragmented block.
	got := a.AllocN(0, 511)
	if len(got) != 511 {
		t.Fatalf("AllocN got %d frames, want 511", len(got))
	}
	if a.Free() != 0 {
		t.Fatalf("free = %d, want 0", a.Free())
	}
	// Release everything; coalescing must rebuild both blocks.
	a.Release(single)
	for _, f := range got {
		a.Release(f)
	}
	a.ReleaseBlock(blk)
	if a.FreeBlocksOnNode(0) != 2 || a.Free() != 1024 {
		t.Fatalf("blocks=%d free=%d after full release, want 2/1024",
			a.FreeBlocksOnNode(0), a.Free())
	}
}

func TestBuddyDeterministicOrder(t *testing.T) {
	run := func() []uint64 {
		a := NewBuddyAllocator(2048*PageSize, 2)
		var ids []uint64
		var held []*Frame
		for i := 0; i < 700; i++ {
			f := a.Alloc(i % 2)
			ids = append(ids, f.ID)
			held = append(held, f)
			if i%3 == 0 {
				a.Release(held[len(held)/2])
				held = append(held[:len(held)/2], held[len(held)/2+1:]...)
			}
		}
		blk := a.AllocBlock(0)
		if blk != nil {
			ids = append(ids, blk.ID)
		}
		return ids
	}
	x, y := run(), run()
	if len(x) != len(y) {
		t.Fatalf("lengths differ: %d vs %d", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("divergence at op %d: %d vs %d", i, x[i], y[i])
		}
	}
}

func TestBuddyDoubleFreePanics(t *testing.T) {
	a := NewBuddyAllocator(1024*PageSize, 1)
	f := a.Alloc(0)
	a.Release(f)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	a.Release(f)
	_ = a
}
