package mem

import (
	"bytes"
	"testing"
	"unsafe"
)

// TestCarvedBufferCapIsItsClass: a buffer carved from a slab has exactly its
// class's capacity, whatever its length, so Release files it under the class
// it came from.
func TestCarvedBufferCapIsItsClass(t *testing.T) {
	var p Buffers
	for n := LineSize; n <= PageSize; n += LineSize {
		b := p.alloc(n)
		if len(b) != n || cap(b) != LineSize<<class(n) {
			t.Fatalf("alloc(%d): len %d cap %d, want len %d cap %d", n, len(b), cap(b), n, LineSize<<class(n))
		}
	}
}

// TestCarvedBufferGrowthLeavesNeighbour: Put and Copy that grow a carved
// buffer past its class move into a larger buffer, and the buffer carved next
// to it in the same page keeps its bytes.
func TestCarvedBufferGrowthLeavesNeighbour(t *testing.T) {
	for _, op := range []string{"Put", "Copy"} {
		var p Buffers
		a, b := p.alloc(LineSize), p.alloc(LineSize)
		if uintptr(unsafe.Pointer(&a[0]))+LineSize != uintptr(unsafe.Pointer(&b[0])) {
			// alloc handed out two buffers that do not share a page: the
			// test would check nothing.
			t.Fatalf("%s: the first two lines of a fresh pool are not neighbours", op)
		}
		clear(a)
		a[0] = 1
		for i := range b {
			b[i] = 0xBB
		}
		want := bytes.Clone(b)
		src := bytes.Repeat([]byte{0xAA}, 2*LineSize)
		var got []byte
		if op == "Put" {
			got = p.Put(a, 0, src, len(src))
		} else {
			got = p.Copy(a, 0, src, len(src))
		}
		if !bytes.Equal(b, want) {
			t.Fatalf("%s grew a buffer into its neighbour: %x", op, b[:8])
		}
		if !bytes.Equal(got, src) || cap(got) != 2*LineSize {
			t.Fatalf("%s: got %d bytes, cap %d, want src in a %d-byte buffer", op, len(got), cap(got), 2*LineSize)
		}
	}
}

// TestReleasedBufferIsTakenAgain: the free list comes before the slab, so a
// released buffer is the next of its class handed out.
func TestReleasedBufferIsTakenAgain(t *testing.T) {
	var p Buffers
	for n := LineSize; n <= PageSize; n <<= 1 {
		b := p.alloc(n)
		p.alloc(n)
		p.Release(b)
		if c := p.alloc(n); &c[0] != &b[0] {
			t.Fatalf("class %d: alloc after Release did not return the released buffer", n)
		}
	}
}

// TestSlabsAreOnePage: a fresh pool's first 64 lines come from one 4 KB
// allocation and the 65th from a second; a reserved run of k pages is one
// allocation for k page-sized buffers, and the k+1th is one more.
func TestSlabsAreOnePage(t *testing.T) {
	p := new(Buffers)
	lines := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			*p = Buffers{}
			for range n {
				p.alloc(LineSize)
			}
		})
	}
	if a := lines(PageSize / LineSize); a != 1 {
		t.Errorf("%d first lines made %v allocations, want 1", PageSize/LineSize, a)
	}
	if a := lines(PageSize/LineSize + 1); a != 2 {
		t.Errorf("%d first lines made %v allocations, want 2", PageSize/LineSize+1, a)
	}
	const k = 16
	pages := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			*p = Buffers{}
			p.ReserveRun(k)
			for range n {
				if b := p.alloc(PageSize); cap(b) != PageSize {
					t.Fatalf("a page of the run has cap %d", cap(b))
				}
			}
		})
	}
	if a := pages(k); a != 1 {
		t.Errorf("a run of %d pages made %v allocations, want 1", k, a)
	}
	if a := pages(k + 1); a != 2 {
		t.Errorf("%d pages after a run of %d made %v allocations, want 2", k+1, k, a)
	}
}
