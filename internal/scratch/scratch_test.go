package scratch

import "testing"

func TestStackHandsEachHolderItsOwnBuffer(t *testing.T) {
	var s Stack
	a, b := s.Borrow(4096), s.Borrow(100)
	a[0], b[0] = 1, 2
	if a[0] != 1 || len(b) != 100 || cap(b) < minSize {
		t.Fatalf("two live borrows share memory or are mis-sized: len %d cap %d", len(b), cap(b))
	}
	s.GiveBack(a)
	s.GiveBack(b)
	// LIFO: the last one back is the first one out, resliced to the request.
	if c := s.Borrow(4096); &c[0] != &b[0] || len(c) != 4096 {
		t.Fatal("Borrow did not reuse the buffer given back last")
	}
	if c := s.Borrow(8); &c[0] != &a[0] {
		t.Fatal("Borrow did not reuse the buffer given back first")
	}
}

func TestStackReplacesATopThatIsTooSmall(t *testing.T) {
	var s Stack
	s.GiveBack(s.Borrow(10))
	big := s.Borrow(3 * minSize)
	if len(big) != 3*minSize {
		t.Fatalf("len %d", len(big))
	}
	s.GiveBack(big)
	if n := testing.AllocsPerRun(100, func() { s.GiveBack(s.Borrow(2 * minSize)) }); n != 0 {
		t.Errorf("steady-state borrow/give-back: %v allocs, want 0", n)
	}
}

func TestArenaNeverHandsOutAByteTwice(t *testing.T) {
	var a Arena
	var held [][]byte
	for i, n := range []int{1000, 0, 1, minSize, 3000, chunkSize, 5, chunkSize + 1, 1000, 31 << 10, 1000} {
		b := a.Alloc(n)
		if len(b) != n || cap(b) != n {
			t.Fatalf("request %d: len %d cap %d, want both %d", i, len(b), cap(b), n)
		}
		for j := range b {
			if b[j] != 0 {
				t.Fatalf("request %d: byte %d is %d, want a fresh zero", i, j, b[j])
			}
			b[j] = byte(i + 1)
		}
		held = append(held, b)
	}
	for i, b := range held {
		for j := range b {
			if b[j] != byte(i+1) {
				t.Fatalf("slice %d, byte %d: %d, want %d: a later request was handed its bytes", i, j, b[j], i+1)
			}
		}
	}
	// An append past a carve's end moves it: the next carve keeps its bytes.
	x, y := a.Alloc(8), a.Alloc(8)
	y[0] = 9
	_ = append(x, 1)
	if y[0] != 9 {
		t.Fatal("an append to one carve wrote into the next")
	}
}

func TestArenaCarvesByTheChunk(t *testing.T) {
	var a Arena
	const n = 1000
	if got := testing.AllocsPerRun(320, func() { a.Alloc(n) }); got > 0.05 {
		t.Errorf("%v allocs per value, want a chunk per %d", got, chunkSize/n)
	}
	if got := testing.AllocsPerRun(10, func() {
		if b := a.Alloc(chunkSize * 2); len(b) != chunkSize*2 {
			t.Fatal("short carve")
		}
	}); got != 1 {
		t.Errorf("a request larger than a chunk: %v allocs, want 1 (a chunk of its own)", got)
	}
}

func TestHeldLendsEachThreadItsOwnBuffer(t *testing.T) {
	var h Held
	a, b := h.Lend(3, 100), h.Lend(0, 100)
	a[0], b[0] = 1, 2
	if a[0] != 1 || len(h) != 4 || len(a) != 100 || cap(a) != 100 {
		t.Fatalf("two threads' buffers share memory or are mis-sized: len %d cap %d, %d threads", len(a), cap(a), len(h))
	}
	// A thread's next Lend reuses its buffer while it is long enough.
	if c := h.Lend(3, 40); &c[0] != &a[0] || len(c) != 40 || cap(c) != 40 {
		t.Fatal("a shorter Lend did not reuse the thread's buffer")
	}
	if c := h.Lend(3, 200); len(c) != 200 || h.Lend(0, 100)[0] != 2 {
		t.Fatal("a longer Lend was not grown, or touched another thread's buffer")
	}
	if n := testing.AllocsPerRun(100, func() { h.Lend(3, 150) }); n != 0 {
		t.Errorf("steady-state Lend: %v allocs, want 0", n)
	}
}
