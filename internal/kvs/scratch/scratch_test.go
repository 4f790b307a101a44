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
