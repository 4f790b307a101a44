package detutil

// Scratch is a LIFO of idle scratch slices: the batch a reclaim round claims,
// the frames of one write-back run, the pages one fill owns. A stack, not one
// slice per owner: every simulated charge yields, so several procs are inside
// the same path at once and each holds its own; the stack grows to as many
// slices as were ever held together and a steady state borrows without
// allocating. Borrowers give back explicitly, never from a defer — a defer in
// a run loop allocates its closure per run, and a simulated crash unwinds
// through them (a slice lost to an unwind is garbage, not a double hand-out).
// The zero value is empty and ready.
type Scratch[T any] struct{ free [][]T }

// Borrow returns an empty slice to append to: an idle one with its capacity,
// or nil.
func (s *Scratch[T]) Borrow() []T {
	n := len(s.free)
	if n == 0 {
		return nil
	}
	b := s.free[n-1]
	s.free = s.free[:n-1]
	return b
}

// GiveBack clears b — an idle slice must keep nothing alive — and stacks it;
// the caller keeps no slice of it.
func (s *Scratch[T]) GiveBack(b []T) {
	if cap(b) == 0 {
		return
	}
	clear(b)
	s.free = append(s.free, b[:0])
}
