package detutil

import (
	"fmt"
	"slices"
	"sort"
)

// Ranged is what a RangeSet holds: something that covers the addresses
// [start, end) and can be told from its neighbours.
type Ranged interface {
	comparable
	Bounds() (start, end uint64)
}

// RangeSet is the mapped ranges of one address space — Aquila's regions, a
// Linux process's VMAs — sorted by start and never overlapping (both worlds
// hand out addresses from a bump pointer). The models charge for the
// structure the paper names (a RadixVM radix tree, the kernel's rb-tree) where
// they use it; what the host keeps is this slice. The zero value is empty.
type RangeSet[R Ranged] struct{ list []R }

// Insert adds r, whose range must not be empty.
func (s *RangeSet[R]) Insert(r R) {
	start, end := r.Bounds()
	if end <= start {
		panic(fmt.Sprintf("detutil: bad range [%#x, %#x)", start, end))
	}
	i := sort.Search(len(s.list), func(i int) bool {
		at, _ := s.list[i].Bounds()
		return at >= start
	})
	s.list = slices.Insert(s.list, i, r)
}

// Remove takes r out, if it is in.
func (s *RangeSet[R]) Remove(r R) {
	if i := slices.Index(s.list, r); i >= 0 {
		s.list = slices.Delete(s.list, i, i+1)
	}
}

// Find returns the range containing addr, or the zero R.
func (s *RangeSet[R]) Find(addr uint64) (r R) {
	i := sort.Search(len(s.list), func(i int) bool {
		_, end := s.list[i].Bounds()
		return end > addr
	})
	if i < len(s.list) {
		if start, _ := s.list[i].Bounds(); start <= addr {
			r = s.list[i]
		}
	}
	return r
}

// List returns the ranges in address order; it is the set's own slice, to
// read.
func (s *RangeSet[R]) List() []R { return s.list }
