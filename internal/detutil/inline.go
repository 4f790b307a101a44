package detutil

import (
	"fmt"
	"slices"
)

// InlineList is a short list in insertion order whose first entry lives in
// the list's own record: a cached page's reverse mappings, nearly always one.
// One entry is kept in the record's slot; a second moves both to one heap
// object, and the entries move back when the list is down to one again. The
// zero T is never an entry — it marks the slot empty — so the list is the slot
// and one pointer. Read the entries with Slice and drop them all with Clear; a
// record holding a list must not be copied while it has an entry.
type InlineList[T comparable] struct {
	one  [1]T
	more *spill[T]
}

// spill holds a list of two or more entries. Its first two live in the same
// object, so a second entry is one allocation; a third grows s off it.
type spill[T comparable] struct {
	s   []T
	two [2]T
}

// Add appends v, which must not be the zero T.
func (l *InlineList[T]) Add(v T) {
	var zero T
	switch {
	case v == zero:
		panic(fmt.Sprintf("detutil: InlineList.Add of the zero %T", v))
	case l.more != nil:
		l.more.s = append(l.more.s, v)
	case l.one[0] == zero:
		l.one[0] = v
	default:
		// The slot keeps its copy of the first entry, unread while the
		// list is on the heap: a Slice taken before the move still holds it.
		sp := &spill[T]{two: [2]T{l.one[0], v}}
		sp.s = sp.two[:]
		l.more = sp
	}
}

// Remove drops the first entry equal to v, if there is one.
func (l *InlineList[T]) Remove(v T) {
	if l.more == nil {
		if l.one[0] == v {
			var zero T
			l.one[0] = zero
		}
		return
	}
	i := slices.Index(l.more.s, v)
	if i < 0 {
		return
	}
	s := slices.Delete(l.more.s, i, i+1)
	if len(s) > 1 {
		l.more.s = s
		return
	}
	l.one[0], l.more = s[0], nil
}

// Slice returns the entries in insertion order, nil when there are none. It
// is the list's own storage: valid until the next Add, Remove or Clear.
func (l *InlineList[T]) Slice() []T {
	if l.more != nil {
		return l.more.s
	}
	var zero T
	if l.one[0] == zero {
		return nil
	}
	return l.one[:]
}

// Len returns the number of entries.
func (l *InlineList[T]) Len() int {
	if l.more != nil {
		return len(l.more.s)
	}
	var zero T
	if l.one[0] == zero {
		return 0
	}
	return 1
}

// Clear drops every entry.
func (l *InlineList[T]) Clear() {
	var zero T
	l.one[0], l.more = zero, nil
}

// Inline reports whether the entries, if any, are kept in the record's slot.
func (l *InlineList[T]) Inline() bool { return l.more == nil }

// Check reports what the list's methods rule out: at most one entry kept off
// the record, or a zero entry on the heap.
func (l *InlineList[T]) Check() error {
	if l.more == nil {
		return nil
	}
	var zero T
	switch n := len(l.more.s); {
	case n <= 1:
		return fmt.Errorf("a list of %d kept outside the record's own slot", n)
	case slices.Contains(l.more.s, zero):
		return fmt.Errorf("a zero entry among %d on the heap", n)
	}
	return nil
}
