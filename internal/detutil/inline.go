package detutil

import "slices"

// InlineList is a short list in insertion order whose first entry lives in
// the list's own record: a cached page's reverse mappings, nearly always one.
// Up to one entry S is a slice of the record itself; a second moves them to
// the heap, and they move back when the list is down to one again. Read S
// freely and drop the whole list with S = nil; a record holding a list must
// not be copied while it has an entry.
type InlineList[T comparable] struct {
	S   []T
	one [1]T
}

// Add appends v.
func (l *InlineList[T]) Add(v T) {
	if len(l.S) == 0 {
		l.one[0] = v
		l.S = l.one[:1]
		return
	}
	l.S = append(l.S, v)
}

// Remove drops the first entry equal to v, if there is one.
func (l *InlineList[T]) Remove(v T) {
	i := slices.Index(l.S, v)
	if i < 0 {
		return
	}
	if l.S = slices.Delete(l.S, i, i+1); len(l.S) <= 1 {
		l.S = l.one[:copy(l.one[:], l.S)]
	}
}

// Inline reports whether S is backed by the record's own slot (or by nothing):
// what must hold whenever the list has at most one entry.
func (l *InlineList[T]) Inline() bool {
	return cap(l.S) == 0 || &l.S[:1][0] == &l.one[0]
}
