package detutil

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// mapping has the shape of a host page's reverse-map entry: a pointer and a
// virtual address.
type mapping struct {
	owner *int
	va    uint64
}

// TestInlineListKeepsInsertionOrder: entries read back in the order they were
// added, through the move to the heap, removals from the middle and both ends,
// and a removal of what is not there.
func TestInlineListKeepsInsertionOrder(t *testing.T) {
	var l InlineList[uint64]
	if l.Slice() != nil || l.Len() != 0 || !l.Inline() {
		t.Fatalf("a zero list: %v, len %d, inline %v", l.Slice(), l.Len(), l.Inline())
	}
	want := []uint64{}
	check := func(when string) {
		t.Helper()
		if got := l.Slice(); !slices.Equal(got, want) || l.Len() != len(want) {
			t.Fatalf("%s: %v (len %d), want %v", when, got, l.Len(), want)
		}
		if err := l.Check(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	for v := uint64(1); v <= 6; v++ {
		l.Add(v)
		want = append(want, v)
		check(fmt.Sprintf("add %d", v))
	}
	for _, v := range []uint64{3, 9, 1, 6, 4} {
		l.Remove(v)
		if i := slices.Index(want, v); i >= 0 {
			want = slices.Delete(want, i, i+1)
		}
		check(fmt.Sprintf("remove %d", v))
	}
	l.Add(7)
	want = append(want, 7)
	check("add 7 after removals")
	l.Clear()
	want = nil
	check("clear")
	if l.Slice() != nil || !l.Inline() {
		t.Fatalf("a cleared list: %v, inline %v", l.Slice(), l.Inline())
	}
}

// TestInlineListMovesBackIntoTheRecord: one entry is in the record's slot, a
// second moves both to the heap, and the survivor of either one's removal
// moves back into the slot.
func TestInlineListMovesBackIntoTheRecord(t *testing.T) {
	for _, gone := range []uint64{10, 20} {
		var l InlineList[uint64]
		l.Add(10)
		if s := l.Slice(); !l.Inline() || &s[0] != &l.one[0] {
			t.Fatal("one entry is not kept in the record's slot")
		}
		l.Add(20)
		if l.Inline() || l.Len() != 2 {
			t.Fatalf("two entries: inline %v, len %d", l.Inline(), l.Len())
		}
		l.Remove(gone)
		s := l.Slice()
		if !l.Inline() || len(s) != 1 || &s[0] != &l.one[0] || s[0] != 30-gone {
			t.Fatalf("removing %d of two: %v, inline %v, want [%d] in the slot", gone, s, l.Inline(), 30-gone)
		}
		l.Remove(30 - gone)
		if l.Len() != 0 || l.Slice() != nil {
			t.Fatalf("removing the last entry left %v", l.Slice())
		}
	}
}

// TestInlineListRefusesTheZeroEntry: the zero T marks the slot empty, so Add
// panics on it rather than lose the list.
func TestInlineListRefusesTheZeroEntry(t *testing.T) {
	var l InlineList[mapping]
	l.Add(mapping{new(int), 0x6000_0000_0000})
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		l.Add(mapping{})
		return ""
	}()
	if !strings.Contains(msg, "InlineList.Add of the zero") {
		t.Fatalf("Add of the zero entry: panic %q", msg)
	}
	if l.Len() != 1 || !l.Inline() {
		t.Fatalf("after the refused Add: len %d, inline %v", l.Len(), l.Inline())
	}
}

// TestInlineListSecondEntryIsOneAllocation: the first entry costs nothing, the
// second one object holding both, and the move back into the slot nothing.
// Each list is the slot and one pointer.
func TestInlineListSecondEntryIsOneAllocation(t *testing.T) {
	if got := unsafe.Sizeof(InlineList[uint64]{}); got != 16 {
		t.Errorf("InlineList[uint64] is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(InlineList[mapping]{}); got != 24 {
		t.Errorf("InlineList[mapping] is %d bytes, want 24", got)
	}
	u, m := new(InlineList[uint64]), new(InlineList[mapping])
	owner := new(int)
	for _, c := range []struct {
		name string
		want float64
		run  func()
	}{
		{"first entry", 0, func() { u.Add(0x6000_0000_0000); u.Clear() }},
		{"second entry", 1, func() { u.Add(0x6000_0000_0000); u.Add(0x6000_0000_1000); u.Clear() }},
		{"second entry and back", 1, func() {
			u.Add(0x6000_0000_0000)
			u.Add(0x6000_0000_1000)
			u.Remove(0x6000_0000_0000)
			u.Remove(0x6000_0000_1000)
		}},
		{"second mapping", 1, func() { m.Add(mapping{owner, 1}); m.Add(mapping{owner, 2}); m.Clear() }},
	} {
		if got := testing.AllocsPerRun(100, c.run); got != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, got, c.want)
		}
	}
}

// TestInlineListCheck: the shapes the methods never leave — at most one entry
// kept off the record, a zero entry on the heap — are what Check names, and
// what both worlds' page audits report through it.
func TestInlineListCheck(t *testing.T) {
	var l InlineList[uint64]
	l.Add(0x6000_0000_0000)
	l.Add(0x6000_0000_1000)
	if err := l.Check(); err != nil {
		t.Fatalf("two entries on the heap: %v", err)
	}
	for _, c := range []struct {
		name string
		s    []uint64
		want string
	}{
		{"one entry on the heap", []uint64{0x6000_0000_0000}, "a list of 1 kept outside the record's own slot"},
		{"none on the heap", []uint64{}, "a list of 0 kept outside the record's own slot"},
		{"a zero entry", []uint64{0x6000_0000_0000, 0}, "a zero entry among 2 on the heap"},
	} {
		bad := InlineList[uint64]{more: &spill[uint64]{s: c.s}}
		if err := bad.Check(); err == nil || err.Error() != c.want {
			t.Errorf("%s: Check = %v, want %q", c.name, err, c.want)
		}
	}
}
