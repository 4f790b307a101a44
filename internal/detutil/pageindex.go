package detutil

import (
	"fmt"
	"iter"
)

// Leaf geometry of a PageIndex: one leaf holds the pages of one 512-page,
// 2 MB-aligned extent of the file — a huge-page unit's worth.
const (
	LeafShift = 9
	LeafSlots = 1 << LeafShift
)

// Leaf is the slots of one extent, indexed by the page index's low bits; an
// absent page is a nil slot. Exactly one 4 KB allocation.
type Leaf[P any] [LeafSlots]*P

// LeafPool is a LIFO of empty leaves shared by the indexes of one owner (a
// runtime, a filesystem): a leaf a delete empties serves the next file's
// first insert, so a create/touch/delete round allocates none. The zero value
// is ready to use.
type LeafPool[P any] struct{ free []*Leaf[P] }

func (lp *LeafPool[P]) get() *Leaf[P] {
	n := len(lp.free)
	if n == 0 {
		return new(Leaf[P])
	}
	l := lp.free[n-1]
	lp.free[n-1] = nil
	lp.free = lp.free[:n-1]
	return l
}

// PageIndex is a file's cached pages keyed by page index: a directory of
// leaves, one per extent that holds a page. A lookup is two indexed loads, and
// every walk is in ascending index order by construction — no walk of it can
// leak an iteration order into the simulation the way a map's would. The
// directory grows with the highest extent in use and never past the bound the
// owner reserved.
type PageIndex[P any] struct {
	dir   []extent[P]
	limit uint64 // indexes below it may be inserted
	n     int
	pool  *LeafPool[P]
}

// extent is one directory entry; leaf is nil exactly when n is zero. The
// population lives here, not in the leaf, to keep the leaf in the 4 KB class.
type extent[P any] struct {
	leaf *Leaf[P]
	n    int
}

// NewPageIndex returns an empty index for page indexes below limit whose
// leaves come from, and go back to, pool.
func NewPageIndex[P any](pool *LeafPool[P], limit uint64) PageIndex[P] {
	return PageIndex[P]{pool: pool, limit: limit}
}

// Reserve raises the bound to limit if it is below it: the owner calls it
// with a size it trusts (the file's, a mapping's), never with a faulting
// index.
func (x *PageIndex[P]) Reserve(limit uint64) { x.limit = max(x.limit, limit) }

// Len returns the number of pages in the index.
func (x *PageIndex[P]) Len() int { return x.n }

// Get returns the page at idx, or nil.
func (x *PageIndex[P]) Get(idx uint64) *P {
	if l, _ := x.Extent(idx >> LeafShift); l != nil {
		return l[idx&(LeafSlots-1)]
	}
	return nil
}

// Extent returns the leaf of extent ext — the pages at indexes
// [ext<<LeafShift, (ext+1)<<LeafShift) — and how many it holds, or nil and
// zero when it holds none.
func (x *PageIndex[P]) Extent(ext uint64) (*Leaf[P], int) {
	if ext >= uint64(len(x.dir)) {
		return nil, 0
	}
	e := &x.dir[ext]
	return e.leaf, e.n
}

// Insert files p at idx. An index at or past the reserved bound and a slot
// already taken are the caller's bugs: the first would size the directory by
// a number nothing vouched for, the second is one (file, index) with two
// owners.
func (x *PageIndex[P]) Insert(idx uint64, p *P) {
	if idx >= x.limit {
		panic(fmt.Sprintf("detutil: page index %d beyond the %d pages reserved", idx, x.limit))
	}
	ext := idx >> LeafShift
	if n := uint64(len(x.dir)); ext >= n {
		x.dir = append(x.dir, make([]extent[P], ext+1-n)...)
	}
	e := &x.dir[ext]
	if e.leaf == nil {
		e.leaf = x.pool.get()
	}
	slot := &e.leaf[idx&(LeafSlots-1)]
	if *slot != nil {
		panic(fmt.Sprintf("detutil: page index %d inserted twice", idx))
	}
	*slot = p
	e.n++
	x.n++
}

// Remove takes p out of the index if it is what idx holds, and reports
// whether it was. The leaf a removal empties goes back to the pool.
func (x *PageIndex[P]) Remove(idx uint64, p *P) bool {
	l, _ := x.Extent(idx >> LeafShift)
	if l == nil || p == nil || l[idx&(LeafSlots-1)] != p {
		return false
	}
	l[idx&(LeafSlots-1)] = nil
	x.n--
	if e := &x.dir[idx>>LeafShift]; e.n > 1 {
		e.n--
	} else {
		*e = extent[P]{}
		x.pool.free = append(x.pool.free, l)
	}
	return true
}

// All walks every page in ascending index order. The index must not change
// during a walk.
func (x *PageIndex[P]) All() iter.Seq2[uint64, *P] { return x.Range(0, ^uint64(0)) }

// Range walks the pages at indexes [lo, hi) in ascending order.
func (x *PageIndex[P]) Range(lo, hi uint64) iter.Seq2[uint64, *P] {
	return func(yield func(uint64, *P) bool) {
		for ext := lo >> LeafShift; ext < uint64(len(x.dir)) && ext<<LeafShift < hi; ext++ {
			l := x.dir[ext].leaf
			if l == nil {
				continue
			}
			base := ext << LeafShift
			first, end := uint64(0), uint64(LeafSlots)
			if lo > base {
				first = lo - base
			}
			if hi-base < end {
				end = hi - base
			}
			for i := first; i < end; i++ {
				if p := l[i]; p != nil && !yield(base+i, p) {
					return
				}
			}
		}
	}
}

// Check audits the index against a recount: every linked leaf holds the
// pages its entry says, none is linked empty, and the populations sum to Len.
// Whether a page sits at its own index is the owner's to check in a walk.
func (x *PageIndex[P]) Check() error {
	total := 0
	for ext, e := range x.dir {
		n := 0
		if e.leaf != nil {
			for _, p := range e.leaf {
				if p != nil {
					n++
				}
			}
		}
		switch {
		case n != e.n:
			return fmt.Errorf("extent %d: population %d != recount %d", ext, e.n, n)
		case e.leaf != nil && n == 0:
			return fmt.Errorf("extent %d: empty leaf still linked", ext)
		}
		total += n
	}
	if total != x.n {
		return fmt.Errorf("index population %d != recount %d", x.n, total)
	}
	if uint64(len(x.dir)) > (x.limit+LeafSlots-1)>>LeafShift {
		return fmt.Errorf("directory of %d extents past the %d pages reserved", len(x.dir), x.limit)
	}
	return nil
}
