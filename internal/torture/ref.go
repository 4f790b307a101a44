package torture

import "slices"

// The reference: an executable statement of the mmap+msync contract, and the
// only torture code that decides what a record may hold. Every record — a
// file slot or a Kreon key — is a cell of numbered versions: version 0 is the
// initial content (zeros, an absent key), and each store or put begun is the
// next number. One rule covers both kinds:
//
//   - A live read sees a version in [floor when it began, issued when it
//     ended]: the oldest version memory may hold, up to the newest begun.
//     floor is the latest completed store's version, lowered to any store
//     that was in flight beside it (its copy may have landed later).
//   - An msync acks, on nil, the floor each cell had when the msync *began*:
//     a store that completes during another thread's msync is maybe
//     durable, not acked. After a crash a cell holds a version in
//     [acked, issued].
//   - A store that faults mid-copy (SIGBUS) makes the cell unknown for every
//     window it falls in; a sync error taints its file, which acks nothing
//     from then on (errseq reports each error to one caller per opener, so a
//     later nil no longer means "all durable").
//
// A window may admit more than memory can hold; it never admits less, so the
// reference under-approximates the contract the way the oracles need.
type ref struct {
	files   [][]cell // plan files in order, then the Kreon store's keys
	tainted []bool
}

type cell struct {
	issued uint64   // the newest version a store began
	floor  uint64   // the oldest version memory may hold
	acked  uint64   // the oldest version the device may hold after a crash
	junk   uint64   // the newest version whose store faulted mid-copy (0: none)
	flight []flight // stores begun and not ended
}

// flight is a store in progress: its version, and the oldest version in
// flight when it began, which may overwrite it.
type flight struct{ v, low uint64 }

func newRef(pl *Plan) *ref {
	r := &ref{}
	for _, f := range pl.Files {
		r.files = append(r.files, make([]cell, f.Slots))
	}
	if pl.Kreon != nil {
		r.files = append(r.files, make([]cell, pl.Kreon.Keys))
	}
	r.tainted = make([]bool, len(r.files))
	return r
}

// begin starts a store and returns its version.
func (c *cell) begin() uint64 {
	c.issued++
	low := c.issued
	for _, fl := range c.flight {
		low = min(low, fl.v)
	}
	c.flight = append(c.flight, flight{c.issued, low})
	return c.issued
}

// end completes store v; copied is false when it faulted mid-copy.
func (c *cell) end(v uint64, copied bool) {
	if !copied {
		c.junk = v
	}
	i := slices.IndexFunc(c.flight, func(fl flight) bool { return fl.v == v })
	c.floor = c.flight[i].low
	c.flight = slices.Delete(c.flight, i, i+1)
	for _, fl := range c.flight {
		c.floor = min(c.floor, fl.v)
	}
}

// holds reports whether content is (is says) some version in [lo, hi], or
// may be garbage from a faulted store in that window.
func (c *cell) holds(lo, hi uint64, is func(v uint64) bool) bool {
	if c.junk != 0 && c.junk >= lo {
		return true
	}
	for v := lo; v <= hi; v++ {
		if is(v) {
			return true
		}
	}
	return false
}

// syncBegin starts an msync over cells [lo, hi) of file f: what it may ack
// is what had completed by now.
func (r *ref) syncBegin(f, lo, hi int) []uint64 {
	snap := make([]uint64, hi-lo)
	for i := range snap {
		snap[i] = r.files[f][lo+i].floor
	}
	return snap
}

// syncEnd returns a sync of file f that began with snap (nil for fsync, which
// acks nothing) over the cells from lo on. It reports whether it acked.
func (r *ref) syncEnd(f, lo int, snap []uint64, err error) bool {
	if err != nil {
		r.tainted[f] = true
	}
	if r.tainted[f] || snap == nil {
		return false
	}
	for i, v := range snap {
		c := &r.files[f][lo+i]
		c.acked = max(c.acked, v)
	}
	return true
}
