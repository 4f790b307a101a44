package detutil

import "fmt"

// PageState is where a cached page is in its life: the one lifecycle both
// worlds' caches share (core.Page, host.cachedPage). Each world has one
// transition function, the only writer of a page's state: it refuses an edge
// the table below does not list, and it keeps the columns of the state it
// moves to true — index membership, the dirty counts, the busy event. The
// audits read the same table. DESIGN.md §3 "Page lifecycle" has the census.
type PageState uint8

const (
	PgNew                  PageState = iota // made, not yet published
	PgFilling                               // published, content in flight
	PgClean                                 // cached, same as the device
	PgDirty                                 // cached, newer than the device
	PgPoisoned                              // the fill failed for good: every access is SIGBUS
	PgQuarantined                           // a write-back failed for good: DRAM holds the only copy
	PgQuarantinedDirty                      // quarantined, and a store landed since
	PgClaimed                               // an eviction's victim
	PgClaimedDirty                          // a victim not yet cleaned, or requeued by a failed write
	PgClaimedQuarantined                    // a victim whose write-back failed for good
	PgDisplaced                             // a promotion's constituent: out of the index, frame kept
	PgDisplacedDirty                        // displaced, requeued by a failed write
	PgDisplacedQuarantined                  // displaced, its write-back failed for good
	PgGone                                  // out of the cache for good
	numPageStates
)

// tri is what a state says of one observation of its page.
type tri uint8

const (
	no tri = iota
	yes
	either
)

func (t tri) holds(b bool) bool { return t == either || b == (t == yes) }

// pageRow is one state. Dirty pages are counted while indexed. The twins are
// the state a store or a requeue (dirtied), a write-back's clean (cleaned) and
// a permanent write failure (quarantined) leave the page in, and the one a
// held page returns to when its holder lets it go (settled); PgNew is none.
type pageRow struct {
	name                                   string
	indexed, dirty                         bool
	busy, frame, listed                    tri // event armed; frame held; on an LRU list
	dirtied, cleaned, quarantined, settled PageState
	next                                   uint16 // the states it may move to
}

func to(states ...PageState) (m uint16) {
	for _, s := range states {
		m |= 1 << s
	}
	return m
}

var pageRows = [numPageStates]pageRow{
	//                       indexed dirty busy frame listed    dirtied cleaned quarantined settled
	PgNew:                  {"new", false, false, no, either, no, 0, 0, 0, 0, to(PgFilling, PgClean, PgDirty)},
	PgFilling:              {"filling", true, false, yes, either, either, 0, 0, 0, 0, to(PgClean, PgPoisoned, PgGone)},
	PgClean:                {"clean", true, false, no, yes, either, PgDirty, 0, PgQuarantined, 0, to(PgDirty, PgQuarantined, PgClaimed, PgDisplaced, PgGone)},
	PgDirty:                {"dirty", true, true, no, yes, either, PgDirty, PgClean, PgQuarantinedDirty, 0, to(PgClean, PgQuarantinedDirty, PgClaimedDirty, PgDisplaced, PgGone)},
	PgPoisoned:             {"poisoned", true, false, no, yes, yes, 0, 0, 0, 0, to(PgClaimed, PgGone)},
	PgQuarantined:          {"quarantined", true, false, no, yes, either, PgQuarantinedDirty, 0, PgQuarantined, 0, to(PgQuarantinedDirty, PgGone)},
	PgQuarantinedDirty:     {"quarantined-dirty", true, true, no, yes, either, PgQuarantinedDirty, PgQuarantined, PgQuarantinedDirty, 0, to(PgQuarantined, PgGone)},
	PgClaimed:              {"claimed", true, false, yes, yes, no, PgClaimedDirty, 0, PgClaimedQuarantined, 0, to(PgClaimedDirty, PgClaimedQuarantined, PgGone)},
	PgClaimedDirty:         {"claimed-dirty", true, true, yes, yes, either, PgClaimedDirty, PgClaimed, 0, PgDirty, to(PgClaimed, PgDirty)},
	PgClaimedQuarantined:   {"claimed-quarantined", true, false, yes, yes, no, 0, 0, 0, PgQuarantined, to(PgQuarantined)},
	PgDisplaced:            {"displaced", false, false, no, yes, no, PgDisplacedDirty, 0, PgDisplacedQuarantined, PgClean, to(PgDisplacedDirty, PgDisplacedQuarantined, PgClean, PgGone)},
	PgDisplacedDirty:       {"displaced-dirty", false, true, no, yes, no, PgDisplacedDirty, PgDisplaced, 0, PgDirty, to(PgDisplaced, PgDirty)},
	PgDisplacedQuarantined: {"displaced-quarantined", false, false, no, yes, no, 0, 0, 0, PgQuarantined, to(PgQuarantined)},
	PgGone:                 {"gone", false, false, either, either, no, 0, 0, 0, 0, 0},
}

func (s PageState) String() string { return pageRows[s].name }

// Legal reports whether a page may move from s to t.
func (s PageState) Legal(t PageState) bool { return pageRows[s].next&(1<<t) != 0 }

// The columns and twins of s (pageRow).
func (s PageState) Indexed() bool          { return pageRows[s].indexed }
func (s PageState) Dirty() bool            { return pageRows[s].dirty }
func (s PageState) Counted() bool          { return pageRows[s].indexed && pageRows[s].dirty }
func (s PageState) Busy() bool             { return pageRows[s].busy == yes }
func (s PageState) Unlisted() bool         { return pageRows[s].listed == no }
func (s PageState) Dirtied() PageState     { return pageRows[s].dirtied }
func (s PageState) Cleaned() PageState     { return pageRows[s].cleaned }
func (s PageState) Quarantined() PageState { return pageRows[s].quarantined }
func (s PageState) Settled() PageState     { return pageRows[s].settled }

// Audit holds a page found in its file's index to its state's row.
func (s PageState) Audit(busy, frame, listed bool) error {
	r := &pageRows[s]
	if !r.indexed || !r.busy.holds(busy) || !r.frame.holds(frame) || !r.listed.holds(listed) {
		return fmt.Errorf("%v page: indexed, busy=%v, framed=%v, listed=%v", s, busy, frame, listed)
	}
	return nil
}
