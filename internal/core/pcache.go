package core

import (
	"fmt"
	"slices"

	"aquila/internal/detutil"
	"aquila/internal/sim/engine"
	"aquila/internal/sim/mem"
)

const pageSize = mem.PageSize

// Huge-page geometry: one 2 MB unit covers a 512-page, 2 MB-aligned extent.
const (
	hugePages = mem.BlockFrames          // 512 base pages per unit
	hugeShift = mem.MaxOrder             // log2(hugePages)
	hugeBytes = hugePages * mem.PageSize // == pagetable.Size2M
)

// One leaf of a file's page index is one huge-page extent: a unit is found in
// its own leaf, and a leaf's population is the extent's 4 KB residency
// (lookupPage, shouldPromote, hugeFault). Does not compile unless equal.
const _ = -uint(hugePages ^ detutil.LeafSlots)

// Page is one page of Aquila's DRAM I/O cache. The record is self-contained:
// its busy event lives inside it, so a cold major fault is one host
// allocation (DESIGN.md §3). It holds only what every page needs — a 2 MB unit
// is its base frame, a poisoned page's fault lives in Runtime.poisoned, the
// virtual addresses mapping it are found through its file's regions
// (Runtime.appendVAs) — with the small fields together, which keeps it in the
// 64-byte size class (DESIGN.md §3 "Page records").
type Page struct {
	file *fileState
	idx  uint64
	// frame holds the page's content. A 2 MB unit's is the base frame of its
	// block: the extent's page i is in frame.BlockFrame(i).
	frame *mem.Frame
	// ev is armed and unfired while the page is busy — its content in flight
	// (fill) or eviction's claim on it not yet released — and racing faulters
	// wait on it (the per-entry locking of §3.4). One event serves every busy
	// period of the page; ask busy(), never the event.
	ev engine.Event
	// lruSeq is the fault sequence number of the page's newest LRU record;
	// older queue entries are stale and skipped lazily.
	lruSeq uint64
	// dirtyCore is the core that dirtied the page — whose turn in an msync
	// collects it (§3.2's per-core dirty trees); meaningful while dirty.
	dirtyCore int32
	// pins guards pages being used across a blocking point.
	pins int32
	// state is where the page is in its life; move is its only writer.
	state detutil.PageState
	// huge marks a 2 MB unit: one cache entry (stored under the extent's
	// base index) covering 512 contiguous frames. Dirtiness, LRU position
	// and writeback are tracked for the unit as a whole.
	huge bool
	// writebacks is PG_writeback: the write-backs in flight that cleaned the
	// page, each counted until its write completes. An msync that finds
	// one waits it out.
	writebacks uint8
}

// appendFrames appends the frames the page's content is in to dst, in page
// order: a unit's 512, a 4 KB page's one.
func (pg *Page) appendFrames(dst []*mem.Frame) []*mem.Frame {
	if !pg.huge {
		return append(dst, pg.frame)
	}
	return appendBlock(dst, pg.frame)
}

// appendBlock appends the 512 frames of the 2 MB block based at base to dst.
func appendBlock(dst []*mem.Frame, base *mem.Frame) []*mem.Frame {
	dst = slices.Grow(dst, hugePages)
	for i := range hugePages {
		dst = append(dst, base.BlockFrame(i))
	}
	return dst
}

// busy reports whether the page is inside a busy period: filling, or claimed
// by eviction and not yet released.
func (pg *Page) busy() bool { return !pg.ev.Fired() }

// EventName names the busy period a waiter on the page's event waits out
// (engine.EventNamer); only the engine's deadlock diagnostic asks. A claimed
// page is eviction's victim; any other busy page is filling, or went gone from
// filling before its fill's Fire (eviction fires before a victim goes).
func (pg *Page) EventName() string {
	switch {
	case pg.state.Busy() && pg.state != detutil.PgFilling: // claimed
		return "evict"
	case pg.huge:
		return fmt.Sprintf("aqhuge:%s:%d", pg.file.name, pg.idx)
	}
	return fmt.Sprintf("aqio:%s:%d", pg.file.name, pg.idx)
}

// pages returns how many base pages the entry accounts for (512 for a huge
// unit, 1 otherwise).
func (pg *Page) pages() int {
	if pg.huge {
		return hugePages
	}
	return 1
}

// FileName returns the name of the file the page caches (policy hooks).
func (pg *Page) FileName() string { return pg.file.name }

// fileState is Aquila's per-file bookkeeping. The backing handle is owned by
// the I/O engine (an SPDK blob, a DAX file, or a host file for the HOST-*
// engines).
type fileState struct {
	id      uint64
	name    string
	size    uint64
	backing any
	// wbErr is the errseq-style writeback error sequence: every failed
	// writeback of one of this file's pages records here, and each sync
	// caller (mapping or open file) drains it once via its own cursor.
	wbErr errseq
	// pages is the file's part of the cache index (§3.2's hash, as the host
	// keeps it): the cached pages by page index, a 2 MB unit under its
	// extent's base index. Host-side bookkeeping: the hash's simulated costs
	// are charged where its callers probe, insert and remove.
	pages detutil.PageIndex[Page]
	// regions are the file's mappings, in creation order: the reverse map
	// (Linux's i_mmap). A page's virtual addresses are its index in each
	// region that covers it (Runtime.appendVAs). The list starts in region1,
	// so a file mapped once at a time — every round of a fault workload's new
	// file — allocates no list.
	regions []*Region
	region1 [1]*Region
}

// Name returns the file's name.
func (f *fileState) Name() string { return f.name }

// Size returns the file's size in bytes.
func (f *fileState) Size() uint64 { return f.size }

// lruApprox is the paper's LRU approximation (§3.2): the LRU order is
// updated only on page faults (hits are invisible to software by design), and
// recording is per-core so the hot path shares nothing. Victim selection
// k-way-merges the per-core FIFO queues by global fault sequence.
//
// A queue entry is live while its page's lruSeq is the entry's seq; it dies —
// for good, seqs are never reused — when the page is recorded again or stops
// being resident (forget). Selection skips dead entries at no simulated cost,
// so dropping them earlier changes nothing it does; sweep drops them once
// they outnumber the live ones, which is what lets the pages of a deleted
// file go while nothing evicts. Selection zeroes every slot it moves head
// past, so the consumed prefix holds no page and an evicted page's record is
// garbage once nothing else holds it (CheckInvariants checks the prefix).
type lruApprox struct {
	rt     *Runtime
	queues []lruQueue
	seq    uint64
	queued int // entries at or past their queue's head
	dead   int // of those, the dead
}

type lruQueue struct {
	entries []lruEntry
	head    int // entries before head are consumed, and zero
}

type lruEntry struct {
	pg  *Page
	seq uint64
}

func newLRU(rt *Runtime) *lruApprox {
	return &lruApprox{rt: rt, queues: make([]lruQueue, rt.e.NumCPUs())}
}

// push appends pg's newest record to q; the page's previous entry, if it has
// one, is dead from here on.
func (l *lruApprox) push(q *lruQueue, pg *Page) {
	l.forget(pg)
	l.seq++
	pg.lruSeq = l.seq
	q.entries = append(q.entries, lruEntry{pg, l.seq})
	l.queued++
}

// forget kills pg's queue entry, if it has one: the page was recorded again,
// or is no longer resident (evicted by promotion, deleted, split).
func (l *lruApprox) forget(pg *Page) {
	if pg.lruSeq == 0 {
		return
	}
	pg.lruSeq = 0
	l.dead++
	if l.dead > lruSweepMinDead && 2*l.dead > l.queued {
		l.sweep()
	}
}

// lruCompactMin is the consumed prefix below which compact is not worth a
// copy. A queue's array holds its entries and at most about as many consumed
// slots again, or this many: a queue per CPU of every evicting world keeps
// them all.
const lruCompactMin = 256

// lruSweepMinDead is the number of dead entries below which sweep is not
// worth a pass over the queues.
const lruSweepMinDead = 4096

// sweep filters every queue down to its live entries, in place and in order.
func (l *lruApprox) sweep() {
	for i := range l.queues {
		q := &l.queues[i]
		live := q.entries[:0]
		for _, e := range q.entries[q.head:] {
			if e.pg.lruSeq == e.seq {
				live = append(live, e)
			}
		}
		clear(q.entries[len(live):]) // the dropped entries' pages are the point
		q.entries, q.head = live, 0
	}
	l.queued -= l.dead
	l.dead = 0
}

// record notes a fault on pg at the calling core.
func (l *lruApprox) record(p *engine.Proc, pg *Page) {
	l.push(&l.queues[p.CPU()], pg)
	l.rt.charge(p, "lru", costLRUAppend)
}

// recordBulk appends a batch of pages created by one operation (huge-unit
// split) to the calling core's queue, charging the append cost once per page
// in a single batched charge.
func (l *lruApprox) recordBulk(p *engine.Proc, pages []*Page) {
	if len(pages) == 0 {
		return
	}
	q := &l.queues[p.CPU()]
	for _, pg := range pages {
		l.push(q, pg)
	}
	l.rt.charge(p, "lru", costLRUAppend*uint64(len(pages)))
}

// selectVictims pops least-recently-faulted resident pages until n frames
// worth have been selected, skipping stale entries, pinned pages and pages
// with in-flight I/O. The budget is frames, not entries: a 2 MB unit counts
// as its 512 constituents, so one batch never grabs a cache's worth of huge
// units and starves every other reclaimer past its stall budget. Selected
// pages are removed from the hash table immediately, so no new faults can
// map them.
func (l *lruApprox) selectVictims(p *engine.Proc, n int) []*Page {
	victims := l.rt.pageBufs.Borrow()
	frames := 0
	attempts := 0
	// Preference (rt.Prefer) is honored on a best-effort budget; past it,
	// selection falls back to plain LRU order so eviction always proceeds.
	preferBudget := 2 * n
	for frames < n && attempts < 4*n+1024 {
		attempts++
		best := -1
		var bestSeq uint64
		for i := range l.queues {
			q := &l.queues[i]
			// Drop stale heads lazily.
			for q.head < len(q.entries) {
				e := q.entries[q.head]
				if e.pg.lruSeq == e.seq {
					break
				}
				q.entries[q.head] = lruEntry{}
				q.head++
				l.queued--
				l.dead--
			}
			if q.head >= len(q.entries) {
				continue
			}
			e := q.entries[q.head]
			if best == -1 || e.seq < bestSeq {
				best, bestSeq = i, e.seq
			}
		}
		if best == -1 {
			break
		}
		q := &l.queues[best]
		pg := q.entries[q.head].pg
		q.entries[q.head] = lruEntry{}
		q.head++
		l.compact(q)
		if pg.state == detutil.PgQuarantined || pg.state == detutil.PgQuarantinedDirty {
			// Quarantined pages are pinned in DRAM forever (their only good
			// copy); drop the entry, do not requeue.
			l.queued--
			pg.lruSeq = 0
			continue
		}
		if pg.pins > 0 || pg.busy() {
			// Busy: requeue at the tail so it stays evictable later.
			q.entries = append(q.entries, lruEntry{pg, pg.lruSeq})
			continue
		}
		if l.rt.Prefer != nil && attempts < preferBudget && !l.rt.Prefer(pg) {
			q.entries = append(q.entries, lruEntry{pg, pg.lruSeq})
			continue
		}
		// Mark the page busy but leave it in the hash table until its
		// write-back completes: faulters wait instead of re-reading
		// stale device content. Selection itself charges no simulated
		// time here — the real structure is lock-free (CAS pops), so
		// the per-victim cost is charged by the caller outside the
		// selection critical section.
		l.queued--
		pg.lruSeq = 0
		l.rt.claim(pg)
		victims = append(victims, pg)
		frames += pg.pages()
	}
	return victims
}

// claim makes pg an eviction's victim.
func (rt *Runtime) claim(pg *Page) {
	if pg.state.Dirty() {
		rt.move(pg, detutil.PgClaimedDirty)
	} else {
		rt.move(pg, detutil.PgClaimed)
	}
}

// move is the one writer of pg.state (DESIGN.md §3 "Page lifecycle"). It
// panics on an edge the lifecycle does not list and on a pinned page leaving
// the cache, and it keeps the new state's columns true: it files the page in
// its index or takes it out, kills its LRU entry if the state is never listed,
// moves the per-core dirty count and arms the event of a page turning busy.
// Firing the event is the caller's: waiters wake when the work they wait for
// is done, which may be after the move.
func (rt *Runtime) move(pg *Page, to detutil.PageState) {
	from := pg.state
	if !from.Legal(to) || to == detutil.PgGone && pg.pins > 0 {
		panic(fmt.Sprintf("core: page (%s,%d): %v → %v with %d pins", pg.file.name, pg.idx, from, to, pg.pins))
	}
	if to.Indexed() && !from.Indexed() {
		if at := rt.lookupPage(pg.file, pg.idx); at != nil {
			panic(fmt.Sprintf("core: page (%s,%d): %v → %v over a %v page", pg.file.name, pg.idx, from, to, at.state))
		}
		pg.file.pages.Insert(pg.idx, pg)
	} else if from.Indexed() && !to.Indexed() {
		pg.file.pages.Remove(pg.idx, pg)
	}
	if to.Unlisted() {
		rt.lru.forget(pg)
	}
	if to.Counted() && !from.Counted() {
		rt.dirtyOn[pg.dirtyCore]++
	} else if from.Counted() && !to.Counted() {
		rt.dirtyOn[pg.dirtyCore]--
	}
	if from == detutil.PgPoisoned {
		delete(rt.poisoned, pg)
	}
	if to.Busy() && !from.Busy() {
		pg.ev.Arm()
	}
	pg.state = to
}

// compact drops the consumed prefix of a queue once it is most of it and
// longer than lruCompactMin. It keeps the entries' order, so selection is
// the same whenever it runs.
func (l *lruApprox) compact(q *lruQueue) {
	if q.head > lruCompactMin && q.head*2 > len(q.entries) {
		n := copy(q.entries, q.entries[q.head:])
		clear(q.entries[n:])
		q.entries, q.head = q.entries[:n], 0
	}
}
