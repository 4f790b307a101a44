package core

import (
	"fmt"

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

// pageKey identifies a cached page: file id + page index.
type pageKey struct {
	fid uint64
	idx uint64
}

// Page is one page of Aquila's DRAM I/O cache.
type Page struct {
	file  *fileState
	idx   uint64
	frame *mem.Frame
	dirty bool
	// io is non-nil and unfired while the page's content is in flight;
	// racing faulters wait on it (the per-entry locking of §3.4).
	io *engine.Event
	// vas are the virtual addresses currently mapping the page.
	vas []uint64
	// dirtyCore is the core whose red-black tree holds the page while dirty.
	dirtyCore int
	// lruSeq is the fault sequence number of the page's newest LRU record;
	// older queue entries are stale and skipped lazily.
	lruSeq uint64
	// resident is cleared when eviction claims the page.
	resident bool
	// pins guards pages being used across a blocking point.
	pins int
	// poison is set when the page's fill I/O failed permanently: the frame
	// holds no valid content and any access delivers SIGBUS carrying this
	// fault. Poisoned pages stay in the hash so re-faults fail fast.
	poison *IOFault
	// quarantined marks a dirty page whose writeback failed permanently: it
	// keeps its frame, is never re-selected by eviction, and is never
	// silently dropped — the in-DRAM copy is the only good one.
	quarantined bool
	// huge marks a 2 MB unit: one cache entry (stored under the extent's
	// base index) covering 512 contiguous frames. frame aliases frames[0] so
	// size-agnostic code keeps working; dirtiness, LRU position and
	// writeback are tracked for the unit as a whole.
	huge   bool
	frames []*mem.Frame
}

// EventName names the page's fill event (engine.EventNamer); only the
// engine's deadlock diagnostic asks.
func (pg *Page) EventName() string {
	if pg.huge {
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

// Key returns the page's hash key.
func (pg *Page) Key() pageKey { return pageKey{pg.file.id, pg.idx} }

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
	// extResident counts resident 4 KB pages per 2 MB extent (key idx>>9),
	// feeding the promotion-density trigger. Maintained only with huge pages
	// enabled; host-side bookkeeping, no simulated cost.
	extResident map[uint64]int
}

// Name returns the file's name.
func (f *fileState) Name() string { return f.name }

// Size returns the file's size in bytes.
func (f *fileState) Size() uint64 { return f.size }

// lruApprox is the paper's LRU approximation (§3.2): the LRU order is
// updated only on page faults (hits are invisible to software by design), and
// recording is per-core so the hot path shares nothing. Victim selection
// k-way-merges the per-core FIFO queues by global fault sequence.
type lruApprox struct {
	rt     *Runtime
	queues []lruQueue
	seq    uint64
}

type lruQueue struct {
	entries []lruEntry
	head    int
}

type lruEntry struct {
	pg  *Page
	seq uint64
}

func newLRU(rt *Runtime) *lruApprox {
	return &lruApprox{rt: rt, queues: make([]lruQueue, rt.e.NumCPUs())}
}

// record notes a fault on pg at the calling core.
func (l *lruApprox) record(p *engine.Proc, pg *Page) {
	l.seq++
	pg.lruSeq = l.seq
	q := &l.queues[p.CPU()]
	q.entries = append(q.entries, lruEntry{pg, l.seq})
	l.rt.charge(p, "lru", l.rt.P.LRUAppend)
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
		l.seq++
		pg.lruSeq = l.seq
		q.entries = append(q.entries, lruEntry{pg, l.seq})
	}
	l.rt.charge(p, "lru", l.rt.P.LRUAppend*uint64(len(pages)))
}

// selectVictims pops least-recently-faulted resident pages until n frames
// worth have been selected, skipping stale entries, pinned pages and pages
// with in-flight I/O. The budget is frames, not entries: a 2 MB unit counts
// as its 512 constituents, so one batch never grabs a cache's worth of huge
// units and starves every other reclaimer past its stall budget. Selected
// pages are removed from the hash table immediately, so no new faults can
// map them.
func (l *lruApprox) selectVictims(p *engine.Proc, n int) []*Page {
	victims := make([]*Page, 0, n)
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
				if e.pg.resident && e.pg.lruSeq == e.seq {
					break
				}
				q.head++
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
		q.head++
		l.compact(q)
		if pg.quarantined {
			// Quarantined pages are pinned in DRAM forever (their only good
			// copy); drop the entry, do not requeue.
			continue
		}
		if pg.pins > 0 || (pg.io != nil && !pg.io.Fired()) {
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
		pg.resident = false
		pg.io = engine.NewEvent(l.rt.e, "evict")
		victims = append(victims, pg)
		frames += pg.pages()
	}
	return victims
}

func (l *lruApprox) compact(q *lruQueue) {
	if q.head > 4096 && q.head*2 > len(q.entries) {
		q.entries = append(q.entries[:0], q.entries[q.head:]...)
		q.head = 0
	}
}
