package host

import (
	"cmp"
	"fmt"
	"slices"

	"aquila/internal/detutil"
	"aquila/internal/sim/cpu"
	"aquila/internal/sim/engine"
	"aquila/internal/sim/mem"
	"aquila/internal/sim/pagetable"
)

// cachedPage is one resident page-cache page. Like core.Page the record is
// self-contained — its busy event inside it, its PTEs found through its
// file's mappings (Mapping.pteOf) — so publishing a page is one host
// allocation (DESIGN.md §3).
type cachedPage struct {
	f     *FSFile
	idx   uint64 // page index within the file
	frame *mem.Frame
	// ev is armed and unfired while the page is busy: its content is being
	// read from disk (PG_locked) or a reclaim has claimed it (PG_writeback).
	// Faulters that find it wait on it, then look the page up again. One
	// event serves every busy period of the page; ask busy().
	ev engine.Event

	lruPrev, lruNext *cachedPage
	// pins guards against reclaim while a syscall path uses the page
	// across a blocking point.
	pins int32
	// queued counts the page's entries in the dirty FIFO.
	queued int32
	// state is where the page is in its life; PageCache.move is its only
	// writer. Of the lifecycle this world reaches new, filling, clean, dirty,
	// claimed, claimed-dirty and gone.
	state detutil.PageState
	// readahead marks pages brought in by read-around (PG_readahead):
	// hitting one decrements the file's mmap_miss counter.
	readahead bool
	// referenced is the second-chance bit (PG_referenced): set on access,
	// cleared when reclaim gives the page another round.
	referenced bool
	// active marks which LRU list holds the page.
	active bool
	// writebacks is PG_writeback: the writePages calls in flight that hold
	// the page, each counted until its write completes. An fsync that finds
	// one on a clean page waits it out.
	writebacks uint8
}

// pageList is one intrusive LRU list (active or inactive).
type pageList struct {
	head, tail *cachedPage
	n          int
}

func (l *pageList) push(pg *cachedPage) {
	pg.lruPrev = nil
	pg.lruNext = l.head
	if l.head != nil {
		l.head.lruPrev = pg
	}
	l.head = pg
	if l.tail == nil {
		l.tail = pg
	}
	l.n++
}

func (l *pageList) remove(pg *cachedPage) {
	if pg.lruPrev != nil {
		pg.lruPrev.lruNext = pg.lruNext
	} else {
		l.head = pg.lruNext
	}
	if pg.lruNext != nil {
		pg.lruNext.lruPrev = pg.lruPrev
	} else {
		l.tail = pg.lruPrev
	}
	pg.lruPrev, pg.lruNext = nil, nil
	l.n--
}

// PageCache is the kernel page cache: per-file radix trees (each guarded by
// its file's tree_lock), a global LRU guarded by lru_lock, and dirty
// accounting with direct-reclaim writeback.
type PageCache struct {
	os        *OS
	allocator *mem.Allocator
	lruLock   *engine.Mutex
	// active/inactive are the kernel's two LRU lists: new pages enter
	// inactive; referenced pages are promoted; reclaim scans the inactive
	// tail with a second chance for referenced pages, and demotes from
	// active when inactive runs low. This gives the page cache its scan
	// resistance.
	active   pageList
	inactive pageList
	nrPages  int
	nrDirty  int
	// dirtyQueue approximates the kernel's per-BDI dirty list (FIFO): one
	// entry per clean → dirty move, taken from the front by writebackBatch.
	// An entry whose page is gone is dead for good — a gone page is never
	// dirty again — and the dead are swept once they outnumber the live, so a
	// world that never throttles does not keep every page it ever reclaimed.
	dirtyQueue []*cachedPage
	queueDead  int
	// pageBufs lends the fill, reclaim and fsync paths their scratch: the
	// pages one fill owns, a victim batch, a dirty batch.
	pageBufs detutil.Scratch[*cachedPage]

	// Stats.
	Inserted  uint64
	Evicted   uint64
	WrittenBk uint64
	Promoted  uint64
	Demoted   uint64
}

func newPageCache(os *OS, capacityBytes uint64) *PageCache {
	return &PageCache{
		os:        os,
		allocator: mem.NewAllocator(capacityBytes, os.E.NumNUMANodes()),
		lruLock:   engine.NewMutex(os.E, "lru_lock"),
	}
}

// NrActive reports the active list's population (tests).
func (c *PageCache) NrActive() int { return c.active.n }

// Resident returns the number of resident pages.
func (c *PageCache) Resident() int { return c.nrPages }

// NrDirty returns the number of dirty pages.
func (c *PageCache) NrDirty() int { return c.nrDirty }

// find returns the cached page at (f, idx), taking the file's tree_lock.
func (c *PageCache) find(p *engine.Proc, f *FSFile, idx uint64) *cachedPage {
	f.treeLock.Lock(p)
	c.os.charge(p, "tree-lock", costRadixLookup)
	pg := f.pages.Get(idx)
	f.treeLock.Unlock(p)
	return pg
}

// chargeFind is what a find in f costs, paid where a path looks a PTE's page
// up and needs nothing of it: each PTE munmap clears or mremap moves is
// charged its page's lookup (page_remove_rmap, page_add_file_rmap).
func (c *PageCache) chargeFind(p *engine.Proc, f *FSFile) {
	f.treeLock.Lock(p)
	c.os.charge(p, "tree-lock", costRadixLookup)
	f.treeLock.Unlock(p)
}

// listOf returns the list currently holding pg.
func (c *PageCache) listOf(pg *cachedPage) *pageList {
	if pg.active {
		return &c.active
	}
	return &c.inactive
}

// touch is mark_page_accessed: the first access sets the referenced bit, a
// second access promotes an inactive page to the active list.
func (c *PageCache) touch(p *engine.Proc, pg *cachedPage) {
	c.lruLock.Lock(p)
	c.os.charge(p, "lru", costLRUUpdate)
	if pg.state == detutil.PgClean || pg.state == detutil.PgDirty {
		if pg.referenced && !pg.active {
			c.inactive.remove(pg)
			pg.active = true
			pg.referenced = false
			c.active.push(pg)
			c.Promoted++
		} else {
			pg.referenced = true
		}
	}
	c.lruLock.Unlock(p)
}

// allocFrame obtains a frame, running direct reclaim when the cache is full.
// A recycled frame still carries its previous page's bytes: reclaim and
// truncate release frames as they are, because both users of insertNew define
// every byte before the page's io fires — fillWindow through readPageContent
// (the device's 4,096 bytes, or zeros for a hole) and File.pageAt with the
// data of a write that covers the whole page.
func (c *PageCache) allocFrame(p *engine.Proc) *mem.Frame {
	for {
		if f := c.allocator.Alloc(p.Node()); f != nil {
			return f
		}
		c.reclaim(p)
	}
}

// insertNew creates a locked (under-I/O) page at (f, idx) and publishes it.
// Returns (page, true) when this caller owns the I/O, or the already-present
// page and false when it lost the race.
func (c *PageCache) insertNew(p *engine.Proc, f *FSFile, idx uint64) (*cachedPage, bool) {
	frame := c.allocFrame(p)
	f.treeLock.Lock(p)
	c.os.charge(p, "tree-lock", costRadixLookup)
	if existing := f.pages.Get(idx); existing != nil {
		f.treeLock.Unlock(p)
		c.allocator.Release(frame)
		return existing, false
	}
	c.os.charge(p, "tree-lock", costRadixInsert)
	pg := &cachedPage{f: f, idx: idx, frame: frame}
	c.move(pg, detutil.PgFilling)
	f.treeLock.Unlock(p)

	c.lruLock.Lock(p)
	c.os.charge(p, "lru", costLRUUpdate)
	c.inactive.push(pg)
	c.nrPages++
	c.lruLock.Unlock(p)
	c.Inserted++
	return pg, true
}

// fillWindow is the cache's one fill: it brings the absent pages of [lo, hi)
// of f in. A locked page is published for each (insertNew), every contiguous
// run of the pages this caller owns is read with one timed I/O, and their
// events fire; with readAround, what it brought in beyond index want is marked
// PG_readahead (the fault path's read-around). It returns the page found or
// published at index want — not necessarily owned, possibly still under
// another thread's read or reclaim, nil when want is outside the window. What
// follows differs per caller: the fault path re-checks the target after
// waiting, a buffered syscall only waits.
func (c *PageCache) fillWindow(p *engine.Proc, f *FSFile, lo, hi, want uint64, readAround bool) (target *cachedPage) {
	// The pages this fill owns, in index order, in a borrowed scratch slice.
	mine := c.pageBufs.Borrow()
	for i := lo; i < hi; i++ {
		pg, owner := c.insertNew(p, f, i)
		if i == want {
			target = pg
		}
		if owner {
			mine = append(mine, pg)
		}
	}
	for i := 0; i < len(mine); {
		j := runEnd(mine, i)
		for _, pg := range mine[i:j] {
			c.os.readPageContent(pg)
		}
		c.os.blockIO(p, "lx.readahead_io", "readahead", f.devOff(mine[i].idx*PageSize), (j-i)*PageSize, false)
		i = j
	}
	doneAt := p.Now()
	for _, pg := range mine {
		c.move(pg, detutil.PgClean)
		pg.ev.Fire(doneAt)
		pg.readahead = readAround && pg.idx != want
	}
	c.pageBufs.GiveBack(mine)
	return target
}

// busy reports whether the page is inside a busy period: under read, or
// claimed by a reclaim that has not released it yet.
func (pg *cachedPage) busy() bool { return !pg.ev.Fired() }

// waitPage blocks until a busy page's read — or reclaim — completes.
func (c *PageCache) waitPage(p *engine.Proc, pg *cachedPage) {
	if pg.busy() {
		pg.ev.Wait(p, pg)
	}
}

// markDirty tags a page dirty under its file's tree_lock — the same lock the
// paper identifies as the shared-file write-scaling bottleneck.
func (c *PageCache) markDirty(p *engine.Proc, pg *cachedPage) {
	pg.f.treeLock.Lock(p)
	c.os.charge(p, "tree-lock", costRadixLookup)
	if !pg.state.Dirty() {
		c.move(pg, pg.state.Dirtied())
	}
	pg.f.treeLock.Unlock(p)
}

// move is the one writer of pg.state (DESIGN.md §3 "Page lifecycle"). It
// panics on an edge the lifecycle does not list and on a pinned page leaving
// the cache, files the page in its file's radix tree or takes it out (the
// caller holds the tree_lock), moves the dirty counts — a page turning dirty
// joins the dirty FIFO — and arms the event of a page turning busy. Firing
// the event is the caller's.
func (c *PageCache) move(pg *cachedPage, to detutil.PageState) {
	from := pg.state
	if !from.Legal(to) || to == detutil.PgGone && pg.pins > 0 {
		panic(fmt.Sprintf("host: page (%s,%d): %v → %v with %d pins", pg.f.name, pg.idx, from, to, pg.pins))
	}
	if to.Indexed() && !from.Indexed() {
		pg.f.pages.Insert(pg.idx, pg)
	} else if from.Indexed() && !to.Indexed() {
		pg.f.pages.Remove(pg.idx, pg)
	}
	if to.Counted() && !from.Counted() {
		pg.f.nrDirty++
		c.nrDirty++
		c.dirtyQueue = append(c.dirtyQueue, pg)
		pg.queued++
	} else if from.Counted() && !to.Counted() {
		pg.f.nrDirty--
		c.nrDirty--
	}
	if to.Busy() && !from.Busy() {
		pg.ev.Arm()
	}
	pg.state = to
	if to == detutil.PgGone && pg.queued > 0 {
		c.queueDead += int(pg.queued)
		if c.queueDead > dirtySweepMinDead && 2*c.queueDead > len(c.dirtyQueue) {
			live := c.dirtyQueue[:0]
			for _, q := range c.dirtyQueue {
				if q.state != detutil.PgGone {
					live = append(live, q)
				}
			}
			clear(c.dirtyQueue[len(live):]) // the dropped entries' pages are the point
			c.dirtyQueue, c.queueDead = live, 0
		}
	}
}

// dirtySweepMinDead is the number of dead dirty-FIFO entries below which a
// sweep is not worth a pass over the queue.
const dirtySweepMinDead = 1024

// throttleDirty emulates balance_dirty_pages: when dirty pages exceed the
// dirty ratio, the dirtying process synchronously writes a batch back.
func (c *PageCache) throttleDirty(p *engine.Proc) {
	limit := max(1, int(float64(c.allocator.Capacity())*c.os.P.DirtyRatio))
	for c.nrDirty > limit && len(c.dirtyQueue) > 0 {
		c.writebackBatch(p, reclaimBatch)
	}
}

// writebackBatch writes up to n dirty pages from the dirty FIFO. The batch is
// pinned across the write-back: writePages clears a page's dirty bit before it
// copies the frame, and an unpinned page that reads as clean is fair game for
// a concurrent reclaim, which would recycle the frame mid-write. A page some
// reclaim has already claimed (unfired io) is left to it: reclaim writes its
// dirty victims itself before their frames go.
func (c *PageCache) writebackBatch(p *engine.Proc, n int) {
	batch := c.pageBufs.Borrow()
	for len(batch) < n && len(c.dirtyQueue) > 0 {
		pg := c.dirtyQueue[0]
		c.dirtyQueue[0] = nil
		c.dirtyQueue = c.dirtyQueue[1:]
		if pg.queued--; pg.state == detutil.PgGone {
			c.queueDead--
		}
		if pg.state == detutil.PgDirty {
			pg.pins++
			batch = append(batch, pg)
		}
	}
	c.writePages(p, batch)
	for _, pg := range batch {
		pg.pins--
	}
	c.pageBufs.GiveBack(batch)
}

// writePages clears dirty state and issues the writes, merging pages that
// are adjacent on the device into single I/Os.
func (c *PageCache) writePages(p *engine.Proc, pages []*cachedPage) {
	if len(pages) == 0 {
		return
	}
	p.BeginSpan("lx.writeback")
	defer p.EndSpan()
	slices.SortFunc(pages, func(a, b *cachedPage) int {
		return cmp.Or(cmp.Compare(a.f.id, b.f.id), cmp.Compare(a.idx, b.idx))
	})
	touched := make(procSet, 0, 8) // constant capacity: stays on the stack
	for _, pg := range pages {
		pg.f.treeLock.Lock(p)
		if pg.state.Dirty() {
			c.move(pg, pg.state.Cleaned())
		}
		pg.writebacks++
		pg.f.treeLock.Unlock(p)
		// page_mkclean: write-protect live mappings so the next store
		// re-dirties the page; otherwise post-writeback stores would be
		// lost at eviction.
		var maps mapBuf
		for _, m := range append(maps[:0], pg.f.maps...) {
			if va, ok := m.pteOf(pg); ok && m.pr.PT.Protect(va, pagetable.FlagUser|pagetable.FlagAccessed) {
				c.os.charge(p, "writeback", cpu.PTEUpdate)
				touched = touched.add(m.pr)
			}
		}
	}
	c.os.shootdownAll(p, touched)
	// Coalesce device-adjacent pages.
	for i := 0; i < len(pages); {
		j := runEnd(pages, i)
		for _, pg := range pages[i:j] {
			if pg.frame.HasData() {
				c.os.FS.disk.Content.WritePage(pg.f.devOff(pg.idx*PageSize), pg.frame.Held())
			}
		}
		// One timed I/O for the run; the pages' content was staged above.
		c.os.blockIO(p, "lx.block_io", "writeback", pages[i].f.devOff(pages[i].idx*PageSize), (j-i)*PageSize, true)
		for _, pg := range pages[i:j] {
			pg.writebacks--
		}
		c.WrittenBk += uint64(j - i)
		i = j
	}
}

// runEnd returns the end of the run that starts at pages[i]: pages of one
// file at consecutive indices, so adjacent on the device — one I/O.
func runEnd(pages []*cachedPage, i int) int {
	j := i + 1
	for j < len(pages) && pages[j].f == pages[i].f && pages[j].idx == pages[j-1].idx+1 {
		j++
	}
	return j
}

// reclaim is direct reclaim: evict a batch of pages from the LRU tail,
// unmapping mapped ones (one batched TLB shootdown) and writing dirty ones.
// Victims stay in their radix trees, marked busy, until write-back
// completes — concurrent faulters wait on the page instead of re-reading
// stale device content (the kernel's PG_writeback discipline).
func (c *PageCache) reclaim(p *engine.Proc) {
	p.BeginSpan("lx.reclaim")
	defer p.EndSpan()
	c.lruLock.Lock(p)
	// Balance: when the inactive list runs low, demote from the active
	// tail (shrink_active_list).
	for c.inactive.n < c.active.n/2 && c.active.tail != nil {
		pg := c.active.tail
		c.active.remove(pg)
		pg.active = false
		pg.referenced = false
		c.inactive.push(pg)
		c.Demoted++
		c.os.charge(p, "lru", costLRUUpdate)
	}
	victims := c.pageBufs.Borrow()
	pg := c.inactive.tail
	scanned := 0
	for pg != nil && len(victims) < reclaimBatch && scanned < 4*reclaimBatch {
		prev := pg.lruPrev
		scanned++
		switch {
		case pg.pins > 0 || pg.busy():
			// in use: skip
		case pg.referenced:
			// Second chance: rotate to the head, clear the bit.
			c.inactive.remove(pg)
			pg.referenced = false
			c.inactive.push(pg)
		default:
			c.inactive.remove(pg)
			// Claim it, busy: faulters finding the page wait until the
			// page is fully gone, then retry.
			if pg.state == detutil.PgDirty {
				c.move(pg, detutil.PgClaimedDirty)
			} else {
				c.move(pg, detutil.PgClaimed)
			}
			victims = append(victims, pg)
		}
		c.os.charge(p, "lru", costLRUUpdate)
		pg = prev
	}
	c.nrPages -= len(victims)
	c.lruLock.Unlock(p)

	if len(victims) == 0 {
		// Everything pinned or in flight: let I/O owners make progress.
		c.os.charge(p, "lru", costLRUUpdate*8)
		p.Yield()
		c.pageBufs.GiveBack(victims)
		return
	}

	// Unmap all victims first (one batched shootdown per process), so no
	// new stores land after the write-back snapshot.
	touched := make(procSet, 0, 8)
	dirty := c.pageBufs.Borrow()
	for _, v := range victims {
		// page_referenced + rmap walk per victim.
		c.os.charge(p, "reclaim", costReclaimPerPage)
		var maps mapBuf
		for _, m := range append(maps[:0], v.f.maps...) {
			if va, ok := m.pteOf(v); ok && m.pr.PT.Unmap(va) {
				c.os.charge(p, "reclaim", cpu.PTEUpdate)
				touched = touched.add(m.pr)
			}
		}
		if v.state.Dirty() {
			dirty = append(dirty, v)
		}
	}
	c.os.shootdownAll(p, touched)
	c.writePages(p, dirty)
	c.pageBufs.GiveBack(dirty)
	// Now drop the pages from their trees and recycle the frames.
	for _, v := range victims {
		v.f.treeLock.Lock(p)
		c.os.charge(p, "tree-lock", costRadixLookup)
		c.move(v, detutil.PgGone)
		v.f.treeLock.Unlock(p)
	}
	doneAt := p.Now()
	for _, v := range victims {
		v.ev.Fire(doneAt)
		c.allocator.Release(v.frame)
	}
	c.Evicted += uint64(len(victims))
	c.pageBufs.GiveBack(victims)
}

// truncate drops all cached pages of a file (delete path), in page-index
// order: that is the order their frames go back to the allocator in, and so
// the order later faults are handed them. A page under read or reclaim is
// waited out first, as core.DeleteFile does, and the tree looked at again:
// with both locks held nothing can claim a page between the last busy check
// and its drop, and a page a reclaim freed meanwhile is no longer there. No
// page is mapped: FS.Delete refuses a file with a mapping.
func (c *PageCache) truncate(p *engine.Proc, f *FSFile) {
	var pages []*cachedPage
	for pages == nil {
		f.treeLock.Lock(p)
		c.lruLock.Lock(p)
		var busy *cachedPage
		for _, pg := range f.pages.All() {
			if pg.busy() {
				busy = pg
				break
			}
		}
		if busy == nil {
			pages = make([]*cachedPage, 0, f.pages.Len())
			for _, pg := range f.pages.All() {
				pages = append(pages, pg)
			}
			for _, pg := range pages {
				c.listOf(pg).remove(pg)
				c.nrPages--
				c.move(pg, detutil.PgGone)
			}
		}
		c.lruLock.Unlock(p)
		f.treeLock.Unlock(p)
		if busy != nil {
			c.waitPage(p, busy)
		}
	}
	for _, pg := range pages {
		c.allocator.Release(pg.frame)
	}
}

// fsyncFileRange writes back dirty pages overlapping [off, off+length).
// msync(2) walks the requested range page by page, so the scan itself costs
// in proportion to the range — the reason Kreon's custom msync syncs only
// the windows it appended (§7.2). The batch is pinned across the write-back
// and a page some reclaim has already claimed is left to it, for the reasons
// writebackBatch gives; fsync then waits that reclaim out (the page is durable
// once its io fires), and any write another path started on a page of the
// range, as filemap_fdatawait does for PG_writeback pages.
func (c *PageCache) fsyncFileRange(p *engine.Proc, f *FSFile, off, length uint64) {
	lo := off / PageSize
	hi := min((off+length+PageSize-1)/PageSize, (f.cap+PageSize-1)/PageSize)
	c.os.charge(p, "msync", (hi-lo)*20) // per-page range walk
	f.treeLock.Lock(p)
	// Only the range is walked, in index order: the order writePages writes
	// dirty in and the order the claimed pages are waited out in.
	dirty, claimed := c.pageBufs.Borrow(), c.pageBufs.Borrow()
	for _, pg := range f.pages.Range(lo, hi) {
		switch {
		case pg.writebacks > 0 && !pg.state.Dirty():
			claimed = append(claimed, pg)
		case !pg.state.Dirty():
		case pg.busy():
			claimed = append(claimed, pg)
		default:
			pg.pins++
			dirty = append(dirty, pg)
		}
	}
	f.treeLock.Unlock(p)
	c.writePages(p, dirty)
	for _, pg := range dirty {
		pg.pins--
	}
	c.pageBufs.GiveBack(dirty)
	for _, pg := range claimed {
		c.waitPage(p, pg)
		for pg.writebacks > 0 {
			p.WaitUntil(p.Now()+writingPollQuantum, engine.KindIOWait)
		}
	}
	c.pageBufs.GiveBack(claimed)
}

// writingPollQuantum paces an fsync waiting out a write-back another path
// started on a page in its range.
const writingPollQuantum = 2000

// EventName names the busy period a waiter on the page's event waits out
// (engine.EventNamer); only the engine's deadlock diagnostic asks. A filling
// page is under read; any other busy page is reclaim's victim, claimed or, a
// reclaim having dropped it from its tree before its Fire, gone.
func (pg *cachedPage) EventName() string {
	if pg.state != detutil.PgFilling {
		return "reclaim"
	}
	return fmt.Sprintf("pgio:%s:%d", pg.f.name, pg.idx)
}
