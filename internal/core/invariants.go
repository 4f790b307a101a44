package core

import (
	"fmt"

	"aquila/internal/detutil"
	"aquila/internal/sim/pagetable"
)

// CheckInvariants audits Aquila's cross-structure consistency at a quiescent
// point. Tests call it after heavy workloads.
func (rt *Runtime) CheckInvariants() error {
	// The host's disk — in a System, also the SPDK engine's device — owes no
	// block its durability point.
	if w, owed := rt.Host.Disk().Content.Owed(); owed {
		return w
	}
	// Frame conservation: every granted frame is either cached or free (a
	// 2 MB unit accounts for its 512 contiguous frames).
	resident := rt.ResidentPages()
	free := rt.fl.Free()
	if free < 0 {
		return fmt.Errorf("freelist negative: %d", free)
	}
	if uint64(resident+free) != rt.limitPages {
		return fmt.Errorf("resident %d + free %d != limit %d", resident, free, rt.limitPages)
	}
	err := rt.auditPages(func(pg *Page) error {
		if pg.busy() {
			return fmt.Errorf("page (%s,%d) has in-flight I/O at quiesce", pg.file.name, pg.idx)
		}
		if pg.huge {
			// Huge-unit structure: extent-aligned base index, a block's base
			// frame (its 512 frames follow it in the node's frame table), no
			// 4 KB entry shadowed inside the extent, and never poisoned
			// (failed fills split the unit first).
			if pg.idx%hugePages != 0 {
				return fmt.Errorf("unit (%s,%d) not extent-aligned", pg.file.name, pg.idx)
			}
			if pg.frame.ID%hugePages != 0 {
				return fmt.Errorf("unit (%s,%d): frame %d is not a block's base frame", pg.file.name, pg.idx, pg.frame.ID)
			}
			if _, n := pg.file.pages.Extent(pg.idx >> hugeShift); n != 1 {
				return fmt.Errorf("unit (%s,%d): %d 4 KB page(s) also cached in its extent",
					pg.file.name, pg.idx, n-1)
			}
			if pg.state == detutil.PgPoisoned {
				return fmt.Errorf("unit (%s,%d) poisoned", pg.file.name, pg.idx)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, r := range rt.vs.List() {
		if err := rt.auditRegion(r); err != nil {
			return err
		}
	}
	// LRU queues: the counters the sweep trigger reads match a recount, and
	// no consumed slot still holds a page (it would pin an evicted record).
	queued, dead := 0, 0
	for i := range rt.lru.queues {
		q := &rt.lru.queues[i]
		for j, e := range q.entries[:q.head] {
			if e != (lruEntry{}) {
				return fmt.Errorf("LRU queue %d: consumed slot %d of %d still holds page (%s,%d)", i, j, q.head, e.pg.file.name, e.pg.idx)
			}
		}
		for _, e := range q.entries[q.head:] {
			queued++
			if e.pg.lruSeq != e.seq {
				dead++
			}
		}
	}
	if queued != rt.lru.queued || dead != rt.lru.dead {
		return fmt.Errorf("LRU counters %d queued, %d dead != recount %d, %d", rt.lru.queued, rt.lru.dead, queued, dead)
	}
	return nil
}

// auditRegion holds every PTE of a mapped region to the page it maps, which is
// what the reverse map (appendVAs) rests on: the PTE at a region's page index
// maps the frame of the page cached at that index of its file — a 4 KB page
// through a 4 KB entry, a 2 MB unit whole through its extent's aligned 2 MB
// entry or a constituent through a 4 KB alias — and a writable PTE maps a
// dirty page. A PTE of a page no longer cached is one eviction left behind.
func (rt *Runtime) auditRegion(r *Region) error {
	for va := r.Start; va < r.End; {
		e, ok := rt.PT.Lookup(va)
		if !ok {
			va += pageSize
			continue
		}
		idx := (va - r.Start) / pageSize
		pg := rt.lookupPage(r.File, idx)
		if pg == nil {
			return fmt.Errorf("va %#x maps (%s,%d), which is not cached", va, r.File.name, idx)
		}
		want, step := pg.frame.ID, uint64(pageSize)
		switch {
		case e.PageSize == pagetable.Size2M && (!pg.huge || idx != pg.idx):
			return fmt.Errorf("page (%s,%d): 2 MB PTE at %#x, index %d", pg.file.name, pg.idx, va, idx)
		case e.PageSize == pagetable.Size2M:
			step = hugeBytes
		case pg.huge:
			want = pg.frame.BlockFrame(int(idx - pg.idx)).ID
		}
		if e.Frame != want {
			return fmt.Errorf("page (%s,%d): pte frame %d at %#x != %d", pg.file.name, pg.idx, e.Frame, va, want)
		}
		// Dirty discipline: a writable PTE implies a dirty page.
		if e.Flags.Has(pagetable.FlagWritable) && !pg.state.Dirty() {
			return fmt.Errorf("page (%s,%d): writable PTE on %v page", pg.file.name, pg.idx, pg.state)
		}
		va += step
	}
	return nil
}

// auditPages is what both audits hold every cached page to, then each: filed
// at its own (file, index), observed as its state's row in the lifecycle table
// says — and each core's dirty count is the number of cached pages its stores
// left in a dirty state, and the regions on the files' lists are those of the
// address space.
func (rt *Runtime) auditPages(each func(pg *Page) error) error {
	on := make([]int, len(rt.dirtyOn))
	listed := 0
	//aqlint:sorted -- read-only audit: which violation is reported first may vary, but no simulated state is touched
	for _, f := range rt.files {
		if err := f.pages.Check(); err != nil {
			return fmt.Errorf("file %s: page index: %v", f.name, err)
		}
		for _, r := range f.regions {
			if r.File != f || rt.vs.Find(r.Start) != r {
				return fmt.Errorf("file %s lists region [%#x,%#x) of %s, mapped %v", f.name, r.Start, r.End, r.File.name, rt.vs.Find(r.Start) == r)
			}
		}
		listed += len(f.regions)
		for idx, pg := range f.pages.All() {
			if pg.file != f || pg.idx != idx {
				return fmt.Errorf("page (%s,%d) filed at (%s,%d)", pg.file.name, pg.idx, f.name, idx)
			}
			if err := pg.state.Audit(pg.busy(), pg.frame != nil, pg.lruSeq != 0); err != nil {
				return fmt.Errorf("page (%s,%d): %v", pg.file.name, pg.idx, err)
			}
			if pg.state.Counted() {
				if pg.dirtyCore < 0 || int(pg.dirtyCore) >= len(on) {
					return fmt.Errorf("dirty page (%s,%d) names core %d of %d", pg.file.name, pg.idx, pg.dirtyCore, len(on))
				}
				on[pg.dirtyCore]++
			}
			if err := each(pg); err != nil {
				return err
			}
		}
	}
	if n := len(rt.vs.List()); n != listed {
		return fmt.Errorf("%d regions mapped, %d on their files' lists", n, listed)
	}
	for core, n := range on {
		if n != rt.dirtyOn[core] {
			return fmt.Errorf("core %d counts %d dirty pages, %d cached pages say so", core, rt.dirtyOn[core], n)
		}
	}
	return nil
}

// checkWatermarkBounds validates explicitly configured eviction watermarks
// against the cache capacity: a set LowWatermark must satisfy
// 1 <= Low < High and a set HighWatermark must fit the cache
// (High <= capacity pages). Zero values are exempt — setWatermarks derives
// and clamps those to the cache size. Called from setWatermarks at boot and
// on every resize, so a misconfigured parameter sweep fails loudly instead of
// being silently clamped.
func checkWatermarkBounds(p Params, capacityPages int) error {
	low, high := p.LowWatermark, p.HighWatermark
	if low != 0 && low < 1 {
		return fmt.Errorf("LowWatermark %d < 1", low)
	}
	if low != 0 && low > capacityPages {
		return fmt.Errorf("LowWatermark %d exceeds cache capacity (%d pages)", low, capacityPages)
	}
	if high != 0 && high < 1 {
		return fmt.Errorf("HighWatermark %d < 1", high)
	}
	if high != 0 && high > capacityPages {
		return fmt.Errorf("HighWatermark %d exceeds cache capacity (%d pages)", high, capacityPages)
	}
	if low != 0 && high != 0 && low >= high {
		return fmt.Errorf("LowWatermark %d >= HighWatermark %d", low, high)
	}
	return nil
}
