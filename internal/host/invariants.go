package host

import "fmt"

// CheckInvariants audits the cross-structure consistency of the host at a
// quiescent point (no process running, no I/O in flight). Tests call it
// after heavy workloads; it returns the first violation found.
func (os *OS) CheckInvariants() error {
	// The disk owes no block its durability point.
	if w, owed := os.Disk().Content.Owed(); owed {
		return w
	}
	c := os.Cache
	// Every page in every file's radix tree is as its state's row in the
	// lifecycle table says, not busy, on an LRU list, and counted dirty if its
	// state is.
	total, dirty := 0, 0
	//aqlint:sorted -- read-only audit: which violation is reported first may vary, but no simulated state is touched
	for _, f := range os.FS.files {
		fileDirty := 0
		// The radix tree: its leaves hold what their populations say and none
		// is linked empty; below, a page sits at its own (file, index).
		if err := f.pages.Check(); err != nil {
			return fmt.Errorf("file %s: page index: %v", f.name, err)
		}
		for idx, pg := range f.pages.All() {
			total++
			if pg.f != f || pg.idx != idx {
				return fmt.Errorf("page (%s,%d) misfiled as (%s,%d)",
					f.name, idx, pg.f.name, pg.idx)
			}
			listed := pg.lruPrev != nil || c.active.head == pg || c.inactive.head == pg
			if err := pg.state.Audit(pg.busy(), pg.frame != nil, listed); err != nil {
				return fmt.Errorf("page (%s,%d): %v", f.name, idx, err)
			}
			if pg.busy() || !listed {
				return fmt.Errorf("page (%s,%d): busy=%v, listed=%v at quiesce", f.name, idx, pg.busy(), listed)
			}
			if err := pg.vas.Check(); err != nil {
				return fmt.Errorf("page (%s,%d): reverse map: %v", f.name, idx, err)
			}
			if pg.state.Counted() {
				dirty++
				fileDirty++
			}
			// Reverse mappings agree with the page tables.
			for _, mv := range pg.vas.Slice() {
				e, ok := mv.pr.PT.Lookup(mv.va)
				if !ok {
					return fmt.Errorf("page (%s,%d): rmap va %#x not mapped in process %d",
						f.name, idx, mv.va, mv.pr.ID)
				}
				if e.Frame != pg.frame.ID {
					return fmt.Errorf("page (%s,%d): pte frame %d != page frame %d",
						f.name, idx, e.Frame, pg.frame.ID)
				}
			}
		}
		if fileDirty != f.nrDirty {
			return fmt.Errorf("file %s: nrDirty %d != actual %d", f.name, f.nrDirty, fileDirty)
		}
	}
	if total != c.nrPages {
		return fmt.Errorf("nrPages %d != radix total %d", c.nrPages, total)
	}
	if dirty != c.nrDirty {
		return fmt.Errorf("nrDirty %d != actual %d", c.nrDirty, dirty)
	}
	if c.active.n+c.inactive.n != c.nrPages {
		return fmt.Errorf("LRU lists %d+%d != nrPages %d", c.active.n, c.inactive.n, c.nrPages)
	}
	if got := c.allocator.Allocated(); got != uint64(total) {
		return fmt.Errorf("frames allocated %d != resident pages %d", got, total)
	}
	// Every present PTE in every process points at a frame owned by a
	// cached page mapping that (process, va).
	frames := make(map[uint64]*cachedPage)
	//aqlint:sorted -- read-only audit index keyed by frame ID: insertion order is invisible, no simulated state is touched
	for _, f := range os.FS.files {
		for _, pg := range f.pages.All() {
			frames[pg.frame.ID] = pg
		}
	}
	for _, pr := range os.procs {
		for _, v := range pr.vmas.List() {
			for va := v.start; va < v.end; va += PageSize {
				e, ok := pr.PT.Lookup(va)
				if !ok {
					continue
				}
				pg, known := frames[e.Frame]
				if !known {
					return fmt.Errorf("process %d: va %#x maps unknown frame %d",
						pr.ID, va, e.Frame)
				}
				found := false
				for _, mv := range pg.vas.Slice() {
					if mv.pr == pr && mv.va == va {
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf("process %d: va %#x mapped but missing from rmap of (%s,%d)",
						pr.ID, va, pg.f.name, pg.idx)
				}
			}
		}
	}
	return nil
}
