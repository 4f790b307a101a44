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
	total, dirty, listed := 0, 0, 0
	//aqlint:sorted -- read-only audit: which violation is reported first may vary, but no simulated state is touched
	for _, f := range os.FS.files {
		fileDirty := 0
		// The radix tree: its leaves hold what their populations say and none
		// is linked empty; below, a page sits at its own (file, index).
		if err := f.pages.Check(); err != nil {
			return fmt.Errorf("file %s: page index: %v", f.name, err)
		}
		// The reverse map: the file's mappings are live, each its own.
		for _, m := range f.maps {
			if m.f != f || m.v.f != f || m.dead || m.pr.vmas.Find(m.v.start) != m.v {
				return fmt.Errorf("file %s lists a mapping of %s in process %d, dead=%v", f.name, m.f.name, m.pr.ID, m.dead)
			}
		}
		listed += len(f.maps)
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
			if pg.state.Counted() {
				dirty++
				fileDirty++
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
	// Every present PTE in every process maps the frame of the page cached
	// at its index of its VMA's file, and every VMA is on its file's list:
	// what the reverse map (Mapping.pteOf) finds is every PTE there is.
	vmas := 0
	for _, pr := range os.procs {
		vmas += len(pr.vmas.List())
		for _, v := range pr.vmas.List() {
			for va := v.start; va < v.end; va += PageSize {
				e, ok := pr.PT.Lookup(va)
				if !ok {
					continue
				}
				idx := (va - v.start) / PageSize
				pg := v.f.pages.Get(idx)
				if pg == nil {
					return fmt.Errorf("process %d: va %#x maps (%s,%d), which is not cached", pr.ID, va, v.f.name, idx)
				}
				if e.Frame != pg.frame.ID {
					return fmt.Errorf("process %d: va %#x maps frame %d, page (%s,%d) is on frame %d",
						pr.ID, va, e.Frame, v.f.name, idx, pg.frame.ID)
				}
			}
		}
	}
	if vmas != listed {
		return fmt.Errorf("%d VMAs mapped, %d mappings on their files' lists", vmas, listed)
	}
	return nil
}
