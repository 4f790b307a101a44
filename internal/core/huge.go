package core

import (
	"aquila/internal/detutil"
	"aquila/internal/sim/cpu"
	"aquila/internal/sim/engine"
	"aquila/internal/sim/mem"
	"aquila/internal/sim/pagetable"
)

// This file is the 2 MB huge-page mmio path: transparent promotion of dense
// 2 MB file extents into single cache units backed by physically contiguous
// frames (one fault, one merged fill, one PTE, one TLB entry), demotion back
// to 4 KB pages when fine-grained dirty tracking wins, and the shared cache
// bookkeeping both page sizes go through. Everything here is gated on
// hugeEnabled(): with Params.HugeFaultDensity zero no branch below executes,
// keeping the 4 KB-only runtime bit-identical to the pre-huge-page code.

// hugeEnabled reports whether the huge-page path is on for this runtime.
func (rt *Runtime) hugeEnabled() bool { return rt.P.HugeFaultDensity > 0 }

// lookupPage probes the cache index for (f, idx), resolving hits through a
// covering 2 MB unit: units are stored once, under their extent's base index —
// slot 0 of the leaf idx falls in.
func (rt *Runtime) lookupPage(f *fileState, idx uint64) *Page {
	leaf, _ := f.pages.Extent(idx >> hugeShift)
	if leaf == nil {
		return nil
	}
	if pg := leaf[idx&(hugePages-1)]; pg != nil {
		return pg
	}
	if pg := leaf[0]; pg != nil && pg.huge {
		return pg
	}
	return nil
}

// shouldPromote decides whether a major fault at (f, idx) should attempt to
// fill the whole 2 MB extent as one unit: the extent must lie fully inside
// both the region and the file, and either the region is MADV_HUGEPAGE'd or
// the extent's 4 KB residency density (counting the faulting page) crosses
// Params.HugeFaultDensity.
func (rt *Runtime) shouldPromote(r *Region, f *fileState, idx uint64) bool {
	if !rt.hugeEnabled() {
		return false
	}
	baseIdx := idx &^ uint64(hugePages-1)
	if (baseIdx+hugePages)*pageSize > r.End-r.Start {
		return false
	}
	filePages := pagesOf(f.size)
	if filePages > 0 && baseIdx+hugePages > filePages {
		return false
	}
	if r.HugeHint {
		return true
	}
	// The fault missed, so no unit covers the extent: what its leaf holds are
	// its resident 4 KB pages.
	_, resident := f.pages.Extent(baseIdx >> hugeShift)
	return float64(resident+1) >= rt.P.HugeFaultDensity*float64(hugePages)
}

// hugeFault attempts to promote the extent containing idx into one 2 MB unit:
// allocate a contiguous block, displace the extent's resident 4 KB pages
// (writing dirty ones back first), and fill the unit with one merged 2 MB
// read. It returns (nil, nil) when the promotion aborts — no contiguous block
// left, a busy constituent, or a failed displacement writeback — and the
// caller falls back to the 4 KB path. Like eviction, the in-progress unit is
// published with an unfired event so racing faulters wait instead of
// re-reading the extent.
func (rt *Runtime) hugeFault(p *engine.Proc, r *Region, f *fileState, idx uint64) (*Page, error) {
	p.BeginSpan("aq.huge_fault")
	defer p.EndSpan()
	baseIdx := idx &^ uint64(hugePages-1)

	// Contiguity first. The pop charges (and may yield), so the claim is only
	// kept if a re-scan of the extent then finds every constituent a clean or
	// dirty unpinned 4 KB page: not filling, poisoned, quarantined, claimed by
	// eviction, or already part of a unit (a racing promoter won during the
	// yield). popHugeIf puts a rejected block back itself, so no path here
	// holds a loose block.
	var olds []*Page
	block := rt.fl.popHugeIf(p, func() bool {
		leaf, _ := f.pages.Extent(baseIdx >> hugeShift)
		if leaf == nil {
			return true
		}
		for _, pg := range leaf {
			if pg == nil {
				continue
			}
			if pg.huge || pg.pins > 0 || pg.state != detutil.PgClean && pg.state != detutil.PgDirty {
				return false
			}
			olds = append(olds, pg)
		}
		return true
	})
	if block == nil {
		return nil, nil
	}

	// Atomic claim: between here and the placeholder publish nothing charges,
	// so no other proc can observe a half-claimed extent. The 4 KB
	// constituents leave the hash and the page tables, displaced; the unit
	// placeholder takes the base key, filling.
	var dirtyOlds []*Page
	unmapped := 0
	for _, pg := range olds {
		if pg.state == detutil.PgDirty {
			dirtyOlds = append(dirtyOlds, pg)
		}
		rt.move(pg, detutil.PgDisplaced)
		for _, va := range pg.vas.S {
			if rt.PT.Unmap(va) {
				unmapped++
			}
		}
		pg.vas.S = nil
	}
	unit := &Page{file: f, idx: baseIdx, huge: true, frames: block, frame: block[0]}
	rt.move(unit, detutil.PgFilling)

	// Cycle charges for the claim (yields are safe now: the claim is fully
	// published and racers wait on the unit's event).
	rt.charge(p, "map-pte", costHugePromote)
	rt.charge(p, "cache-lookup", costHashRemove*uint64(len(olds)))
	rt.charge(p, "cache-insert", costHashInsert)
	if unmapped > 0 {
		rt.charge(p, "unmap", cpu.PTEUpdate*uint64(unmapped))
		rt.shootdown(p)
	}

	// Displacement writeback: the unit starts clean, so dirty constituents
	// must hit the device before their frames are recycled.
	if len(dirtyOlds) > 0 {
		rt.charge(p, "dirty-track", costDirtyTreeOp*uint64(len(dirtyOlds)))
		if rt.writeBack(p, dirtyOlds, "aq.writeback", nil, false) != nil {
			// A constituent was requeued or quarantined by the failure path:
			// its frame's content is the only good copy, so the promotion
			// cannot proceed. Undo the claim wholesale, each constituent
			// settling where the failure path left it. (The error, not the
			// pages' states: a requeued page is dirty again and an msync that
			// collected it before the claim may have taken it since.)
			rt.move(unit, detutil.PgGone)
			for _, pg := range olds {
				rt.move(pg, pg.state.Settled())
			}
			rt.lru.recordBulk(p, olds)
			rt.fl.pushHuge(p, block)
			unit.ev.Fire(p.Now())
			return nil, nil
		}
	}

	// The displaced frames go back to the base queues; contiguity now lives
	// in the unit's block.
	oldFrames := make([]*mem.Frame, 0, len(olds))
	for _, pg := range olds {
		rt.move(pg, detutil.PgGone)
		oldFrames = append(oldFrames, pg.frame)
		pg.frame = nil
	}
	rt.fl.pushBatch(p, oldFrames)

	// One merged 2 MB fill.
	if rerr := rt.readRun(p, f, baseIdx, block); rerr != nil {
		// Units are never poisoned whole: split into 4 KB pages and re-issue
		// page by page so one bad LBA poisons only itself.
		rt.Stats.MajorFaults++
		rt.Stats.HugeDemotions++
		p.SpanEvent("fault.major", 1)
		rt.move(unit, detutil.PgGone)
		split := make([]*Page, hugePages)
		for i := range split {
			split[i] = &Page{file: f, idx: baseIdx + uint64(i), frame: block[i]}
			rt.move(split[i], detutil.PgFilling)
		}
		rt.charge(p, "map-pte", costHugeSplit)
		rt.charge(p, "cache-insert", costHashInsert*hugePages)
		rt.lru.recordBulk(p, split)
		rt.isolateReadRun(p, split)
		doneAt := p.Now()
		for _, spg := range split {
			rt.filled(spg, doneAt)
		}
		unit.ev.Fire(doneAt)
		return split[idx-baseIdx], nil
	}

	rt.Stats.MajorFaults++
	rt.Stats.HugePromotions++
	p.SpanEvent("fault.major", 1)
	rt.lru.record(p, unit)
	rt.filled(unit, p.Now())
	return unit, nil
}

// hugeMap installs the translation for a fault served by a 2 MB unit: one
// Size2M PTE covering the whole extent and one entry in the 2 MB dTLB array.
// When the unit does not fit the faulting region's VA window (a second,
// smaller mapping of the same file), a single 4 KB alias PTE into the unit's
// frames is installed instead.
func (rt *Runtime) hugeMap(p *engine.Proc, r *Region, pg *Page, va uint64, write bool) (*mem.Frame, error) {
	rt.Stats.HugeFaults++
	p.SpanEvent("fault.huge", 1)
	pg.pins++
	defer func() { pg.pins-- }()
	asid := rt.PT.ASID()
	tlb := rt.TLBs.CPU(p.CPU())
	off := (va >> mem.PageShift) & (hugePages - 1)
	flags := pagetable.FlagUser | pagetable.FlagAccessed
	if write {
		flags |= pagetable.FlagWritable | pagetable.FlagDirty
		rt.markDirty(p, pg)
	}
	if (pg.idx+hugePages)*pageSize > r.End-r.Start {
		if _, mapped := rt.PT.Lookup(va); !mapped {
			rt.PT.Map(va, pg.frames[off].ID, flags, pagetable.Size4K)
			pg.vas.Add(va)
		} else {
			rt.PT.Protect(va, flags)
		}
		rt.charge(p, "map-pte", cpu.PTEUpdate)
		tlb.Insert(asid, va>>mem.PageShift)
	} else {
		hugeVA := va &^ uint64(hugeBytes-1)
		if e, ok := rt.PT.Lookup(hugeVA); !ok || e.PageSize != pagetable.Size2M {
			rt.PT.Map(hugeVA, pg.frames[0].ID, flags, pagetable.Size2M)
			pg.vas.Add(hugeVA)
		} else {
			rt.PT.Protect(hugeVA, flags)
		}
		rt.charge(p, "map-pte", cpu.PTEUpdate)
		tlb.Insert2M(asid, va>>21)
	}
	rt.charge(p, "accounting", costFaultAccounting)
	return pg.frames[off], nil
}

// hugeWP handles the first store to a write-protected 2 MB unit. A unit that
// is already dirty, pinned, or whose region asked for huge pages re-dirties
// as a whole (one PTE upgrade, one 2 MB writeback later); a clean unhinted
// unit splits back into 4 KB pages first so sparse writers keep fine-grained
// dirty tracking and avoid 2 MB writeback amplification.
func (rt *Runtime) hugeWP(p *engine.Proc, r *Region, pg *Page, va uint64) (*mem.Frame, error) {
	rt.Stats.HugeFaults++
	p.SpanEvent("fault.huge", 1)
	asid := rt.PT.ASID()
	tlb := rt.TLBs.CPU(p.CPU())
	off := (va >> mem.PageShift) & (hugePages - 1)
	misfit := (pg.idx+hugePages)*pageSize > r.End-r.Start
	wrFlags := pagetable.FlagUser | pagetable.FlagWritable |
		pagetable.FlagAccessed | pagetable.FlagDirty
	if pg.state.Dirty() || pg.pins > 0 || r.HugeHint || misfit {
		pg.pins++
		defer func() { pg.pins-- }()
		rt.markDirty(p, pg)
		if misfit {
			// 4 KB alias mapping: upgrade just the alias PTE.
			rt.PT.Protect(va, wrFlags)
			rt.charge(p, "map-pte", cpu.PTEUpdate+cpu.TLBInvalidatePage)
			tlb.InvalidatePage(asid, va>>mem.PageShift)
			tlb.Insert(asid, va>>mem.PageShift)
		} else {
			rt.PT.Protect(va&^uint64(hugeBytes-1), wrFlags)
			rt.charge(p, "map-pte", cpu.PTEUpdate+cpu.TLBInvalidatePage)
			tlb.Invalidate2M(asid, va>>21)
			tlb.Insert2M(asid, va>>21)
		}
		return pg.frames[off], nil
	}
	split := rt.splitUnit(p, pg, int(off))
	spg := split[off]
	defer func() { spg.pins-- }()
	rt.markDirty(p, spg)
	if _, mapped := rt.PT.Lookup(va); !mapped {
		rt.PT.Map(va, spg.frame.ID, wrFlags, pagetable.Size4K)
		spg.vas.Add(va)
	} else {
		rt.PT.Protect(va, wrFlags)
	}
	rt.charge(p, "map-pte", cpu.PTEUpdate)
	tlb.Insert(asid, va>>mem.PageShift)
	return spg.frame, nil
}

// splitUnit demotes a 2 MB unit into its 512 constituent 4 KB pages, which
// inherit the unit's frames in place (no copy, one shootdown). All cache,
// page-table and dirty-set mutations complete before the first cycle is
// charged, so no concurrent proc ever observes a half-split extent. Mappings
// are dropped and re-established lazily by later faults. pinOff >= 0 pins
// that constituent on the caller's behalf across the trailing charges (the
// caller unpins).
func (rt *Runtime) splitUnit(p *engine.Proc, pg *Page, pinOff int) []*Page {
	rt.Stats.HugeDemotions++
	p.SpanEvent("huge.split", 1)
	wasDirty := pg.state.Dirty()
	unmapped := 0
	for _, va := range pg.vas.S {
		if rt.PT.Unmap(va) {
			unmapped++
		}
	}
	pg.vas.S = nil
	rt.move(pg, detutil.PgGone)
	split := make([]*Page, hugePages)
	for i := range split {
		spg := &Page{file: pg.file, idx: pg.idx + uint64(i), frame: pg.frames[i], dirtyCore: int32(p.CPU())}
		split[i] = spg
		if wasDirty {
			rt.move(spg, detutil.PgDirty)
		} else {
			rt.move(spg, detutil.PgClean)
		}
	}
	if pinOff >= 0 {
		split[pinOff].pins++
	}
	rt.charge(p, "map-pte", costHugeSplit)
	if unmapped > 0 {
		rt.charge(p, "unmap", cpu.PTEUpdate*uint64(unmapped))
		rt.shootdown(p)
	}
	rt.charge(p, "cache-insert", costHashInsert*hugePages)
	rt.lru.recordBulk(p, split)
	if wasDirty {
		rt.charge(p, "dirty-track", costDirtyTreeOp*hugePages)
	}
	return split
}
