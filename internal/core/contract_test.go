package core

import (
	"testing"

	"aquila/internal/cachetest"
	"aquila/internal/iface"
	"aquila/internal/sim/engine"
)

// The page-cache contracts every world keeps (internal/cachetest), over
// Aquila's cache.
func TestEvictedPageRecordsAreCollectable(t *testing.T) {
	cachetest.GoneRecordsAreGarbage(t, aquila(nil))
}
func TestDeletedFilesLeaveTheLRUQueues(t *testing.T) {
	cachetest.DeadQueueEntriesAreSwept(t, aquila(nil))
}
func TestEvictRefaultKeepsTablePages(t *testing.T) {
	cachetest.EvictRefaultKeepsTablePages(t, aquila(nil))
}
func TestRemapReusesTablePages(t *testing.T) {
	cachetest.RemapReusesTablePages(t, aquila(nil))
}
func TestColdMajorFaultIsOneAllocation(t *testing.T) {
	cachetest.ColdMajorFaultIsOneAllocation(t, aquila(nil))
}
func TestWPFaultRacingMsyncLeavesPageDirty(t *testing.T) {
	cachetest.WPFaultRacingMsyncLeavesPageDirty(t, aquila(nil))
}

// Evictions of eight pages at a time come often enough to race the delete.
func TestDeleteRacingEvictionRecyclesEachFrameOnce(t *testing.T) {
	ps := DefaultParams()
	ps.EvictBatch = 8
	cachetest.DeleteRacingEvictionReleasesEachFrameOnce(t, aquila(&ps))
}
func TestAquilaInvariantsAfterHeavyChurn(t *testing.T) {
	cachetest.InvariantsAfterHeavyChurn(t, aquila(nil))
}
func TestPageMappedTwice(t *testing.T) {
	cachetest.PageMappedTwice(t, aquila(nil))
}
func TestMappedFileDeleteIsRefused(t *testing.T) {
	cachetest.MappedFileDeleteIsRefused(t, aquila(nil))
}

// The table-page contract runs over a cache that promotes 2 MB extents too:
// their emptied 4 KB table pages go at munmap as well.
func TestMunmapReleasesTablePages(t *testing.T) {
	t.Run("4k", func(t *testing.T) { cachetest.MunmapReleasesTablePages(t, aquila(nil)) })
	t.Run("huge", func(t *testing.T) {
		ps := DefaultParams()
		ps.HugeFaultDensity = 0.5
		var w cachetest.World[Page]
		cachetest.MunmapReleasesTablePages(t, func(cacheBytes uint64, cpus int) cachetest.World[Page] {
			w = aquila(&ps)(cacheBytes, cpus)
			return w
		})
		if w.(*aquilaWorld).RT.Stats.HugePromotions == 0 {
			t.Error("no extent was promoted")
		}
	})
}

// aquilaWorld is a Runtime as the contracts see it.
type aquilaWorld struct {
	Namespace
	e *engine.Engine
}

// aquila boots runtimes over DAX with the given parameters, nil for the
// defaults.
func aquila(ps *Params) cachetest.Boot[Page] {
	return func(cacheBytes uint64, cpus int) cachetest.World[Page] {
		e, _, boot := faultDaxWorld(cacheBytes, cpus, ps)
		w := &aquilaWorld{e: e}
		e.Spawn(0, "boot", func(p *engine.Proc) { w.RT = boot(p) })
		e.Run()
		return w
	}
}

func (w *aquilaWorld) Engine() *engine.Engine { return w.e }

func (w *aquilaWorld) Record(f iface.File, idx uint64) *Page {
	return w.RT.lookupPage(f.(*AqFile).f, idx)
}

// MmapOther is Mmap: an Aquila process has the one address space.
func (w *aquilaWorld) MmapOther(p *engine.Proc, f iface.File, size uint64) iface.Mapping {
	return w.Mmap(p, f, size)
}

func (w *aquilaWorld) Rmap(f iface.File, idx uint64) []uint64 {
	return w.RT.appendVAs(nil, w.Record(f, idx))
}

func (w *aquilaWorld) EvictAll(p *engine.Proc) {
	for w.RT.ResidentPages() > 0 {
		if err := w.RT.evict(p); err != nil {
			panic(err)
		}
	}
}

func (w *aquilaWorld) Resident() int          { return w.RT.ResidentPages() }
func (w *aquilaWorld) Tables() (int, uint64)  { return w.RT.PT.Pages(), w.RT.PT.Mapped() }
func (w *aquilaWorld) Dirty() int             { return w.RT.DirtyPages() }
func (w *aquilaWorld) WrittenBack() uint64    { return w.RT.Stats.WrittenBack }
func (w *aquilaWorld) Queue() (int, int, int) { return w.RT.lru.queued, w.RT.lru.dead, lruSweepMinDead }
func (w *aquilaWorld) Busy(pg *Page) bool     { return pg.busy() }
func (w *aquilaWorld) Pinned() []*Page        { return nil }
func (w *aquilaWorld) WPFaults() uint64       { return w.RT.Stats.WPFaults }

// CheckInvariants holds the quiescent audit and the one of any crash point:
// the latter finds a frame owned twice.
func (w *aquilaWorld) CheckInvariants() error {
	if err := w.RT.CheckInvariants(); err != nil {
		return err
	}
	return w.RT.CheckCrashInvariants()
}
