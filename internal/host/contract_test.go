package host

import (
	"fmt"
	"testing"

	"aquila/internal/cachetest"
	"aquila/internal/detutil"
	"aquila/internal/iface"
	"aquila/internal/sim/device"
	"aquila/internal/sim/engine"
)

// The page-cache contracts every world keeps (internal/cachetest), over the
// Linux page cache mapped by mmap, then by Kreon's kmmap (no read-around, no
// dirty throttling).
func TestEvictedPageRecordsAreCollectable(t *testing.T) { linux(t, cachetest.GoneRecordsAreGarbage) }
func TestDirtyQueueForgetsReclaimedPages(t *testing.T)  { linux(t, cachetest.DeadQueueEntriesAreSwept) }
func TestMunmapReleasesTablePages(t *testing.T)         { linux(t, cachetest.MunmapReleasesTablePages) }
func TestEvictRefaultKeepsTablePages(t *testing.T)      { linux(t, cachetest.EvictRefaultKeepsTablePages) }
func TestRemapReusesTablePages(t *testing.T)            { linux(t, cachetest.RemapReusesTablePages) }
func TestColdMajorFaultIsOneAllocation(t *testing.T) {
	linux(t, cachetest.ColdMajorFaultIsOneAllocation)
}
func TestWPFaultRacingMsyncLeavesPageDirty(t *testing.T) {
	linux(t, cachetest.WPFaultRacingMsyncLeavesPageDirty)
}
func TestDeleteRacingReclaimReleasesEachFrameOnce(t *testing.T) {
	linux(t, cachetest.DeleteRacingEvictionReleasesEachFrameOnce)
}
func TestInvariantsAfterHeavyChurn(t *testing.T) { linux(t, cachetest.InvariantsAfterHeavyChurn) }
func TestPageMappedTwice(t *testing.T)           { linux(t, cachetest.PageMappedTwice) }
func TestMappedFileDeleteIsRefused(t *testing.T) { linux(t, cachetest.MappedFileDeleteIsRefused) }

// linux runs a contract over mmap, then over kmmap as a subtest, so the mmap
// run keeps the test's own name.
func linux(t *testing.T, contract func(*testing.T, cachetest.Boot[cachedPage])) {
	contract(t, linuxBoot(false))
	t.Run("kmmap", func(t *testing.T) { contract(t, linuxBoot(true)) })
}

func linuxBoot(kmmap bool) cachetest.Boot[cachedPage] {
	return func(cacheBytes uint64, cpus int) cachetest.World[cachedPage] {
		e := engine.New(engine.Config{NumCPUs: cpus, Seed: 1})
		os := NewOS(e, NewPMemDisk("pmem0", device.NewPMem(256*mib, device.DefaultPMemConfig())), cacheBytes)
		return &linuxWorld{Namespace{OS: os}, e, kmmap}
	}
}

// linuxWorld is an OS as the contracts see it.
type linuxWorld struct {
	Namespace
	e     *engine.Engine
	kmmap bool
}

func (w *linuxWorld) Mmap(p *engine.Proc, f iface.File, size uint64) iface.Mapping {
	if w.kmmap {
		return w.OS.MmapKmmap(p, f.(*File).f, size)
	}
	return w.Namespace.Mmap(p, f, size)
}

// MmapOther maps f in a new process, with its own page table.
func (w *linuxWorld) MmapOther(p *engine.Proc, f iface.File, size uint64) iface.Mapping {
	return w.OS.NewProcess().mmapInternal(p, f.(*File).f, size, w.kmmap)
}

func (w *linuxWorld) Engine() *engine.Engine { return w.e }

func (w *linuxWorld) Record(f iface.File, idx uint64) *cachedPage {
	return f.(*File).f.pages.Get(idx)
}

func (w *linuxWorld) Rmap(f iface.File, idx uint64) (vas []uint64) {
	pg := w.Record(f, idx)
	for _, m := range pg.f.maps {
		if va, ok := m.pteOf(pg); ok {
			vas = append(vas, va)
		}
	}
	return vas
}

func (w *linuxWorld) EvictAll(p *engine.Proc) {
	for w.OS.Cache.nrPages > 0 {
		w.OS.Cache.reclaim(p)
	}
}

func (w *linuxWorld) Tables() (int, uint64) {
	pt := w.OS.DefaultProcess().PT
	return pt.Pages(), pt.Mapped()
}

func (w *linuxWorld) Resident() int            { return w.OS.Cache.Resident() }
func (w *linuxWorld) Dirty() int               { return w.OS.Cache.NrDirty() }
func (w *linuxWorld) WrittenBack() uint64      { return w.OS.Cache.WrittenBk }
func (w *linuxWorld) Busy(pg *cachedPage) bool { return pg.busy() }

func (w *linuxWorld) Queue() (int, int, int) {
	return len(w.OS.Cache.dirtyQueue), w.OS.Cache.queueDead, dirtySweepMinDead
}

// Pinned is the dirty FIFO: a dirty page that reclaim evicts keeps its entry,
// dead, until writebackBatch pops it or the sweep drops it, and the entry
// holds the gone record. That is the world's one allowance, and the sweep
// bounds it: at most queueDead records, with queueDead at most the greater
// of dirtySweepMinDead and the live entries.
func (w *linuxWorld) Pinned() []*cachedPage { return w.OS.Cache.dirtyQueue }

// CheckInvariants holds the OS's audit, then what it leaves to the cache's
// tests: no frame is owned by two cached pages, and the dirty FIFO's dead
// count is its entries of gone pages.
func (w *linuxWorld) CheckInvariants() error {
	if err := w.OS.CheckInvariants(); err != nil {
		return err
	}
	owned := map[uint64]bool{}
	for _, f := range w.OS.FS.files {
		for _, pg := range f.pages.All() {
			if owned[pg.frame.ID] {
				return fmt.Errorf("frame %d owned twice, by (%s,%d) and another page", pg.frame.ID, f.name, pg.idx)
			}
			owned[pg.frame.ID] = true
		}
	}
	dead := 0
	for _, pg := range w.OS.Cache.dirtyQueue {
		if pg.state == detutil.PgGone {
			dead++
		}
	}
	if dead != w.OS.Cache.queueDead {
		return fmt.Errorf("dirty FIFO: %d entries of gone pages, %d counted", dead, w.OS.Cache.queueDead)
	}
	return nil
}
