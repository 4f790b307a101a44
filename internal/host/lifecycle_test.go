package host

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"aquila/internal/detutil"
	"aquila/internal/sim/engine"
	"aquila/internal/sim/mem"
)

// panicOf runs f and returns what it panicked with, "" if nothing.
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestPageMoveMatrix holds PageCache.move to the lifecycle table core's move
// is held to: every (from, to) pair either moves the page as the table says —
// radix-tree membership, the dirty counts and FIFO, the busy event — or
// panics naming the page and both states; a pinned page may not leave.
func TestPageMoveMatrix(t *testing.T) {
	const n = uint64(detutil.PgGone) + 1
	e, os := newPMemOS(4 * mib)
	run1(e, func(p *engine.Proc) {
		c := os.Cache
		f := os.FS.Create(p, "m", (n*n+1)*PageSize)
		for from := detutil.PageState(0); uint64(from) < n; from++ {
			for to := detutil.PageState(0); uint64(to) < n; to++ {
				idx := uint64(from)*n + uint64(to)
				pg := &cachedPage{f: f, idx: idx, frame: &mem.Frame{}, state: from}
				if from.Indexed() {
					f.pages.Insert(idx, pg)
				}
				if from.Counted() {
					f.nrDirty++
					c.nrDirty++
				}
				if from.Busy() {
					pg.ev.Arm(reclaimClaim)
				}
				before, queued := c.nrDirty, len(c.dirtyQueue)
				msg := panicOf(func() { c.move(pg, to) })
				if !from.Legal(to) {
					if want := fmt.Sprintf("host: page (m,%d): %v → %v", idx, from, to); !strings.HasPrefix(msg, want) {
						t.Errorf("%v → %v: panic %q, want %q", from, to, msg, want)
					}
					continue
				}
				counted := map[bool]int{true: 1}
				moved := counted[to.Counted()] - counted[from.Counted()]
				switch {
				case msg != "":
					t.Errorf("%v → %v, a listed edge, panicked: %s", from, to, msg)
				case pg.state != to || (f.pages.Get(idx) == pg) != to.Indexed():
					t.Errorf("%v → %v: state %v, indexed %v", from, to, pg.state, f.pages.Get(idx) == pg)
				case c.nrDirty-before != moved || f.nrDirty != c.nrDirty:
					t.Errorf("%v → %v: dirty count moved by %d", from, to, c.nrDirty-before)
				case len(c.dirtyQueue)-queued != max(moved, 0):
					t.Errorf("%v → %v: %d dirty FIFO entries added", from, to, len(c.dirtyQueue)-queued)
				case to.Busy() && !pg.busy():
					t.Errorf("%v → %v: event not armed", from, to)
				}
				pg.ev.Fire(p.Now())
			}
		}
		pg := &cachedPage{f: f, idx: n * n, state: detutil.PgClean, pins: 1}
		f.pages.Insert(pg.idx, pg)
		if msg, want := panicOf(func() { c.move(pg, detutil.PgGone) }), "clean → gone with 1 pins"; !strings.Contains(msg, want) {
			t.Errorf("a pinned page leaving: panic %q, want %q", msg, want)
		}
	})
}

// The page record stays in its size class: publishing a page is one
// allocation of it (TestColdMajorFaultIsOneAllocation), and a field more puts
// every fault in the next class.
func TestPageRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(cachedPage{}); got > 128 {
		t.Errorf("cachedPage is %d bytes, want at most 128: past it every cold fault allocates from Go's 144-byte size class, not the 128-byte one (DESIGN.md §3 \"Page records\")", got)
	}
}

// Regression: truncate took a deleted file's pages out of the radix tree
// without looking at whether a reclaim had claimed one, and released its frame
// again after the reclaim had: frames were queued twice (or, when the
// allocator's count hit zero, "double release"), and nrPages went negative.
// One thread faults another file through a 1 MiB NVMe cache, so reclaim takes
// the doomed file's dirty pages and holds them busy through their write-back;
// a second thread deletes the file while one of them is.
func TestDeleteRacingReclaimReleasesEachFrameOnce(t *testing.T) {
	const doomedPages, otherPages = 64, 1024
	e, os := newNVMeOS(1 * mib)
	var doomed, other *FSFile
	run1(e, func(p *engine.Proc) {
		doomed = os.FS.Create(p, "doomed", doomedPages*PageSize)
		other = os.FS.Create(p, "other", otherPages*PageSize)
		m := os.Mmap(p, doomed, doomedPages*PageSize)
		for i := uint64(0); i < doomedPages; i++ {
			m.Store(p, i*PageSize, []byte{1})
		}
	})
	sawBusy := false
	e.Spawn(0, "fault", func(p *engine.Proc) {
		m := os.Mmap(p, other, otherPages*PageSize)
		var buf [8]byte
		for i := uint64(0); i < otherPages; i++ {
			m.Load(p, i*PageSize, buf[:])
		}
	})
	e.Spawn(1, "delete", func(p *engine.Proc) {
		for !sawBusy {
			for _, pg := range doomed.pages.All() {
				sawBusy = sawBusy || pg.busy()
			}
			p.WaitUntil(p.Now()+200, engine.KindIOWait)
		}
		os.FS.Delete(p, "doomed")
	})
	e.Run()
	if !sawBusy || os.Cache.Evicted == 0 {
		t.Fatalf("busy page seen: %v, %d evicted: not the race", sawBusy, os.Cache.Evicted)
	}
	owners := map[uint64]int{}
	for _, pg := range other.pages.All() {
		owners[pg.frame.ID]++
	}
	if got := os.Cache.allocator.Allocated(); got != uint64(len(owners)) || len(owners) != other.pages.Len() {
		t.Errorf("%d frames allocated, %d owned by %d cached pages", got, len(owners), other.pages.Len())
	}
	if err := os.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// Regression: the dirty FIFO kept an entry for every clean → dirty move, and
// only throttling took entries out; with a dirty ratio of one nothing ever
// throttles, and four store passes over a file eight times the cache left
// 8,192 entries, 7,936 of them pages long reclaimed. Entries of gone pages are
// now swept once they outnumber the rest.
func TestDirtyQueueForgetsReclaimedPages(t *testing.T) {
	const cachePages, filePages = 256, 2048
	e, os := newPMemOS(cachePages * PageSize)
	os.P.DirtyRatio = 1
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "f", filePages*PageSize)
		m := os.Mmap(p, f, filePages*PageSize)
		for pass := 0; pass < 4; pass++ {
			for i := uint64(0); i < filePages; i++ {
				m.Store(p, i*PageSize, []byte{byte(pass)})
			}
		}
		c := os.Cache
		dead := 0
		for _, pg := range c.dirtyQueue {
			if pg.f.pages.Get(pg.idx) != pg {
				dead++
			}
		}
		if n := len(c.dirtyQueue); n > 2*c.Resident()+dirtySweepMinDead || dead > max(dirtySweepMinDead, n-dead) {
			t.Errorf("dirty FIFO of %d entries, %d of them for pages no longer cached, %d pages cached", n, dead, c.Resident())
		}
		if dead != c.queueDead {
			t.Errorf("%d entries of gone pages, %d counted", dead, c.queueDead)
		}
		if err := os.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})
}

// Regression: a buffered read or write found its page settled, then took the
// lru_lock to mark it accessed — a yield — before pinning it, and a reclaim
// holding the lock could claim the page meanwhile: the write copied into a
// frame already on its way back to the allocator (20 of 512 pages lost over a
// 32-page cache). The page is pinned before the lock is taken.
func TestBufferedWriteRacingReclaimLosesNoStores(t *testing.T) {
	const pages = 512
	e, os := newPMemOS(32 * PageSize)
	var x, y *FSFile
	run1(e, func(p *engine.Proc) {
		x = os.FS.Create(p, "x", pages*PageSize)
		y = os.FS.Create(p, "y", pages*PageSize)
	})
	page := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8), 0xA5, 0x5A}, PageSize/4) }
	for w := 0; w < 2; w++ {
		e.Spawn(w, "write", func(p *engine.Proc) {
			f := os.OpenFile(x, false)
			for i := w; i < pages; i += 2 {
				f.Pwrite(p, page(i), uint64(i)*PageSize)
			}
		})
		e.Spawn(2+w, "read", func(p *engine.Proc) {
			f := os.OpenFile(y, false)
			buf := make([]byte, 64)
			for i := w; i < pages; i += 2 {
				f.Pread(p, buf, uint64(i)*PageSize)
			}
		})
	}
	e.Run()
	run1(e, func(p *engine.Proc) {
		os.Cache.fsyncFileRange(p, x, 0, x.cap)
		direct := os.OpenFile(x, true)
		got := make([]byte, PageSize)
		lost := 0
		for i := 0; i < pages; i++ {
			direct.Pread(p, got, uint64(i)*PageSize)
			if !bytes.Equal(got, page(i)) {
				lost++
			}
		}
		if lost > 0 {
			t.Errorf("%d of %d pages lost", lost, pages)
		}
	})
	if err := os.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
