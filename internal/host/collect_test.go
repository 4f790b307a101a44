package host

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"aquila/internal/sim/engine"
)

// TestEvictedPageRecordsAreCollectable is core's test of the same name run on
// the baseline: a cached page's record is garbage as soon as reclaim or a
// delete has dropped it and nothing else holds it. Reclaim unlinks a victim
// from its LRU list, and writebackBatch clears each dirty-FIFO slot it pops.
// The test watches every record a run creates — a mixed pass over a file
// eight times the cache, rounds of deleted files until the dirty FIFO's sweep
// runs, then a mixed pass and a load-only pass that turn the cache over
// behind them — and after a collection no gone record may still be reachable
// but through a dead dirty-FIFO entry the sweep's bound allows. It runs on
// one thread and on four threads, each on its own CPU.
func TestEvictedPageRecordsAreCollectable(t *testing.T) {
	for _, threads := range []int{1, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			evictedRecordsCollectable(t, threads)
		})
	}
}

func evictedRecordsCollectable(t *testing.T, threads int) {
	const cachePages, filePages, roundPages = 2048, 8 * 2048, 1536
	e, os := newPMemOS(cachePages * PageSize)
	w := recordWatch{held: map[uintptr]pageAt{}}
	var data *FSFile
	run1(e, func(p *engine.Proc) { data = os.FS.Create(p, "data", filePages*PageSize) })
	// touch is two loads to one store, or a load; every record it leaves in
	// the cache is watched.
	touch := func(p *engine.Proc, m *Mapping, mixed bool, f *FSFile, i uint64) {
		var buf [8]byte
		if mixed && i%3 == 2 {
			m.Store(p, i*PageSize, buf[:])
		} else {
			m.Load(p, i*PageSize, buf[:])
		}
		if pg := f.pages.Get(i); pg != nil {
			w.add(pg)
		}
	}
	pass := func(mixed bool) {
		for c := range threads {
			e.Spawn(c, "pass", func(p *engine.Proc) {
				m := os.Mmap(p, data, filePages*PageSize)
				for i := uint64(c); i < filePages; i += uint64(threads) {
					touch(p, m, mixed, data, i)
				}
				m.Munmap(p)
			})
		}
		e.Run()
	}
	pass(true)
	// Deleted files' pages die in the dirty FIFO. Each round msyncs as it
	// goes, so dirty throttling never pops the FIFO and the dead entries
	// pile up until the sweep drops them.
	run1(e, func(p *engine.Proc) {
		swept := false
		for r := 0; !swept; r++ {
			if r == 8 {
				t.Fatalf("%d rounds of %d deleted pages never triggered a dirty-FIFO sweep", r, roundPages)
			}
			name := fmt.Sprintf("round%d", r)
			f := os.FS.Create(p, name, roundPages*PageSize)
			m := os.Mmap(p, f, roundPages*PageSize)
			for i := range uint64(roundPages) {
				touch(p, m, true, f, i)
				if i%64 == 63 {
					m.MsyncRange(p, (i-63)*PageSize, 64*PageSize)
				}
			}
			m.Munmap(p)
			before := len(os.Cache.dirtyQueue)
			os.FS.Delete(p, name)
			swept = len(os.Cache.dirtyQueue) < before
		}
	})
	pass(true)
	pass(false)
	collect()
	// A reclaimed dirty page's FIFO entry stays where it is, dead, until
	// writebackBatch pops it or a sweep drops it: the sweep's bound is the
	// only thing that may hold a gone record.
	inFIFO := map[uintptr]bool{}
	for _, pg := range os.Cache.dirtyQueue {
		inFIFO[uintptr(unsafe.Pointer(pg))] = true
	}
	w.mu.Lock()
	cached, queued, held := 0, 0, 0
	for at, k := range w.held {
		switch pg := k.f.pages.Get(k.idx); {
		case pg != nil && uintptr(unsafe.Pointer(pg)) == at:
			cached++
		case inFIFO[at]:
			queued++
		default:
			held++
		}
	}
	watched := w.n
	w.mu.Unlock()
	if gone := watched - cached; gone < 2*(filePages-cachePages) {
		t.Fatalf("%d of %d records gone: not the evicting run", gone, watched)
	}
	if held > 0 {
		t.Errorf("%d of %d gone page records still reachable after a collection", held, watched-cached)
	}
	if dead, live := os.Cache.queueDead, len(os.Cache.dirtyQueue)-os.Cache.queueDead; queued > dead || dead > max(dirtySweepMinDead, live) {
		t.Errorf("the dirty FIFO holds %d gone records, %d dead entries counted, %d live: past the sweep's bound", queued, dead, live)
	}
	if err := os.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// recordWatch follows page records through the collector without holding
// them, as core's test of the same name does: it keys each by its address
// and gives it a finalizer that drops the key. A freed record's address is
// reused only after its finalizer has run, so after collect every key left
// names a record that something still holds.
type recordWatch struct {
	mu   sync.Mutex
	held map[uintptr]pageAt
	n    int // records watched
}

// pageAt is where a watched record was filed.
type pageAt struct {
	f   *FSFile
	idx uint64
}

func (w *recordWatch) add(pg *cachedPage) {
	w.mu.Lock()
	defer w.mu.Unlock()
	at := uintptr(unsafe.Pointer(pg))
	if _, ok := w.held[at]; ok {
		return
	}
	w.held[at] = pageAt{pg.f, pg.idx}
	w.n++
	runtime.SetFinalizer(pg, func(pg *cachedPage) {
		w.mu.Lock()
		delete(w.held, uintptr(unsafe.Pointer(pg)))
		w.mu.Unlock()
	})
}

// collect runs a collection and waits until the finalizers it queued have
// run. The runtime hands its finalizer goroutine the whole queue at once, so
// once the sentinel of a second collection has run, every finalizer queued by
// the first one has too.
func collect() {
	for range 2 {
		done := make(chan struct{})
		runtime.SetFinalizer(new([64]byte), func(*[64]byte) { close(done) })
		runtime.GC()
		<-done
	}
}
