package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"aquila/internal/sim/engine"
)

// TestEvictedPageRecordsAreCollectable: a page record is garbage as soon as
// its page has left the cache and nothing else holds it. Selection used to
// move a queue's head past each entry it consumed and leave the page in the
// slot until compact dropped the prefix, which pinned thousands of evicted
// records in every evicting world. The test watches every record a run
// creates — a mixed pass over a file eight times the cache, rounds of deleted
// files until the sweep runs, then a mixed pass and a load-only pass that turn
// the cache over behind them — and after a collection no record that has left
// the cache may still be reachable. It runs on one thread and on four threads
// and CPUs.
func TestEvictedPageRecordsAreCollectable(t *testing.T) {
	for _, threads := range []int{1, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			evictedRecordsCollectable(t, threads)
		})
	}
}

func evictedRecordsCollectable(t *testing.T, threads int) {
	const cachePages, filePages, roundPages = 2048, 8 * 2048, 1536
	e, _, boot := daxWorld(cachePages*pageSize, threads)
	w := recordWatch{held: map[uintptr]pageAt{}}
	var rt *Runtime
	var data *fileState
	e.Spawn(0, "boot", func(p *engine.Proc) {
		rt = boot(p)
		data = rt.CreateFile(p, "data", filePages*pageSize)
	})
	e.Run()
	// touch is two loads to one store, or a load; every record it leaves in
	// the cache is watched.
	touch := func(p *engine.Proc, m *AqMapping, mixed bool, f *fileState, i uint64) {
		var buf [8]byte
		if mixed && i%3 == 2 {
			m.Store(p, i*pageSize, buf[:])
		} else {
			m.Load(p, i*pageSize, buf[:])
		}
		if pg := rt.lookupPage(f, i); pg != nil {
			w.add(pg)
		}
	}
	pass := func(mixed bool) {
		for c := range threads {
			e.Spawn(c, "pass", func(p *engine.Proc) {
				m := rt.Mmap(p, data, filePages*pageSize)
				for i := uint64(c); i < filePages; i += uint64(threads) {
					touch(p, m, mixed, data, i)
				}
				m.Munmap(p)
			})
		}
		e.Run()
	}
	pass(true)
	// Deleted files' entries die in the queues, and nothing evicts them
	// while the freed frames last: the sweep must drop them.
	e.Spawn(0, "delete", func(p *engine.Proc) {
		swept := false
		for r := 0; !swept; r++ {
			if r == 8 {
				t.Fatalf("%d rounds of %d deleted pages never triggered a sweep", r, roundPages)
			}
			name := fmt.Sprintf("round%d", r)
			f := rt.CreateFile(p, name, roundPages*pageSize)
			m := rt.Mmap(p, f, roundPages*pageSize)
			for i := range uint64(roundPages) {
				touch(p, m, true, f, i)
			}
			m.Munmap(p)
			before := rt.lru.queued
			rt.DeleteFile(p, name)
			swept = rt.lru.queued < before
		}
	})
	e.Run()
	pass(true)
	pass(false)
	collect()
	w.mu.Lock()
	cached, held := 0, 0
	for at, k := range w.held {
		if pg := rt.lookupPage(k.f, k.idx); pg != nil && uintptr(unsafe.Pointer(pg)) == at {
			cached++
		} else {
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
	if err := rt.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// recordWatch follows page records through the collector without holding
// them: it keys each by its address and gives it a finalizer that drops the
// key. A freed record's address is reused only after its finalizer has run,
// so after collect every key left names a record that something still holds.
type recordWatch struct {
	mu   sync.Mutex
	held map[uintptr]pageAt
	n    int // records watched
}

// pageAt is where a watched record was filed.
type pageAt struct {
	f   *fileState
	idx uint64
}

func (w *recordWatch) add(pg *Page) {
	w.mu.Lock()
	defer w.mu.Unlock()
	at := uintptr(unsafe.Pointer(pg))
	if _, ok := w.held[at]; ok {
		return
	}
	w.held[at] = pageAt{pg.file, pg.idx}
	w.n++
	runtime.SetFinalizer(pg, func(pg *Page) {
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
