// Package cachetest states, once, the contracts every page-cache world
// keeps: Aquila's cache (internal/core) and the Linux baseline
// (internal/host), as mmap and as Kreon's kmmap. A world's tests implement
// World over their own internals, and each contract boots its own worlds,
// drives them through iface and reads back what only a world can tell: its
// page records, page table and queues.
package cachetest

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"weak"

	"aquila/internal/iface"
	"aquila/internal/sim/cpu"
	"aquila/internal/sim/engine"
	"aquila/internal/sim/mem"
)

const (
	pageSize = mem.PageSize
	mib      = 1 << 20
)

// World is one booted page-cache world, as its own tests see it. R is its
// page record.
type World[R any] interface {
	iface.Namespace
	Engine() *engine.Engine
	// MmapOther maps f from a second address space where the world has one.
	MmapOther(p *engine.Proc, f iface.File, size uint64) iface.Mapping
	// Record is the page record cached at (f, idx), nil if none; Busy is
	// whether a record's page is claimed by a fill or an eviction.
	Record(f iface.File, idx uint64) *R
	Busy(r *R) bool
	// Rmap is the virtual addresses whose PTEs map the record at (f, idx),
	// as the world's reverse-map walk finds them.
	Rmap(f iface.File, idx uint64) []uint64
	// EvictAll evicts every cached page, writing back the dirty ones.
	EvictAll(p *engine.Proc)
	// Resident is the number of cached pages.
	Resident() int
	// Tables is the page table's page count and its mapped PTEs.
	Tables() (pages int, ptes uint64)
	// Dirty is the number of dirty pages; WrittenBack the pages written back.
	Dirty() int
	WrittenBack() uint64
	// Queue is the queue whose dead entries a sweep drops — a page record
	// per entry: its entries, how many of them are dead, and the dead count
	// below which no sweep runs.
	Queue() (entries, dead, sweepMin int)
	// Pinned is the records the world holds by design wherever their pages
	// are. A gone record among them is no leak, but they may not outnumber
	// the queue's dead entries.
	Pinned() []*R
	// CheckInvariants is every audit the world holds at a quiescent point.
	CheckInvariants() error
}

// Boot builds a fresh world with a cache of cacheBytes and cpus CPUs.
type Boot[R any] func(cacheBytes uint64, cpus int) World[R]

func run1(e *engine.Engine, fn func(p *engine.Proc)) {
	e.Spawn(0, "t", fn)
	e.Run()
}

func check[R any](t *testing.T, w World[R]) {
	t.Helper()
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// checkQueue holds the sweep's bound: dead entries never outnumber both the
// live ones and the sweep's threshold, and the live are at most two per
// cached page.
func checkQueue[R any](t *testing.T, w World[R], when string) {
	t.Helper()
	entries, dead, sweepMin := w.Queue()
	if live := entries - dead; dead > max(sweepMin, live) || entries > 2*w.Resident()+sweepMin {
		t.Fatalf("%s: %d queue entries, %d dead, %d pages cached: past the sweep's bound", when, entries, dead, w.Resident())
	}
}

// filed is where a page record was cached.
type filed struct {
	f   iface.File
	idx uint64
}

// GoneRecordsAreGarbage: a page record is garbage as soon as its page has
// left the cache and nothing else holds it. It watches every record a run
// creates — a mixed pass over a file eight times the cache, rounds of
// deleted files until the queue's sweep runs, then a load-only pass and a
// mixed pass that turn the cache over behind them, and last a faulter
// parked on a page an eviction has claimed, which goes while it waits — and
// after a collection no record that has left the cache may still be reachable
// but one the world has Pinned. It runs on one thread and on four threads and
// CPUs, with a CPU more for the faulter, which must run while the eviction
// does.
func GoneRecordsAreGarbage[R any](t *testing.T, boot Boot[R]) {
	for _, threads := range []int{1, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			goneRecordsAreGarbage(t, boot, threads)
		})
	}
}

func goneRecordsAreGarbage[R any](t *testing.T, boot Boot[R], threads int) {
	const cachePages, filePages, roundPages = 2048, 8 * 2048, 1536
	w := boot(cachePages*pageSize, threads+1) // the last CPU is the parked faulter's
	e := w.Engine()
	// Each record is followed through the collector without being held.
	watched := map[weak.Pointer[R]]filed{}
	var data iface.File
	run1(e, func(p *engine.Proc) { data = w.Create(p, "data", filePages*pageSize) })
	// touch is two loads to one store, or a load; every record it leaves in
	// the cache is watched.
	touch := func(p *engine.Proc, m iface.Mapping, mixed bool, f iface.File, i uint64) {
		var buf [8]byte
		if mixed && i%3 == 2 {
			m.Store(p, i*pageSize, buf[:])
		} else {
			m.Load(p, i*pageSize, buf[:])
		}
		if r := w.Record(f, i); r != nil {
			watched[weak.Make(r)] = filed{f, i}
		}
	}
	pass := func(mixed bool) {
		for c := range threads {
			e.Spawn(c, "pass", func(p *engine.Proc) {
				m := w.Mmap(p, data, filePages*pageSize)
				for i := uint64(c); i < filePages; i += uint64(threads) {
					touch(p, m, mixed, data, i)
				}
				m.Munmap(p)
			})
		}
		e.Run()
		checkQueue(t, w, fmt.Sprintf("mixed=%v pass", mixed))
	}
	pass(true)
	// Deleted files' entries die in the queue. Each round msyncs as it goes,
	// so no dirty throttling pops the queue, and nothing evicts while the
	// freed frames last: the sweep must drop them.
	run1(e, func(p *engine.Proc) {
		swept := false
		for r := 0; !swept; r++ {
			if r == 8 {
				t.Fatalf("%d rounds of %d deleted pages never triggered a sweep", r, roundPages)
			}
			name := fmt.Sprintf("round%d", r)
			f := w.Create(p, name, roundPages*pageSize)
			m := w.Mmap(p, f, roundPages*pageSize)
			for i := range uint64(roundPages) {
				touch(p, m, true, f, i)
				if i%64 == 63 {
					m.MsyncRange(p, (i-63)*pageSize, 64*pageSize)
				}
			}
			m.Munmap(p)
			before, _, _ := w.Queue()
			w.Delete(p, name)
			after, _, _ := w.Queue()
			swept = after < before
		}
	})
	pass(false)
	pass(true)
	// The faulter waits on the claimed page's busy period, wakes when the
	// page has gone and faults it back: it must keep no hold on the record
	// it waited on (the engine's record of what a parked proc waits for).
	// The mixed pass left dirty pages, so a claim lasts its batch's
	// write-back: long enough for the faulter's fault to find it.
	var parked *R
	evicting := true
	t0 := e.Now()
	e.SpawnAt(0, "evict", t0, func(p *engine.Proc) {
		w.EvictAll(p)
		evicting = false
	})
	e.SpawnAt(threads, "park", t0, func(p *engine.Proc) {
		m := w.Mmap(p, data, filePages*pageSize)
		m.Advise(p, iface.AdviceRandom)
		for parked == nil && evicting {
			for i := range uint64(filePages) {
				if r := w.Record(data, i); r != nil && w.Busy(r) {
					parked = r
					watched[weak.Make(r)] = filed{data, i}
					var buf [8]byte
					m.Load(p, i*pageSize, buf[:])
					if w.Record(data, i) == r {
						t.Errorf("the faulter parked on page %d's claim and found the same record after it", i)
					}
					break
				}
			}
			p.WaitUntil(p.Now()+200, engine.KindIOWait)
		}
	})
	e.Run()
	if parked == nil {
		t.Fatal("no page seen claimed while the cache was evicted: no faulter parked")
	}
	parked = nil
	runtime.GC() // sweeps every span before it returns: the weak pointers of the dead are nil
	pinned := map[*R]bool{}
	for _, r := range w.Pinned() {
		pinned[r] = true
	}
	cached, queued, held := 0, 0, 0
	for rec, at := range watched {
		switch r := rec.Value(); {
		case r == nil:
		case r == w.Record(at.f, at.idx):
			cached++
		case pinned[r]:
			queued++
		default:
			held++
		}
	}
	if gone := len(watched) - cached; gone < 2*(filePages-cachePages) {
		t.Fatalf("%d of %d records gone: not the evicting run", gone, len(watched))
	}
	if held > 0 {
		t.Errorf("%d of %d gone page records still reachable after a collection", held, len(watched)-cached)
	}
	if _, dead, _ := w.Queue(); queued > dead {
		t.Errorf("the queue pins %d gone records with %d dead entries", queued, dead)
	}
	check(t, w)
}

// DeadQueueEntriesAreSwept: with nothing evicting and nothing throttling,
// nothing walks the queue, and the entries of deleted files used to pin every
// one of their pages for the life of the world. The dead are swept once they
// outnumber the live, and a deleted file leaves no live entry behind.
func DeadQueueEntriesAreSwept[R any](t *testing.T, boot Boot[R]) {
	const rounds, pages = 12, 3000
	w := boot(64*mib, 2)
	run1(w.Engine(), func(p *engine.Proc) {
		swept := false
		for r := range rounds {
			name := fmt.Sprintf("round%d", r)
			f := w.Create(p, name, pages*pageSize)
			m := w.Mmap(p, f, pages*pageSize)
			for i := range uint64(pages) {
				m.Store(p, i*pageSize, []byte{byte(r)})
				if i%64 == 63 {
					m.MsyncRange(p, (i-63)*pageSize, 64*pageSize)
				}
			}
			m.Munmap(p)
			if w.Resident() != pages {
				t.Fatalf("round %d: %d pages cached of %d stored: something evicted", r, w.Resident(), pages)
			}
			before, _, _ := w.Queue()
			w.Delete(p, name)
			entries, dead, _ := w.Queue()
			swept = swept || entries < before
			if entries-dead != 0 {
				t.Fatalf("round %d: %d live queue entries with no page cached", r, entries-dead)
			}
			checkQueue(t, w, fmt.Sprintf("round %d", r))
			check(t, w)
		}
		if !swept {
			t.Fatalf("%d rounds of %d pages never triggered a sweep", rounds, pages)
		}
	})
}

// MunmapReleasesTablePages: a munmap frees the page-table pages its span
// emptied, as Linux's free_pgtables does: after every page of a mapping is
// faulted and the mapping unmapped, the table holds as many pages as before
// the mmap. An mremap that moves the mapping frees the old range's pages the
// same way, so the munmap after it does too.
func MunmapReleasesTablePages[R any](t *testing.T, boot Boot[R]) {
	const pages = 2048 // four last-level table pages
	w := boot(4*pages*pageSize, 2)
	run1(w.Engine(), func(p *engine.Proc) {
		f := w.Create(p, "data", 2*pages*pageSize)
		before, _ := w.Tables()
		for _, grow := range []bool{false, true} {
			m := w.Mmap(p, f, pages*pageSize)
			var buf [8]byte
			for i := uint64(0); i < pages; i++ {
				m.Load(p, i*pageSize, buf[:])
			}
			if got, _ := w.Tables(); got <= before {
				t.Fatalf("faulting %d pages left %d table pages, as many as before the mmap", pages, got)
			}
			if grow {
				m.(interface{ Mremap(*engine.Proc, uint64) }).Mremap(p, 2*pages*pageSize)
			}
			m.Munmap(p)
			if got, ptes := w.Tables(); got != before || ptes != 0 {
				t.Errorf("mremap %v: %d table pages and %d PTEs after munmap, want %d and none", grow, got, ptes, before)
			}
		}
		check(t, w)
	})
}

// RemapReusesTablePages: the table pages a munmap empties — the leaves and
// the two pages above them — go to the page table's spare lists, and the
// next mmap's faults take them from there. Each round evicts what the last
// one cached, maps the file with MADV_RANDOM (no read-around), touches one
// page per 2 MB and unmaps: every touch is a cold fault into a leaf of its
// own. After a first round has left its table pages spare, a round allocates
// its page records and two objects more, the mapping's own, where a leaf
// allocated again per fault would double it and a pd or pdpt allocated again
// would show too. After every munmap the table holds as many pages as before
// the first mmap.
func RemapReusesTablePages[R any](t *testing.T, boot Boot[R]) {
	const span, roundObjects = 64 * mib, 2
	w := boot(16*mib, 2)
	run1(w.Engine(), func(p *engine.Proc) {
		f := w.Create(p, "data", span)
		before, _ := w.Tables()
		var buf [8]byte
		records, rounds := 0, 0
		round := func() {
			w.EvictAll(p)
			m := w.Mmap(p, f, span)
			m.Advise(p, iface.AdviceRandom)
			for off := uint64(0); off < span; off += 2 * mib {
				m.Load(p, off, buf[:])
			}
			records += w.Resident()
			rounds++
			m.Munmap(p)
			if pages, ptes := w.Tables(); pages != before || ptes != 0 {
				t.Fatalf("round %d: %d table pages and %d PTEs after munmap, want %d and none", rounds, pages, ptes, before)
			}
		}
		round()
		records, rounds = 0, 0
		got := testing.AllocsPerRun(5, round)
		want := float64(records / rounds)
		if records/rounds != span/(2*mib) {
			t.Fatalf("%d pages cached per round, want %d", records/rounds, span/(2*mib))
		}
		if got < want || got > want+roundObjects {
			t.Errorf("a round of %v cold faults made %v allocations, want one page record each and at most %d more", want, got, roundObjects)
		}
		check(t, w)
	})
}

// EvictRefaultKeepsTablePages: eviction unmaps page by page and frees no
// table page, so the refault of an evicted mapping finds its table pages
// where they were. One page per 2 MB is touched, and the first passes shrink
// any read-around to that page, so a table page allocated again per refault
// would double the allocations of a cycle whose only objects are the page
// records.
func EvictRefaultKeepsTablePages[R any](t *testing.T, boot Boot[R]) {
	const span = 64 * mib
	w := boot(16*mib, 2)
	run1(w.Engine(), func(p *engine.Proc) {
		f := w.Create(p, "data", span)
		m := w.Mmap(p, f, span)
		var buf [8]byte
		records, passes := 0, 0
		cycle := func() {
			w.EvictAll(p)
			for off := uint64(0); off < span; off += 2 * mib {
				m.Load(p, off, buf[:])
			}
			records += w.Resident()
			passes++
		}
		for range 4 {
			cycle()
		}
		tables, mapped := w.Tables()
		records, passes = 0, 0
		got := testing.AllocsPerRun(5, cycle)
		if pages, ptes := w.Tables(); records/passes != span/(2*mib) || pages != tables || ptes != mapped {
			t.Errorf("%d pages cached per refault pass, %d table pages and %d PTEs after it, want %d, %d and %d", records/passes, pages, ptes, span/(2*mib), tables, mapped)
		}
		if want := float64(records / passes); got < want || got > want+2 {
			t.Errorf("evicting and refaulting %v pages made %v allocations, want one page record each", want, got)
		}
		check(t, w)
	})
}

// ColdMajorFaultIsOneAllocation pins DESIGN.md §3's summary sentence: a cold
// 4 KB major fault (MADV_RANDOM: no read-around) allocates the page record
// and nothing else — its busy event is inside it, its frame is a record of
// the flat table, its PTEs are found through its file's mappings — and a
// second mapping's fault on a resident page allocates nothing at all.
func ColdMajorFaultIsOneAllocation[R any](t *testing.T, boot Boot[R]) {
	const batch = 64
	w := boot(64*mib, 2)
	run1(w.Engine(), func(p *engine.Proc) {
		f := w.Create(p, "data", 48*mib)
		m1, m2 := w.Mmap(p, f, 48*mib), w.MmapOther(p, f, 48*mib)
		m1.Advise(p, iface.AdviceRandom)
		m2.Advise(p, iface.AdviceRandom)
		var buf [8]byte
		// A run is a batch of faults so that growth that amortizes — the
		// page index, an LRU queue, a page-table node per 512 pages — shows
		// as a fraction testing.AllocsPerRun rounds away while a second
		// object per fault would not: 64 faults must cost 64 allocations.
		loads := func(m iface.Mapping) func() {
			next := uint64(0)
			return func() {
				for range batch {
					m.Load(p, next*pageSize, buf[:])
					next++
				}
			}
		}
		cold, second := loads(m1), loads(m2)
		cold() // the fault scratch, the CPU's TLB
		if got := testing.AllocsPerRun(100, cold); got < batch || got > batch+2 {
			t.Errorf("%d cold major faults made %v allocations, want one each", batch, got)
		}
		// The warm-up, AllocsPerRun's own warm-up run and its 100 runs: no
		// read-around, no eviction.
		if got := w.Resident(); got != 102*batch {
			t.Fatalf("%d pages cached after %d cold loads", got, 102*batch)
		}
		first := w.Rmap(f, 0)
		if len(first) != 1 {
			t.Fatalf("a page mapped once has vas %#x", first)
		}
		second()
		// What amortizes — the second mapping's table pages, an LRU queue —
		// rounds away.
		if got := testing.AllocsPerRun(50, second); got > 2 {
			t.Errorf("%d second mappings of resident pages made %v allocations, want none", batch, got)
		}
		if got := w.Resident(); got != 102*batch {
			t.Fatalf("%d pages cached after the second mapping's loads, want %d", got, 102*batch)
		}
		if both := w.Rmap(f, 0); len(both) != 2 || both[0] != first[0] {
			t.Fatalf("a page mapped twice has vas %#x, want the first mapping's %#x first", both, first[0])
		}
		check(t, w)
	})
}

// WPFaultRacingMsyncLeavesPageDirty: a store's write-protect fault that
// dirtied the page, paid a yielding charge and only then made the PTE
// writable let an msync inside that charge clean the page, and the next
// store through the writable PTE was never written back. A second proc
// interrupts the storing CPU (as a concurrent munmap's shootdown does) and
// msyncs at every offset across the store's write-protect fault; after each,
// one more store must leave the page dirty. The sweep must reach an msync
// that writes the page back while the fault is in flight.
func WPFaultRacingMsyncLeavesPageDirty[R any](t *testing.T, boot Boot[R]) {
	raced := 0
	for d := uint64(0); d < 3000; d += 5 {
		w := boot(1*mib, 2)
		e := w.Engine()
		var m iface.Mapping
		run1(e, func(p *engine.Proc) {
			m = w.Mmap(p, w.Create(p, "f", pageSize), pageSize)
			m.Load(p, 0, make([]byte, 8)) // maps the page read-only
		})
		t0 := e.Now()
		e.SpawnAt(0, "store", t0, func(p *engine.Proc) { m.Store(p, 0, []byte{1}) })
		e.SpawnAt(1, "msync", t0+d, func(p *engine.Proc) {
			e.PostIRQ(0, cpu.IPIReceive+cpu.TLBFlushAll)
			m.Msync(p)
		})
		e.Run()
		wp, counts := w.(interface{ WPFaults() uint64 }) // if counted, a second WP fault is not the race
		if w.WrittenBack() > 0 && w.Dirty() == 1 && (!counts || wp.WPFaults() == 1) {
			raced++
		}
		e.SpawnAt(0, "store again", e.Now(), func(p *engine.Proc) { m.Store(p, 8, []byte{2}) })
		e.Run()
		if w.Dirty() != 1 {
			t.Fatalf("msync %d cycles into the store: a store left its page clean", d)
		}
		if err := w.CheckInvariants(); err != nil {
			t.Fatalf("msync %d cycles into the store: %v", d, err)
		}
	}
	if raced == 0 {
		t.Fatal("no msync wrote the page back during a write-protect fault: not the race")
	}
}

// DeleteRacingEvictionReleasesEachFrameOnce: a delete that waited out its
// file's busy pages once, then dropped them across yields, let an eviction
// claim a page it had waited out or not yet dropped, and both released its
// frame. Four threads fault another file through a small cache while a fifth
// deletes the file whose pages the evictions are taking, oldest first, once
// it sees one of them claimed; the audits then find every frame owned once.
func DeleteRacingEvictionReleasesEachFrameOnce[R any](t *testing.T, boot Boot[R]) {
	const doomedPages, otherPages, faulters = 896, 4096, 4
	w := boot(4*mib, faulters+1)
	e := w.Engine()
	var doomed, other iface.File
	run1(e, func(p *engine.Proc) {
		doomed = w.Create(p, "doomed", doomedPages*pageSize)
		other = w.Create(p, "other", otherPages*pageSize)
		m := w.Mmap(p, doomed, doomedPages*pageSize)
		for i := uint64(0); i < doomedPages; i++ {
			m.Store(p, i*pageSize, []byte{1})
		}
		m.Munmap(p)
	})
	running := faulters
	for c := range faulters {
		e.Spawn(c, "fault", func(p *engine.Proc) {
			m := w.Mmap(p, other, otherPages*pageSize)
			var buf [8]byte
			for i := uint64(c); i < otherPages; i += faulters {
				m.Load(p, i*pageSize, buf[:])
			}
			running--
		})
	}
	raced := false
	e.Spawn(faulters, "delete", func(p *engine.Proc) {
		for !raced && running > 0 {
			for i := range uint64(doomedPages) {
				r := w.Record(doomed, i)
				raced = raced || r != nil && w.Busy(r)
			}
			p.WaitUntil(p.Now()+200, engine.KindIOWait)
		}
		w.Delete(p, "doomed")
	})
	e.Run()
	if !raced {
		t.Fatal("no doomed page claimed by an eviction before the delete: not the race")
	}
	check(t, w)
}

// InvariantsAfterHeavyChurn: six threads store and load at random over a
// file eight times the cache, each msyncing its mapping at the end, and the
// world's audits hold once one more msync has quiesced it.
func InvariantsAfterHeavyChurn[R any](t *testing.T, boot Boot[R]) {
	const size = 16 * mib
	w := boot(size/8, 8)
	e := w.Engine()
	var f iface.File
	run1(e, func(p *engine.Proc) { f = w.Create(p, "churn", size) })
	maps := make([]iface.Mapping, 6)
	for i := range maps {
		e.Spawn(i, "t", func(p *engine.Proc) {
			maps[i] = w.Mmap(p, f, size)
			buf := make([]byte, 16)
			x := uint64(i + 7)
			for j := range 1500 {
				x = x*6364136223846793005 + 1
				off := (x >> 17) % (size - 16) / pageSize * pageSize
				if j%3 == 0 {
					maps[i].Store(p, off, buf)
				} else {
					maps[i].Load(p, off, buf)
				}
			}
			maps[i].Msync(p)
		})
	}
	e.Run()
	run1(e, func(p *engine.Proc) { maps[0].Msync(p) })
	check(t, w)
}

// PageMappedTwice: a page faulted through two mappings of its file is found
// through both, in mapping order, wherever a world acts on its PTEs. After an
// eviction a store through either mapping is read back through the other (a
// PTE eviction missed would hold the old frame); after an msync through
// either, a store through the other dirties the page again. A grown mapping's
// PTE is found at its new address, and an munmap leaves the other mapping's.
func PageMappedTwice[R any](t *testing.T, boot Boot[R]) {
	const pages = 64
	w := boot(16*mib, 2)
	run1(w.Engine(), func(p *engine.Proc) {
		f := w.Create(p, "data", 2*pages*pageSize)
		ms := []iface.Mapping{w.Mmap(p, f, pages*pageSize), w.MmapOther(p, f, pages*pageSize)}
		var buf [8]byte
		mapped := func(when string, want int) []uint64 {
			if vas := w.Rmap(f, 0); len(vas) == want {
				return vas
			}
			t.Fatalf("%s: page 0 mapped at %#x, want %d mapping(s)", when, w.Rmap(f, 0), want)
			return nil
		}
		evictThenStore := func(when string) {
			w.EvictAll(p)
			check(t, w) // no PTE of a page that went
			for i, m := range ms {
				m.Store(p, uint64(8*i), []byte{byte(i + 1)})
				if ms[1-i].Load(p, uint64(8*i), buf[:1]); buf[0] != byte(i+1) {
					t.Fatalf("%s: a store through mapping %d reads %d through the other", when, i+1, buf[0])
				}
			}
		}
		for _, m := range ms {
			m.Advise(p, iface.AdviceRandom)
			m.Load(p, 0, buf[:])
		}
		before := mapped("faulted through both", 2)
		evictThenStore("after an eviction")
		mapped("stored through both", 2)
		for i, m := range ms {
			m.Msync(p)
			if ms[1-i].Store(p, 16, []byte{1}); w.Dirty() != 1 {
				t.Fatalf("after an msync through mapping %d a store through the other left %d dirty pages, want 1", i+1, w.Dirty())
			}
		}
		ms[0].(interface{ Mremap(*engine.Proc, uint64) }).Mremap(p, 2*pages*pageSize)
		if vas := mapped("after the first mapping grew", 2); vas[0] == before[0] || vas[1] != before[1] {
			t.Fatalf("after the first mapping grew: page 0 mapped at %#x, was %#x", vas, before)
		}
		evictThenStore("after the first mapping grew")
		ms[0].Munmap(p)
		if vas := mapped("after the first mapping went", 1); vas[0] != before[1] {
			t.Fatalf("after the first mapping went: page 0 mapped at %#x, want %#x", vas, before[1])
		}
		ms[0] = ms[1]
		evictThenStore("after the first mapping went")
	})
}

// MappedFileDeleteIsRefused: a file with a mapping is not deleted, even when
// no page of it was ever touched — its mapping would read the storage's next
// owner — and the delete's panic names the file.
func MappedFileDeleteIsRefused[R any](t *testing.T, boot Boot[R]) {
	w := boot(4*mib, 2)
	e := w.Engine()
	run1(e, func(p *engine.Proc) {
		f := w.Create(p, "mapped", 16*pageSize)
		w.Mmap(p, f, 16*pageSize)
	})
	e.Spawn(0, "delete", func(p *engine.Proc) { w.Delete(p, "mapped") })
	if msg := panicOf(e.Run); !strings.Contains(msg, `delete of "mapped"`) {
		t.Fatalf("the delete of a mapped file panicked with %q, want one naming it", msg)
	}
}

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
