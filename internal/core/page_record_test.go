package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"aquila/internal/cachetest"
	"aquila/internal/detutil"
	"aquila/internal/sim/engine"
	"aquila/internal/sim/mem"
	"aquila/internal/sim/pagetable"
)

// TestSweepDoesNotMoveVictimOrder runs one evicting trace — major faults, minor
// faults that re-record resident pages, a file deleted midway — twice, the second
// time sweeping after every operation. Selection skips dead entries at no
// cost, so the victims, their order and the clock must be the same.
func TestSweepDoesNotMoveVictimOrder(t *testing.T) {
	run := func(sweepEveryOp bool) (victims []string, sweeps int) {
		e, _, boot := daxWorld(2*mib, 2)
		e.Spawn(0, "t", func(p *engine.Proc) {
			rt := boot(p)
			def := rt.Victims
			rt.Victims = func(p *engine.Proc, n int) []*Page {
				vs := def(p, n)
				for _, v := range vs {
					victims = append(victims, fmt.Sprintf("%s:%d", v.file.name, v.idx))
				}
				return vs
			}
			op := func() {
				if sweepEveryOp && rt.lru.dead > 0 {
					rt.lru.sweep()
					sweeps++
				}
			}
			var buf [8]byte
			a := rt.CreateFile(p, "a", 8*mib)
			b := rt.CreateFile(p, "b", 1*mib)
			ma, ma2, mb := rt.Mmap(p, a, 8*mib), rt.Mmap(p, a, 8*mib), rt.Mmap(p, b, 1*mib)
			x := uint64(12345)
			for i := 0; i < 6000; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				switch {
				case i == 3000:
					mb.Munmap(p)
					rt.DeleteFile(p, "b")
				case i < 3000 && x>>60 < 3:
					mb.Load(p, (x>>20)%(1*mib/pageSize)*pageSize, buf[:])
				case x>>60 < 7:
					// Through the second mapping a resident page takes a minor
					// fault, which records it again: the old entry dies.
					ma2.Load(p, (x>>20)%(8*mib/pageSize)*pageSize, buf[:])
				default:
					ma.Load(p, (x>>20)%(8*mib/pageSize)*pageSize, buf[:])
				}
				op()
			}
			victims = append(victims, fmt.Sprintf("now=%d minor=%d", p.Now(), rt.Stats.MinorFaults))
			if err := rt.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
		e.Run()
		return victims, sweeps
	}
	lazy, _ := run(false)
	eager, sweeps := run(true)
	if len(lazy) < 1000 || sweeps < 100 {
		t.Fatalf("%d victims, %d forced sweeps: the trace does not exercise what it is for", len(lazy), sweeps)
	}
	if !slices.Equal(lazy, eager) {
		for i := range lazy {
			if i >= len(eager) || lazy[i] != eager[i] {
				t.Fatalf("victim %d: %s without forced sweeps, %v with", i, lazy[i], eager[min(i, len(eager)-1)])
			}
		}
		t.Fatalf("%d victims without forced sweeps, %d with", len(lazy), len(eager))
	}
}

// TestInvariantsAuditThePageRecord plants what the page record and its
// lifecycle state rule out — a state its event or the dirty counts disagree
// with, a misfiled page, drifted counters — and expects each audit to name
// it. The reverse map's audit is TestInvariantsAuditTheReverseMap's.
func TestInvariantsAuditThePageRecord(t *testing.T) {
	e, _, boot := daxWorld(4*mib, 2)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		f := rt.CreateFile(p, "data", 1*mib)
		m := rt.Mmap(p, f, 1*mib)
		var buf [8]byte
		m.Load(p, 0, buf[:])
		pg := f.pages.Get(0)
		expect := func(audit string, err error, want string) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s = %v, want an error containing %q", audit, err, want)
			}
		}

		pg.state = detutil.PgClaimed // claimed, but nobody armed the event
		expect("CheckCrashInvariants", rt.CheckCrashInvariants(), "page (data,0): claimed page: indexed, busy=false")
		seq := pg.lruSeq
		pg.lruSeq = 0 // a victim's entry went when it was selected
		pg.ev.Arm()
		if err := rt.CheckCrashInvariants(); err != nil {
			t.Errorf("a claimed page that is busy: %v", err)
		}
		pg.ev.Fire(p.Now())
		pg.lruSeq = seq
		pg.state = detutil.PgDirty // dirty, but no core counts it
		expect("CheckInvariants", rt.CheckInvariants(), "core 0 counts 0 dirty pages, 1 cached pages say so")
		expect("CheckCrashInvariants", rt.CheckCrashInvariants(), "core 0 counts 0 dirty pages, 1 cached pages say so")
		pg.state = detutil.PgClean

		pg.idx = 7 // filed at 0
		expect("CheckInvariants", rt.CheckInvariants(), "page (data,7) filed at (data,0)")
		expect("CheckCrashInvariants", rt.CheckCrashInvariants(), "page (data,7) filed at (data,0)")
		pg.idx = 0

		m.Store(p, 0, buf[:])
		rt.dirtyOn[1]++ // a dirty page nobody dirtied
		expect("CheckInvariants", rt.CheckInvariants(), "core 1 counts 1 dirty pages, 0 cached pages say so")
		expect("CheckCrashInvariants", rt.CheckCrashInvariants(), "core 1 counts 1 dirty pages")
		rt.dirtyOn[1]--
		pg.dirtyCore = 2 // of two cores
		expect("CheckInvariants", rt.CheckInvariants(), "dirty page (data,0) names core 2 of 2")
		expect("CheckCrashInvariants", rt.CheckCrashInvariants(), "names core 2 of 2")
		pg.dirtyCore = 0

		rt.lru.dead++ // a death nobody died
		expect("CheckInvariants", rt.CheckInvariants(), "LRU counters")
		rt.lru.dead--
		if err := rt.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
	e.Run()
}

// TestInvariantsAuditTheReverseMap plants what the reverse map rests on and
// the audit rules out — a PTE left on a page that went, a PTE on another
// page's frame, a writable PTE on a clean page, a region on its file's list
// the address space does not hold, one the address space holds that no list
// does — and expects CheckInvariants to name each.
func TestInvariantsAuditTheReverseMap(t *testing.T) {
	e, _, boot := daxWorld(4*mib, 2)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		f := rt.CreateFile(p, "data", 1*mib)
		m := rt.Mmap(p, f, 1*mib)
		var buf [8]byte
		m.Load(p, 0, buf[:])
		m.Load(p, pageSize, buf[:])
		expect := func(want string) {
			t.Helper()
			if err := rt.CheckInvariants(); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("CheckInvariants = %v, want an error containing %q", err, want)
			}
		}
		start := m.r.Start
		zero, one := f.pages.Get(0), f.pages.Get(1)

		rt.PT.Map(start+2*pageSize, zero.frame.ID, pagetable.FlagUser, pagetable.Size4K)
		expect(fmt.Sprintf("va %#x maps (data,2), which is not cached", start+2*pageSize))
		rt.PT.Unmap(start + 2*pageSize)

		rt.PT.Map(start, one.frame.ID, pagetable.FlagUser, pagetable.Size4K)
		expect(fmt.Sprintf("page (data,0): pte frame %d at %#x != %d", one.frame.ID, start, zero.frame.ID))
		rt.PT.Map(start, zero.frame.ID, pagetable.FlagUser|pagetable.FlagWritable, pagetable.Size4K)
		expect("page (data,0): writable PTE on clean page")
		rt.PT.Protect(start, pagetable.FlagUser)

		stray := &Region{Start: 1 << 40, End: 1<<40 + pageSize, File: f}
		f.regions = append(f.regions, stray)
		expect("file data lists region [0x10000000000,0x10000001000) of data, mapped false")
		f.regions = f.regions[:1]
		rt.vs.Insert(stray)
		expect("2 regions mapped, 1 on their files' lists")
		rt.vs.Remove(stray)

		if err := rt.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if got := rt.appendVAs(nil, zero); len(got) != 1 || got[0] != start {
			t.Fatalf("page 0 mapped at %#x, want [%#x]", got, start)
		}
	})
	e.Run()
}

// evictWritebackCycle runs the fault → evict → write-back cycle at steady
// state: cache full, a file eight times its size, two loads to one store over
// uniformly random pages, each store an 8-byte stamp at the page's start.
func evictWritebackCycle(t *testing.T, stamp uint64) (c cachetest.Cycle) {
	const cachePages, filePages = 1024, 8192
	e, os, boot := daxWorld(cachePages*pageSize, 2)
	var pool *mem.Allocator
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		pool = rt.framePool
		f := rt.CreateFile(p, "data", filePages*pageSize)
		m := rt.Mmap(p, f, filePages*pageSize)
		rng := rand.New(rand.NewSource(1))
		var word, buf [8]byte
		binary.LittleEndian.PutUint64(word[:], stamp)
		ops := func(n int) {
			for i := 0; i < n; i++ {
				off := uint64(rng.Intn(filePages)) * pageSize
				if i%3 == 2 {
					m.Store(p, off, word[:])
				} else {
					m.Load(p, off, buf[:])
				}
			}
		}
		// Warm up until the cache has turned over several times: every frame
		// holds data, every scratch slice and free list is at its peak. Most
		// of the file's blocks have been written back once by then, not all.
		ops(12 * cachePages)
		store := os.Disk().Content
		faults, written, blocks, lined := rt.Stats.MajorFaults, rt.Stats.WrittenBack, store.ResidentBlocks(), cachetest.PayloadLines(rt.framePool)
		c.Objects, c.Bytes = cachetest.Allocated(func() { ops(6 * cachePages) })
		c.Pages, c.Written, c.Blocks = rt.Stats.MajorFaults-faults, rt.Stats.WrittenBack-written, uint64(store.ResidentBlocks()-blocks)
		c.Lined = cachetest.PayloadLines(rt.framePool) - lined
		if c.Pages < 4*cachePages || c.Written < cachePages || rt.Stats.Evictions < 8*cachePages {
			t.Fatalf("not the cycle: %d faults, %d pages written back, %d evictions", c.Pages, c.Written, rt.Stats.Evictions)
		}
		if err := rt.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
	e.Run()
	c.Warm = cachetest.WarmPayloadPass(pool)
	return c
}

// TestEvictWritebackCycleAllocations is the budget of the fault → evict →
// write-back cycle at steady state (cachetest.CycleAllocations): N major
// faults cost N page records plus the pages the content pools carve, and
// nothing else: no run slice, no victim or dirty batch, no index leaf, no
// version list, and nothing at all for a page turning dirty or clean. What
// amortizes (an LRU queue's tail, the staged list) is allowed a thousandth of
// an allocation per fault.
func TestEvictWritebackCycleAllocations(t *testing.T) {
	cachetest.CycleAllocations(t, func(stamp uint64) cachetest.Cycle { return evictWritebackCycle(t, stamp) }, 1000)
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

// TestPageMoveMatrix holds move to the lifecycle table: every (from, to) pair
// either moves the page as the table says — index membership, the core's
// dirty count, the busy event — or panics naming the page and both states. A
// pinned page may not leave the cache, and a page may not be published over
// another.
func TestPageMoveMatrix(t *testing.T) {
	const n = uint64(detutil.PgGone) + 1
	e, _, boot := daxWorld(4*mib, 2)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		f := rt.CreateFile(p, "m", (n*n+1)*pageSize)
		legal := 0
		for from := detutil.PageState(0); uint64(from) < n; from++ {
			for to := detutil.PageState(0); uint64(to) < n; to++ {
				idx := uint64(from)*n + uint64(to)
				pg := &Page{file: f, idx: idx, frame: &mem.Frame{}, state: from, dirtyCore: 1}
				if from.Indexed() {
					f.pages.Insert(idx, pg)
				}
				if from.Counted() {
					rt.dirtyOn[1]++
				}
				if from.Busy() {
					pg.ev.Arm()
				}
				before := rt.dirtyOn[1]
				msg := panicOf(func() { rt.move(pg, to) })
				if !from.Legal(to) {
					if want := fmt.Sprintf("core: page (m,%d): %v → %v", idx, from, to); !strings.HasPrefix(msg, want) {
						t.Errorf("%v → %v: panic %q, want %q", from, to, msg, want)
					}
					continue
				}
				legal++
				counted := map[bool]int{true: 1}
				switch {
				case msg != "":
					t.Errorf("%v → %v, a listed edge, panicked: %s", from, to, msg)
				case pg.state != to || (f.pages.Get(idx) == pg) != to.Indexed():
					t.Errorf("%v → %v: state %v, indexed %v", from, to, pg.state, f.pages.Get(idx) == pg)
				case rt.dirtyOn[1]-before != counted[to.Counted()]-counted[from.Counted()]:
					t.Errorf("%v → %v: dirty count moved by %d", from, to, rt.dirtyOn[1]-before)
				case to.Busy() && !pg.busy():
					t.Errorf("%v → %v: event not armed", from, to)
				}
				pg.ev.Fire(p.Now())
			}
		}
		if legal < 30 {
			t.Fatalf("%d legal edges", legal)
		}
		pg := &Page{file: f, idx: n * n, state: detutil.PgClean, pins: 1}
		f.pages.Insert(pg.idx, pg)
		if msg, want := panicOf(func() { rt.move(pg, detutil.PgGone) }), "clean → gone with 1 pins"; !strings.Contains(msg, want) {
			t.Errorf("a pinned page leaving: panic %q, want %q", msg, want)
		}
		twin := &Page{file: f, idx: n * n}
		if msg, want := panicOf(func() { rt.move(twin, detutil.PgFilling) }), "new → filling over a clean page"; !strings.Contains(msg, want) {
			t.Errorf("a second page published at one index: panic %q, want %q", msg, want)
		}
	})
	e.Run()
}

// An evicting run keeps each LRU queue's array near the entries the queue
// holds: selection compacts the consumed prefix once it passes lruCompactMin
// and half the queue, so the slots a queue keeps do not grow with the number
// of evictions. One thread sweeps a file eight times the cache eight times:
// 16 K cold faults recorded on one queue, and as many selections off its head.
func TestLRUQueuesStayNearTheirEntries(t *testing.T) {
	e, _, boot := daxWorld(1*mib, 2)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		f := rt.CreateFile(p, "data", 8*mib)
		m := rt.Mmap(p, f, 8*mib)
		var buf [8]byte
		for range 8 {
			for off := uint64(0); off < 8*mib; off += pageSize {
				m.Load(p, off, buf[:])
			}
		}
		if ev := rt.Stats.Evictions; ev < 12000 {
			t.Fatalf("%d evictions, want most of the 16 K faults to evict", ev)
		}
		for i := range rt.lru.queues {
			q := &rt.lru.queues[i]
			// The 256 allows for the consumed prefix compaction leaves
			// (lruCompactMin). With a 4 K floor this queue kept 5,120 slots
			// for 256 entries.
			held := len(q.entries) - q.head
			if limit := 4 * (held + 256); cap(q.entries) > limit {
				t.Errorf("queue %d: %d slots for %d live and dead entries, want at most %d", i, cap(q.entries), held, limit)
			}
		}
	})
	e.Run()
}

// A faulter left waiting on a busy period nobody ends is a deadlock, and the
// engine's diagnostic names the page the way it always has — a fill
// aqio:<file>:<idx> (a unit aqhuge:), an eviction's claim evict — although
// the event holds no name: the waiter passes the page, which reads its state.
func TestStuckFillDeadlockNamesPage(t *testing.T) {
	for _, tc := range []struct {
		huge  bool
		path  []detutil.PageState
		owner string
	}{
		{false, []detutil.PageState{detutil.PgFilling}, "aqio:stuck:7"},
		{true, []detutil.PageState{detutil.PgFilling}, "aqhuge:stuck:0"},
		{true, []detutil.PageState{detutil.PgFilling, detutil.PgGone}, "aqhuge:stuck:0"}, // a promotion undone, not yet fired
		{false, []detutil.PageState{detutil.PgClean, detutil.PgClaimed}, "evict"},
		{false, []detutil.PageState{detutil.PgDirty, detutil.PgClaimedDirty}, "evict"},
	} {
		e, _, boot := daxWorld(4*mib, 2)
		var pg *Page
		e.Spawn(0, "owner", func(p *engine.Proc) {
			rt := boot(p)
			f := rt.CreateFile(p, "stuck", 4*mib)
			f.pages.Reserve(hugePages)
			pg = &Page{file: f, idx: 7, huge: tc.huge}
			if tc.huge {
				pg.idx = 0
			}
			for _, s := range tc.path {
				rt.move(pg, s)
			}
		})
		e.Spawn(1, "faulter", func(p *engine.Proc) {
			p.AdvanceSystem(1 << 20) // after the owner has booted and published
			pg.ev.Wait(p, pg)
		})
		want := "faulter(on event:" + tc.owner + ")"
		if msg := panicOf(e.Run); !strings.Contains(msg, "engine: deadlock") || !strings.Contains(msg, want) {
			t.Fatalf("%v: Run panicked with %q, want a deadlock naming %s", tc.path, msg, want)
		}
	}
}

// The page record stays in its size class: a cold major fault is one
// allocation of it (cachetest.ColdMajorFaultIsOneAllocation), and a field more puts
// every fault in the next class.
func TestPageRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Page{}); got > 64 {
		t.Errorf("Page is %d bytes, want at most 64: past it every cold fault allocates from Go's 80-byte size class, not the 64-byte one (DESIGN.md §3 \"Page records\")", got)
	}
}
