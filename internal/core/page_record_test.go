package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"aquila/internal/detutil"
	"aquila/internal/sim/engine"
	"aquila/internal/sim/mem"
)

// TestColdMajorFaultIsOneAllocation pins DESIGN.md §3's summary sentence: a
// cold 4 KB major fault allocates the Page and nothing else — its busy event
// and its first reverse mapping are inside it, its frame is a record of the
// flat table — and the second mapping of a resident page is the one that
// moves the reverse map to the heap.
func TestColdMajorFaultIsOneAllocation(t *testing.T) {
	const batch = 64
	e, _, boot := daxWorld(64*mib, 2)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		f := rt.CreateFile(p, "data", 48*mib)
		m1, m2 := rt.Mmap(p, f, 48*mib), rt.Mmap(p, f, 48*mib)
		var buf [8]byte
		// A run is a batch of faults so that growth that amortizes — the page
		// hash, an LRU queue, a page-table node per 512 pages — shows as a
		// fraction testing.AllocsPerRun rounds away while a second object per
		// fault would not: 64 faults must cost 64 allocations, not 128.
		var next1, next2 uint64
		cold := func() {
			for i := 0; i < batch; i++ {
				m1.Load(p, next1*pageSize, buf[:])
				next1++
			}
		}
		second := func() {
			for i := 0; i < batch; i++ {
				m2.Load(p, next2*pageSize, buf[:])
				next2++
			}
		}
		cold() // the fault scratch buffer, the CPU's TLB
		major := rt.Stats.MajorFaults
		if got := testing.AllocsPerRun(100, cold); got < batch || got > batch+2 {
			t.Errorf("%d cold major faults made %v allocations, want one each", batch, got)
		}
		if got := rt.Stats.MajorFaults - major; got != 101*batch {
			t.Fatalf("the measured loads took %d major faults, want %d", got, 101*batch)
		}
		if rt.Stats.Evictions != 0 {
			t.Fatalf("%d evictions: the faults were not all cold", rt.Stats.Evictions)
		}
		pg := f.pages.Get(0)
		if len(pg.vas.S) != 1 || !pg.vas.Inline() {
			t.Fatalf("a page mapped once has vas %v, inline=%v", pg.vas.S, pg.vas.Inline())
		}
		second()
		minor := rt.Stats.MinorFaults
		if got := testing.AllocsPerRun(50, second); got < batch || got > batch+2 {
			t.Errorf("%d second mappings of resident pages made %v allocations, want one each", batch, got)
		}
		if got := rt.Stats.MinorFaults - minor; got != 51*batch {
			t.Fatalf("the second mapping's loads took %d minor faults, want %d", got, 51*batch)
		}
		if len(pg.vas.S) != 2 || pg.vas.Inline() {
			t.Fatalf("a page mapped twice has vas %v, inline=%v", pg.vas.S, pg.vas.Inline())
		}
		// Down to one mapping, the survivor moves back into the page.
		m1.Munmap(p)
		if len(pg.vas.S) != 1 || !pg.vas.Inline() || pg.vas.S[0] != m2.r.Start {
			t.Fatalf("after the first mapping went: vas %#x, inline=%v, want [%#x] inline", pg.vas.S, pg.vas.Inline(), m2.r.Start)
		}
		if err := rt.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
	e.Run()
}

// lruCensus recounts what lruApprox keeps counters of.
func lruCensus(l *lruApprox) (queued, dead, nonResident int) {
	for i := range l.queues {
		q := &l.queues[i]
		for _, e := range q.entries[q.head:] {
			queued++
			if e.pg.lruSeq != e.seq {
				dead++
			}
			if !e.pg.state.Indexed() {
				nonResident++
			}
		}
	}
	return
}

// TestDeletedFilesLeaveTheLRUQueues: with nothing evicting, nothing walks the
// queues, and the entries of deleted files used to pin every one of their
// pages for the life of the runtime. Now the dead are swept once they
// outnumber the live.
func TestDeletedFilesLeaveTheLRUQueues(t *testing.T) {
	const rounds, pages = 12, 3000
	e, _, boot := daxWorld(64*mib, 2)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		var buf [8]byte
		swept := false
		for r := 0; r < rounds; r++ {
			name := fmt.Sprintf("round%d", r)
			f := rt.CreateFile(p, name, pages*pageSize)
			m := rt.Mmap(p, f, pages*pageSize)
			for i := uint64(0); i < pages; i++ {
				m.Load(p, i*pageSize, buf[:])
			}
			m.Munmap(p)
			before := rt.lru.queued
			rt.DeleteFile(p, name)
			swept = swept || rt.lru.queued < before
			queued, dead, nonResident := lruCensus(rt.lru)
			if queued != rt.lru.queued || dead != rt.lru.dead {
				t.Fatalf("round %d: counters say %d queued, %d dead; the queues hold %d and %d", r, rt.lru.queued, rt.lru.dead, queued, dead)
			}
			if nonResident != dead {
				t.Fatalf("round %d: %d entries of non-resident pages, %d dead: nothing else kills an entry here", r, nonResident, dead)
			}
			if live := queued - dead; dead > max(lruSweepMinDead, live) {
				t.Fatalf("round %d: %d dead entries with %d live, over the sweep threshold", r, dead, live)
			}
		}
		if rt.Stats.Evictions != 0 {
			t.Fatalf("%d evictions: something other than the sweep walked the queues", rt.Stats.Evictions)
		}
		if !swept {
			t.Fatalf("%d rounds of %d pages never triggered a sweep", rounds, pages)
		}
		if err := rt.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
	e.Run()
}

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
				if _, dead, _ := lruCensus(rt.lru); sweepEveryOp && dead > 0 {
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
// lifecycle state rule out — a mapping kept off the record, a state its event
// or the dirty counts disagree with, a misfiled page, drifted counters — and
// expects each audit to name it.
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

		inline := pg.vas.S
		pg.vas.S = []uint64{inline[0]} // one mapping, kept on the heap
		expect("CheckInvariants", rt.CheckInvariants(), "outside the page's own slot")
		expect("CheckCrashInvariants", rt.CheckCrashInvariants(), "outside the page's own slot")
		pg.vas.S = inline

		pg.state = detutil.PgClaimed // claimed, but nobody armed the event
		expect("CheckCrashInvariants", rt.CheckCrashInvariants(), "page (data,0): claimed page: indexed, busy=false")
		seq := pg.lruSeq
		pg.lruSeq = 0 // a victim's entry went when it was selected
		pg.ev.Arm(evictClaim)
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

// allocated runs f and returns how many heap objects and bytes it allocated.
func allocated(f func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// cycleCost is what the measured stretch of evictWritebackCycle did and
// allocated.
type cycleCost struct {
	faults, written, blocks uint64 // major faults, pages written back, device blocks written for the first time
	lined                   uint64 // frames whose payload took its first buffer
	objects, bytes          uint64
	warm                    float64 // allocations of warmPayloadPass over the same frames
}

// payloadLines counts the frames of a whose payload holds a buffer.
func payloadLines(a *mem.Allocator) (n uint64) {
	for id := range a.Capacity() {
		if f := a.Frame(id); f != nil && cap(f.Held()) > 0 {
			n++
		}
	}
	return n
}

// linePages bounds the pages a pool carves for n new 64-byte lines, 64 to a
// page: at most one per 64 lines begun, and one fewer when the remainder the
// pool carried into the window covers the lines that spill over — or a
// hundredth fewer lines, when a few take a line a rewritten block gave back.
func linePages(n uint64) (lo, hi uint64) {
	const perPage = mem.PageSize / mem.LineSize
	return (n - n/100) / perPage, (n + perPage - 1) / perPage
}

// warmPayloadPass is the cycle's payload work done over every frame of a that
// holds a payload: a fill from a dense block and one from a block holding one
// stamped line, the stamp stored and read, a hole-fill. Once each frame has
// been through it, it allocates nothing: a frame keeps its buffer, and one it
// outgrows or leaves goes to its allocator's class lists for the next frame.
func warmPayloadPass(a *mem.Allocator) float64 {
	dense, line := make([]byte, pageSize), make([]byte, mem.LineSize)
	for i := range dense {
		dense[i] = byte(i) | 1
	}
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], 0x5A5A_0000_0000_0001)
	copy(line, word[:])
	return testing.AllocsPerRun(3, func() {
		for id := range a.Capacity() {
			if f := a.Frame(id); f != nil && f.HasData() {
				f.Load(dense)
				f.Load(line)
				f.WriteAt(8, word[:])
				f.ReadAt(word[:], 8)
				f.Reset()
			}
		}
	})
}

// evictWritebackCycle runs the fault → evict → write-back cycle at steady
// state: cache full, a file eight times its size, two loads to one store over
// uniformly random pages, each store an 8-byte stamp at the page's start.
func evictWritebackCycle(t *testing.T, stamp uint64) (c cycleCost) {
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
		faults, written, blocks, lined := rt.Stats.MajorFaults, rt.Stats.WrittenBack, store.ResidentBlocks(), payloadLines(rt.framePool)
		c.objects, c.bytes = allocated(func() { ops(6 * cachePages) })
		c.faults, c.written, c.blocks = rt.Stats.MajorFaults-faults, rt.Stats.WrittenBack-written, uint64(store.ResidentBlocks()-blocks)
		c.lined = payloadLines(rt.framePool) - lined
		if c.faults < 4*cachePages || c.written < cachePages || rt.Stats.Evictions < 8*cachePages {
			t.Fatalf("not the cycle: %d faults, %d pages written back, %d evictions", c.faults, c.written, rt.Stats.Evictions)
		}
		if err := rt.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
	e.Run()
	c.warm = warmPayloadPass(pool)
	return c
}

// TestEvictWritebackCycleAllocations is the budget of the fault → evict →
// write-back cycle at steady state. N major faults cost N page records plus
// the pages the content pools carve in the window, and nothing else: no run
// slice, no victim or dirty batch, no index leaf, no version list, and nothing
// at all for a page turning dirty or clean. What amortizes (an LRU queue's
// tail, the staged list) is allowed a thousandth of an allocation per fault.
// The same cycle storing zeros holds the payloads' bytes to account: a
// first-written block that carries a stamp is one 64-byte line, and so is a
// frame whose payload takes its first buffer in the window, carved 64 to a
// 4 KB page, so the stamp costs a page per 64 of them (linePages: to within
// the remainder each pool carries in); a block written back all zeros, and a
// frame that only ever held zeros, cost nothing. A warm pass of payload work
// over the same frames allocates nothing at all.
func TestEvictWritebackCycleAllocations(t *testing.T) {
	// Each count is the least of three runs: now and then the runtime's own
	// work allocates inside the window.
	least := func(stamp uint64) cycleCost {
		c := evictWritebackCycle(t, stamp)
		for range 2 {
			d := evictWritebackCycle(t, stamp)
			c.objects, c.bytes = min(c.objects, d.objects), min(c.bytes, d.bytes)
		}
		return c
	}
	c, zero := least(0x5A5A_0000_0000_0001), least(0)
	if c.faults != zero.faults || c.written != zero.written || c.blocks != zero.blocks {
		t.Fatalf("the stamp moved the cycle: %+v, all zeros %+v", c, zero)
	}
	blo, bhi := linePages(c.blocks)
	llo, lhi := linePages(c.lined)
	lo, hi := blo+llo, bhi+lhi
	if c.objects < c.faults+lo || c.objects > c.faults+hi+c.faults/1000 {
		t.Errorf("%d faults, %d first-written device blocks and %d frames given their first line made %d allocations, want %d to %d",
			c.faults, c.blocks, c.lined, c.objects, c.faults+lo, c.faults+hi+c.faults/1000)
	}
	if z := zero; z.objects < z.faults || z.objects > z.faults+z.faults/1000 {
		t.Errorf("all zeros: %d faults made %d allocations, want %d to %d: the %d first-written blocks or %d lined frames cost something",
			z.faults, z.objects, z.faults, z.faults+z.faults/1000, z.blocks, z.lined)
	}
	if zero.lined != 0 {
		t.Errorf("all zeros: %d frames took a payload buffer, want none", zero.lined)
	}
	if d := int64(c.bytes - zero.bytes); d < int64(lo*mem.PageSize) || d > int64(hi*mem.PageSize) {
		t.Errorf("the stamp cost %d bytes for %d first-written blocks and %d frames given their first line, want a 4 KB page per 64 of them: %d to %d",
			d, c.blocks, c.lined, lo*mem.PageSize, hi*mem.PageSize)
	}
	if c.warm != 0 || zero.warm != 0 {
		t.Errorf("a warm pass of payload work over the cycle's frames made %v allocations (all zeros: %v), want 0", c.warm, zero.warm)
	}
}
