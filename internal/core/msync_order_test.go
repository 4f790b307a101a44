package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"aquila/internal/iface"
	"aquila/internal/sim/engine"
)

// dirtied is one entry of the reference dirty set: the paper's structure said
// outright — per core, sorted by device order (file, then index).
type dirtied struct {
	core  int
	file  uint64
	idx   uint64
	pages uint64 // 512 for a unit
}

// wrote is one write command as the engine hook saw it.
type wrote struct {
	by, file string
	idx      uint64
	frames   int
}

// refDirty is the map-plus-sort reference of the dirty set: what the per-core
// red-black trees held, kept the plain way.
type refDirty map[dirtied]bool

// msync takes the entries of file overlapping pages [lo, hi) out of the set,
// a core at a time in (file, index) order, and returns the runs the write-back
// makes of them: sorted by index, neighbours merged up to maxRun, a unit alone.
func (r refDirty) msync(by string, f *fileState, lo, hi uint64, maxRun int) []wrote {
	var taken []dirtied
	for d := range r {
		if d.file == f.id && d.idx+d.pages > lo && d.idx < hi {
			taken = append(taken, d)
		}
	}
	slices.SortFunc(taken, func(a, b dirtied) int { return cmp.Or(cmp.Compare(a.core, b.core), cmp.Compare(a.idx, b.idx)) })
	for _, d := range taken {
		delete(r, d)
	}
	slices.SortStableFunc(taken, func(a, b dirtied) int { return cmp.Compare(a.idx, b.idx) })
	var runs []wrote
	for i, d := range taken {
		if last := len(runs) - 1; i > 0 && d.pages == 1 && taken[i-1].pages == 1 && d.idx == taken[i-1].idx+1 && runs[last].frames < maxRun {
			runs[last].frames++
			continue
		}
		runs = append(runs, wrote{by, f.name, d.idx, int(d.pages)})
	}
	return runs
}

// TestMsyncCollectsPerCoreInIndexOrder holds msync's collection — a range walk
// of the file's index per core — to the reference: seeded stores from three
// cores to two files and a 2 MB unit, then full, ranged, leaf-straddling and
// partial-last-leaf msyncs; every msync must issue exactly the reference's
// write commands in the reference's order, charge one tree operation per page
// taken, and leave exactly the reference's remainder dirty. Then the turn
// order: while an msync waits in core 1's turn, a page dirtied on core 2 is
// written by this msync, and pages dirtied on cores 0 and 1 are not.
func TestMsyncCollectsPerCoreInIndexOrder(t *testing.T) {
	const aPages, bPages = 2*hugePages + 37, 600
	e, _, boot := hugeHintWorld(64*mib, 5)
	var rt *Runtime
	var ma, mb, mh *AqMapping
	var log []wrote
	ref := refDirty{}
	e.Spawn(3, "setup", func(p *engine.Proc) {
		rt = boot(p)
		ma = rt.Mmap(p, rt.CreateFile(p, "a", aPages*pageSize), aPages*pageSize)
		mb = rt.Mmap(p, rt.CreateFile(p, "b", bPages*pageSize), bPages*pageSize)
		mh = rt.Mmap(p, rt.CreateFile(p, "h", 2*hugeBytes), 2*hugeBytes)
		mh.Advise(p, iface.AdviceHuge)
		rt.Engine = &hookedEngine{IOEngine: rt.Engine, write: func(p *engine.Proc, w extent, _ bool, charge func() uint64) uint64 {
			log = append(log, wrote{p.Name(), w.f.name, w.idx, w.pages})
			return charge()
		}}
	})
	e.Run()

	// Each core stores to the pages of its own residue class, so which core
	// dirtied a page does not hang on how the three interleave.
	var buf [8]byte
	for core := 0; core < 3; core++ {
		e.Spawn(core, "store", func(p *engine.Proc) {
			rng := rand.New(rand.NewSource(int64(7 + core)))
			for i := 0; i < 400; i++ {
				m, pages := ma, aPages
				if rng.Intn(3) == 0 {
					m, pages = mb, bPages
				}
				idx := uint64(rng.Intn(pages/3))*3 + uint64(core)
				m.Store(p, idx*pageSize+uint64(rng.Intn(pageSize-8)), buf[:])
				ref[dirtied{core, m.r.File.id, idx, 1}] = true
			}
			if core == 1 {
				mh.Store(p, (hugePages+5)*pageSize, buf[:]) // the extent promotes and the unit is dirty
				ref[dirtied{core, mh.r.File.id, hugePages, hugePages}] = true
			}
		})
	}
	e.Run()
	audit := func(when string) {
		t.Helper()
		if rt.DirtyPages() != len(ref) {
			t.Fatalf("%s: %d dirty pages, the reference has %d", when, rt.DirtyPages(), len(ref))
		}
		for d := range ref {
			var pg *Page
			for _, f := range rt.files {
				if f.id == d.file {
					pg = f.pages.Get(d.idx)
				}
			}
			if pg == nil || !pg.state.Dirty() || int(pg.dirtyCore) != d.core || uint64(pg.pages()) != d.pages {
				t.Fatalf("%s: reference entry %+v is cached as %+v", when, d, pg)
			}
		}
		if err := rt.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	audit("after the stores")
	if mh.r.File.pages.Get(hugePages) == nil || !mh.r.File.pages.Get(hugePages).huge || len(ref) < 600 {
		t.Fatalf("not the set the test is for: %d entries, unit %+v", len(ref), mh.r.File.pages.Get(hugePages))
	}

	for _, c := range []struct {
		name        string
		m           *AqMapping
		off, length uint64
	}{
		{"ranged, unaligned", ma, 100*pageSize + 17, 50 * pageSize},
		{"across a leaf boundary", ma, (hugePages - 12) * pageSize, 30 * pageSize},
		{"the partial last leaf", ma, (2*hugePages + 10) * pageSize, 27 * pageSize},
		{"an empty range", ma, 100 * pageSize, 50 * pageSize},
		{"a unit based below lo", mh, (hugePages + 100) * pageSize, pageSize},
		{"full", mb, 0, bPages * pageSize},
		{"full, the rest", ma, 0, ^uint64(0)},
	} {
		e.Spawn(3, "msync", func(p *engine.Proc) {
			log = log[:0]
			tracked := rt.Break.Get("dirty-track")
			lo, hi := c.off/pageSize, uint64(^uint64(0))
			if c.length < ^uint64(0)-c.off {
				hi = (c.off + c.length + pageSize - 1) / pageSize
			}
			before := len(ref)
			want := ref.msync("msync", c.m.r.File, lo, hi, writebackMaxRun)
			if err := c.m.MsyncRange(p, c.off, c.length); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !slices.Equal(log, want) {
				t.Fatalf("%s: pages [%d, %d) were written as\n%v\nthe reference says\n%v", c.name, lo, hi, log, want)
			}
			if got, want := rt.Break.Get("dirty-track")-tracked, costDirtyTreeOp*uint64(before-len(ref)); got != want {
				t.Errorf("%s: %d cycles of tree operations for %d pages taken, want %d", c.name, got, before-len(ref), want)
			}
		})
		e.Run()
		audit(c.name)
	}
	if len(ref) != 0 {
		t.Fatalf("%d reference entries no msync asked for", len(ref))
	}

	// The turns. Y is dirty on core 1 and an eviction holds it busy, so the
	// msync parks in core 1's turn; the eviction lets go only once three
	// stores — one from each of cores 0, 1, 2 — have landed behind msync's back.
	const y, q, r, w = 7, 30, 40, 31
	stored := 0
	e.Spawn(3, "turns", func(p *engine.Proc) {
		f := mb.r.File
		eng := p.Engine()
		eng.Spawn(1, "store-y", func(p *engine.Proc) {
			mb.Store(p, y*pageSize, buf[:])
			pgY := f.pages.Get(y)
			claimAsVictim(rt, pgY, func(p *engine.Proc) {
				for stored < 3 {
					p.WaitUntil(p.Now()+100, engine.KindIOWait)
				}
			})
			log = log[:0]
			eng.Spawn(4, "evict", func(p *engine.Proc) {
				if err := rt.evict(p); err != nil {
					t.Error(err)
				}
			})
			eng.Spawn(3, "msync", func(p *engine.Proc) {
				if err := mb.Msync(p); err != nil {
					t.Error(err)
				}
			})
			for core, idx := range []uint64{q, r, w} {
				eng.Spawn(core, "store", func(p *engine.Proc) {
					p.AdvanceUser(3_000) // msync is parked on Y by now
					if !pgY.busy() || !pgY.state.Dirty() {
						t.Errorf("core %d stores with Y busy=%v %v: msync is not waiting on it", core, pgY.busy(), pgY.state)
					}
					mb.Store(p, idx*pageSize, buf[:])
					stored++
				})
			}
		})
	})
	e.Run()
	f := mb.r.File
	if want := []wrote{{"evict", "b", y, 1}, {"msync", "b", w, 1}}; !slices.Equal(log, want) {
		t.Fatalf("with three pages dirtied during the wait the writes were %v, want %v", log, want)
	}
	for idx, dirty := range map[uint64]bool{q: true, r: true, w: false} {
		if pg := f.pages.Get(idx); pg == nil || pg.state.Dirty() != dirty {
			t.Errorf("page %d after the msync: %+v, want dirty=%v", idx, pg, dirty)
		}
	}
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMsyncRange64Of16k is a ranged msync where most of the dirty set is
// somewhere else: 16 K pages cached, every fourth one dirty, the dirty ones
// dealt round-robin to four cores, and a 64-page msync (16 dirty pages, four a
// core) walking through the file. Only the msync is timed; what it cleaned is
// dirtied again, each page from its own core, before the next.
func BenchmarkMsyncRange64Of16k(b *testing.B) {
	const pages, span = 16384, 64
	e, _, boot := daxWorld(128*mib, 4)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		m := rt.Mmap(p, rt.CreateFile(p, "data", pages*pageSize), pages*pageSize)
		var buf [8]byte
		dirty := func(lo, hi uint64) {
			wg := engine.NewWaitGroup(p.Engine(), "dirty")
			wg.Add(4)
			for core := 0; core < 4; core++ {
				p.Engine().Spawn(core, "store", func(p *engine.Proc) {
					for idx := lo + uint64(4*core); idx < hi; idx += 16 {
						m.Store(p, idx*pageSize, buf[:])
					}
					wg.Done(p)
				})
			}
			wg.Wait(p)
		}
		for idx := uint64(0); idx < pages; idx++ {
			m.Load(p, idx*pageSize, buf[:])
		}
		dirty(0, pages)
		if rt.DirtyPages() != pages/4 || rt.ResidentPages() != pages {
			b.Fatalf("%d dirty of %d cached pages, want %d of %d", rt.DirtyPages(), rt.ResidentPages(), pages/4, pages)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := uint64(i) * span % pages
			if err := m.MsyncRange(p, lo*pageSize, span*pageSize); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			dirty(lo, lo+span)
			b.StartTimer()
		}
		if rt.DirtyPages() != pages/4 {
			b.Fatalf("%d dirty pages at the end, want %d", rt.DirtyPages(), pages/4)
		}
	})
	e.Run()
}
