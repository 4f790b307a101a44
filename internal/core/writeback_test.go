package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"aquila/internal/detutil"
	"aquila/internal/sim/device"
	"aquila/internal/sim/engine"
	"aquila/internal/sim/mem"
)

// recEngine is an I/O engine that moves no content and records every write it
// is asked for, so a test can read writeBack's run formation back. A submitted
// run costs recSubmitCost cycles of the caller's time and completes
// recAsyncLatency cycles later; a synchronous run blocks for recSyncLatency.
// Submissions of runs starting at a page in reject are refused.
type recEngine struct {
	log    []string
	reject map[uint64]bool
	// submits are the cycles at which runs were accepted, dones their
	// completion cycles.
	submits, dones []uint64
}

const (
	recSubmitCost   = 100
	recAsyncLatency = 50_000
	recSyncLatency  = 7_000
)

func (e *recEngine) Name() string                                               { return "rec" }
func (e *recEngine) Create(*engine.Proc, string, uint64) any                    { return nil }
func (e *recEngine) Open(*engine.Proc, string) (any, uint64)                    { return nil, 0 }
func (e *recEngine) Delete(*engine.Proc, string)                                {}
func (e *recEngine) DirectRead(*engine.Proc, *fileState, uint64, []byte) error  { return nil }
func (e *recEngine) DirectWrite(*engine.Proc, *fileState, uint64, []byte) error { return nil }
func (e *recEngine) ReadRun(*engine.Proc, *fileState, uint64, []*mem.Frame) error {
	return nil
}

func (e *recEngine) WriteRun(p *engine.Proc, f *fileState, idx uint64, frames []*mem.Frame) error {
	e.log = append(e.log, fmt.Sprintf("sync %s:%d+%d", f.name, idx, len(frames)))
	p.WaitUntil(p.Now()+recSyncLatency, engine.KindIOWait)
	return nil
}

func (e *recEngine) SubmitWriteRun(p *engine.Proc, f *fileState, idx uint64, frames []*mem.Frame) (uint64, error) {
	p.AdvanceSystem(recSubmitCost)
	if e.reject[idx] {
		e.log = append(e.log, fmt.Sprintf("reject %s:%d+%d", f.name, idx, len(frames)))
		return 0, &device.IOError{Kind: device.FaultTransientWrite, Dev: "rec"}
	}
	e.log = append(e.log, fmt.Sprintf("submit %s:%d+%d", f.name, idx, len(frames)))
	e.submits = append(e.submits, p.Now())
	e.dones = append(e.dones, p.Now()+recAsyncLatency)
	return p.Now() + recAsyncLatency, nil
}

// recWorld boots a runtime over a recEngine.
func recWorld() (*engine.Engine, *recEngine, func(p *engine.Proc) *Runtime) {
	e, os, _ := daxWorld(4*mib, 2)
	eng := &recEngine{reject: map[uint64]bool{}}
	return e, eng, func(p *engine.Proc) *Runtime {
		return NewRuntime(p, os, eng, Config{CacheBytes: 4 * mib})
	}
}

// testPage fabricates a detached cache page (a 2 MB unit when huge): enough
// for writeBack, which looks only at identity, frames and mappings.
func testPage(f *fileState, idx uint64, huge bool) *Page {
	pg := &Page{file: f, idx: idx, frame: &mem.Frame{}}
	if huge {
		pg.huge = true
		pg.frames = make([]*mem.Frame, hugePages)
		for i := range pg.frames {
			pg.frames[i] = &mem.Frame{}
		}
		pg.frame = pg.frames[0]
	}
	return pg
}

// Run formation is one piece of code for every caller: sorted into device
// order, capped at writebackMaxRun, broken at a file boundary and at an index
// gap, a 2 MB unit always alone — written synchronously or submitted, the
// runs are the same.
func TestWriteBackRunFormation(t *testing.T) {
	type pageAt struct {
		file int
		idx  uint64
		huge bool
	}
	var adjacent []pageAt
	for idx := uint64(0); idx < writebackMaxRun+2; idx++ {
		adjacent = append(adjacent, pageAt{0, idx, false})
	}
	cases := []struct {
		name  string
		pages []pageAt
		want  []string // "<file>:<idx>+<pages>"
	}{
		{"cap at WritebackMaxRun", adjacent,
			[]string{fmt.Sprintf("a:0+%d", writebackMaxRun), fmt.Sprintf("a:%d+2", writebackMaxRun)}},
		{"index gap",
			[]pageAt{{0, 0, false}, {0, 1, false}, {0, 3, false}},
			[]string{"a:0+2", "a:3+1"}},
		{"file boundary with adjacent indices",
			[]pageAt{{0, 6, false}, {0, 7, false}, {1, 8, false}, {1, 9, false}},
			[]string{"a:6+2", "b:8+2"}},
		{"sorted into device order first",
			[]pageAt{{1, 1, false}, {0, 5, false}, {1, 0, false}, {0, 4, false}},
			[]string{"a:4+2", "b:0+2"}},
		{"huge unit never merged, capped or split",
			[]pageAt{{0, 511, false}, {0, 512, true}, {0, 1024, false}, {0, 1025, false}},
			[]string{"a:511+1", "a:512+512", "a:1024+2"}},
	}
	for _, tc := range cases {
		for _, async := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/async=%v", tc.name, async), func(t *testing.T) {
				e, eng, boot := recWorld()
				e.Spawn(0, "t", func(p *engine.Proc) {
					rt := boot(p)
					files := []*fileState{rt.CreateFile(p, "a", 8*mib), rt.CreateFile(p, "b", 8*mib)}
					var pages []*Page
					total := 0
					for _, pa := range tc.pages {
						pg := testPage(files[pa.file], pa.idx, pa.huge)
						pages = append(pages, pg)
						total += pg.pages()
					}
					var aw AsyncWriter
					kind := "sync "
					if async {
						aw, kind = eng, "submit "
					}
					if err := rt.writeBack(p, pages, "aq.writeback", aw, true); err != nil {
						t.Fatalf("writeBack = %v", err)
					}
					var want []string
					for _, w := range tc.want {
						want = append(want, kind+w)
					}
					if !reflect.DeepEqual(eng.log, want) {
						t.Errorf("runs = %q\nwant   %q", eng.log, want)
					}
					if rt.Stats.WrittenBack != uint64(total) {
						t.Errorf("WrittenBack = %d, want %d", rt.Stats.WrittenBack, total)
					}
				})
				e.Run()
			})
		}
	}
}

// Submitted runs overlap and are drained with one wait for the deepest
// completion; a run whose submission is refused is written synchronously
// inline and the runs after it go back to overlapping. Without drain the call
// returns at submission (UnsafeMsyncAtSubmit's window). The pages sit at every
// other index, so each is a run of its own.
func TestWriteBackOverlapRejectAndDrain(t *testing.T) {
	for _, drain := range []bool{true, false} {
		t.Run(fmt.Sprintf("drain=%v", drain), func(t *testing.T) {
			e, eng, boot := recWorld()
			eng.reject[4] = true
			e.Spawn(0, "t", func(p *engine.Proc) {
				rt := boot(p)
				f := rt.CreateFile(p, "a", 1*mib)
				var pages []*Page
				for idx := uint64(0); idx < 10; idx += 2 {
					pages = append(pages, testPage(f, idx, false))
				}
				t0, w0 := p.Now(), p.Accounted(engine.KindIOWait)
				if err := rt.writeBack(p, pages, "aq.bg_writeback", eng, drain); err != nil {
					t.Fatalf("writeBack = %v (a refused submission that then writes is not a failure)", err)
				}
				want := []string{"submit a:0+1", "submit a:2+1", "reject a:4+1", "sync a:4+1", "submit a:6+1", "submit a:8+1"}
				if !reflect.DeepEqual(eng.log, want) {
					t.Fatalf("calls = %q\nwant    %q", eng.log, want)
				}
				// Everything was submitted before anything completed.
				if last, first := eng.submits[len(eng.submits)-1], eng.dones[0]; last >= first {
					t.Errorf("last submission at %d, first completion at %d: runs did not overlap", last, first)
				}
				deepest := eng.dones[len(eng.dones)-1]
				submitted := t0 + 5*recSubmitCost + recSyncLatency
				waited := p.Accounted(engine.KindIOWait) - w0 - recSyncLatency
				if drain {
					if p.Now() != deepest || waited != deepest-submitted {
						t.Errorf("drained to %d after waiting %d, want one wait of %d ending at %d",
							p.Now(), waited, deepest-submitted, deepest)
					}
				} else if p.Now() != submitted || waited != 0 {
					t.Errorf("undrained call returned at %d after waiting %d, want %d and 0", p.Now(), waited, submitted)
				}
				if rt.Stats.WrittenBack != 5 {
					t.Errorf("WrittenBack = %d, want 5", rt.Stats.WrittenBack)
				}
			})
			e.Run()
		})
	}
}

// A write-back failure is handled by the one loop whoever reclaims: inside a
// direct-reclaim round and inside a daemon batch the same pages are revived —
// the permanently failing one quarantined, the transiently failing one
// requeued dirty, both still cached with their frames — and Evictions counts
// only the pages whose frames were actually recycled.
func TestReclaimWritebackFailureRevivesSamePages(t *testing.T) {
	const filePages, permIdx, transIdx = 64, 5, 9
	run := func(t *testing.T, daemon bool) {
		e, pm, boot := faultDaxWorld(4*mib, 2, nil)
		e.Spawn(0, "t", func(p *engine.Proc) {
			rt := boot(p)
			f := rt.CreateFile(p, "f", filePages*pageSize)
			m := rt.Mmap(p, f, filePages*pageSize)
			mark := make([]byte, 8)
			for idx := uint64(0); idx < filePages; idx++ {
				pageMark(mark, idx)
				m.Store(p, idx*pageSize, mark)
			}
			pm.InjectFaults("pmem0", &device.FaultPlan{Rules: []device.FaultRule{
				{Kind: device.FaultPermanentWrite, Off: devOffOf(rt, f, permIdx*pageSize), Len: pageSize},
				{Kind: device.FaultTransientWrite, Off: devOffOf(rt, f, transIdx*pageSize), Len: pageSize, Every: 1},
			}})
			free0 := rt.FreePages()
			var recycled int
			if daemon {
				recycled = (&bgEvictor{rt: rt}).reclaimBatch(p)
			} else {
				if err := rt.evict(p); err != nil {
					t.Fatalf("evict = %v", err)
				}
				recycled = int(rt.Stats.DirectReclaimPages)
			}
			if recycled != filePages-2 || rt.Stats.Evictions != filePages-2 {
				t.Errorf("recycled %d, Evictions %d, want %d each (the two revived pages keep their frames)",
					recycled, rt.Stats.Evictions, filePages-2)
			}
			if got := rt.FreePages() - free0; got != filePages-2 {
				t.Errorf("freelist grew by %d, want %d", got, filePages-2)
			}
			if rt.ResidentPages() != 2 {
				t.Errorf("resident = %d, want the 2 revived pages", rt.ResidentPages())
			}
			perm, trans := rt.lookupPage(f, permIdx), rt.lookupPage(f, transIdx)
			if perm == nil || perm.state != detutil.PgQuarantined || perm.frame == nil {
				t.Errorf("permanently failing page not quarantined in place: %+v", perm)
			}
			if trans == nil || trans.state != detutil.PgDirty || trans.frame == nil {
				t.Errorf("transiently failing page not requeued dirty in place: %+v", trans)
			}
			if rt.Stats.QuarantinedPages != 1 || rt.Stats.RequeuedPages != 1 {
				t.Errorf("quarantined=%d requeued=%d, want 1 and 1", rt.Stats.QuarantinedPages, rt.Stats.RequeuedPages)
			}
			if rt.Stats.WrittenBack != filePages-2 {
				t.Errorf("WrittenBack = %d, want %d", rt.Stats.WrittenBack, filePages-2)
			}
			var iof *IOFault
			if err := m.Msync(p); !errors.As(err, &iof) {
				t.Errorf("msync after failed write-back = %v, want the recorded *IOFault", err)
			}
			// The revived copies are the only good ones: still readable.
			got := make([]byte, 8)
			for _, idx := range []uint64{permIdx, transIdx} {
				pageMark(mark, idx)
				m.Load(p, idx*pageSize, got)
				if string(got) != string(mark) {
					t.Errorf("page %d content lost: %x", idx, got)
				}
			}
			if err := rt.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
		e.Run()
	}
	t.Run("direct", func(t *testing.T) { run(t, false) })
	t.Run("daemon", func(t *testing.T) { run(t, true) })
}
