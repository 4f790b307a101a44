package core

import (
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
					pg.ev.Arm(evictClaim)
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

// A faulter left waiting on a fill nobody ends is a deadlock, and the
// engine's diagnostic names the page the way it always has, aqio:<file>:<idx>
// (a unit aqhuge:), although the event holds only the page, not a name.
func TestStuckFillDeadlockNamesPage(t *testing.T) {
	for _, huge := range []bool{false, true} {
		e, _, boot := daxWorld(4*mib, 2)
		var pg *Page
		e.Spawn(0, "owner", func(p *engine.Proc) {
			rt := boot(p)
			f := rt.CreateFile(p, "stuck", 4*mib)
			f.pages.Reserve(hugePages)
			pg = &Page{file: f, idx: 7, huge: huge}
			if huge {
				pg.idx = 0
			}
			rt.move(pg, detutil.PgFilling)
		})
		e.Spawn(1, "faulter", func(p *engine.Proc) {
			p.AdvanceSystem(1 << 20) // after the owner has booted and published
			pg.ev.Wait(p)
		})
		want := "faulter(on event:aqio:stuck:7)"
		if huge {
			want = "faulter(on event:aqhuge:stuck:0)"
		}
		if msg := panicOf(e.Run); !strings.Contains(msg, "engine: deadlock") || !strings.Contains(msg, want) {
			t.Fatalf("Run panicked with %q, want a deadlock naming %s", msg, want)
		}
	}
}

// The page record stays in its size class: a cold major fault is one
// allocation of it (TestColdMajorFaultIsOneAllocation), and a field more puts
// every fault in the next class.
func TestPageRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Page{}); got > 112 {
		t.Errorf("Page is %d bytes, want at most 112: past it every cold fault allocates from Go's 128-byte size class, not the 112-byte one (DESIGN.md §3 \"Page records\")", got)
	}
}
