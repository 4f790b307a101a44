package core

import (
	"testing"

	"aquila/internal/sim/cpu"
	"aquila/internal/sim/engine"
)

// Regression: wpFault moved the page to dirty, paid the yielding dirty-tree
// charge and only then made the PTE writable. An msync that ran inside that
// charge cleaned the page, so the store left a writable PTE on a clean page
// and the next store through it was never written back. A second proc msyncs
// at every offset across the store's write-protect fault; after each, one
// more store must leave the page dirty. Inside the window the msync writes
// the page back and the page is still dirty when both return: that is the
// race, and the sweep must reach it.
func TestWPFaultRacingMsyncLeavesPageDirty(t *testing.T) {
	raced := 0
	for d := uint64(0); d < 2000; d += 10 {
		e, _, boot := faultDaxWorld(4*mib, 2, nil)
		var rt *Runtime
		var m *AqMapping
		e.Spawn(0, "setup", func(p *engine.Proc) {
			rt = boot(p)
			m = rt.Mmap(p, rt.CreateFile(p, "f", pageSize), pageSize)
			m.Load(p, 0, make([]byte, 8)) // maps the page read-only
		})
		e.Run()
		t0 := e.Now()
		e.SpawnAt(0, "store", t0, func(p *engine.Proc) { m.Store(p, 0, []byte{1}) })
		e.SpawnAt(1, "msync", t0+d, func(p *engine.Proc) {
			e.PostIRQ(0, cpu.IPIReceive+cpu.TLBFlushAll)
			m.Msync(p)
		})
		e.Run()
		if rt.Stats.WrittenBack > 0 && rt.DirtyPages() == 1 && rt.Stats.WPFaults == 1 {
			raced++
		}
		e.SpawnAt(0, "store again", e.Now(), func(p *engine.Proc) { m.Store(p, 8, []byte{2}) })
		e.Run()
		if rt.DirtyPages() != 1 {
			t.Fatalf("msync %d cycles into the store: a store left its page clean", d)
		}
		if err := rt.CheckInvariants(); err != nil {
			t.Fatalf("msync %d cycles into the store: %v", d, err)
		}
	}
	if raced == 0 {
		t.Fatal("no msync landed inside a write-protect fault: not the race")
	}
}
