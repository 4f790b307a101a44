package host

import (
	"testing"

	"aquila/internal/sim/cpu"
	"aquila/internal/sim/engine"
)

// The write-protect fault against a concurrent msync, as in core's test of
// the same name: a second proc interrupts the storing CPU (as a concurrent
// munmap's shootdown does) and msyncs at every offset across the store's
// write-protect fault; after each, one more store must leave the page dirty.
// Here the file's tree_lock is held from the fault's dirtying to the last
// yield before its PTE upgrade, and from the msync's cleaning to its
// write-protect, so the two cannot interleave; the sweep must still reach an
// msync that writes the page back while the fault is in flight.
func TestWPFaultRacingMsyncLeavesPageDirty(t *testing.T) {
	raced := 0
	for d := uint64(0); d < 3000; d += 5 {
		e, os := newPMemOS(1 * mib)
		var m *Mapping
		run1(e, func(p *engine.Proc) {
			m = os.Mmap(p, os.FS.Create(p, "f", PageSize), PageSize)
			m.Load(p, 0, make([]byte, 8)) // maps the page read-only
		})
		t0 := e.Now()
		e.SpawnAt(0, "store", t0, func(p *engine.Proc) { m.Store(p, 0, []byte{1}) })
		e.SpawnAt(1, "msync", t0+d, func(p *engine.Proc) {
			e.PostIRQ(0, cpu.IPIReceive+cpu.TLBFlushAll)
			m.Msync(p)
		})
		e.Run()
		if os.Cache.WrittenBk > 0 && os.Cache.NrDirty() == 1 {
			raced++
		}
		e.SpawnAt(0, "store again", e.Now(), func(p *engine.Proc) { m.Store(p, 8, []byte{2}) })
		e.Run()
		if os.Cache.NrDirty() != 1 {
			t.Fatalf("msync %d cycles into the store: a store left its page clean", d)
		}
	}
	if raced == 0 {
		t.Fatal("no msync wrote the page back during a write-protect fault: not the race")
	}
}
