package core

import (
	"fmt"
	"testing"

	"aquila/internal/host"
	"aquila/internal/iface"
	"aquila/internal/sim/device"
	"aquila/internal/sim/engine"
	"aquila/internal/sim/mem"
)

// hugeWorld builds a DAX-engine runtime with the huge-page path enabled at
// the given promotion density.
func hugeWorld(cacheBytes uint64, cpus int, density float64) (*engine.Engine, func(p *engine.Proc) *Runtime) {
	e := engine.New(engine.Config{NumCPUs: cpus, Seed: 1})
	disk := host.NewPMemDisk("pmem0", device.NewPMem(512*mib, device.DefaultPMemConfig()))
	os := host.NewOS(e, disk, 128*mib)
	ps := DefaultParams()
	ps.HugeFaultDensity = density
	return e, func(p *engine.Proc) *Runtime {
		return NewRuntime(p, os, NewDAXEngine(os), Config{CacheBytes: cacheBytes, Params: &ps})
	}
}

func checkHugeQuiesce(t *testing.T, rt *Runtime) {
	t.Helper()
	if err := rt.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
	if got, want := rt.fl.audit(), rt.fl.Free(); got != want {
		t.Errorf("freelist audit %d != Free %d", got, want)
	}
}

// TestHugePromotionDensity: sequentially touching a file read-only promotes
// each 2 MB extent once its residency density crosses the threshold, cutting
// fault events by ~2x at density 0.5 (256 base faults + 1 promotion per 512
// pages) and covering the extent with one cache unit.
func TestHugePromotionDensity(t *testing.T) {
	e, boot := hugeWorld(16*mib, 1, 0.5)
	var rt *Runtime
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt = boot(p)
		f := rt.CreateFile(p, "dense", 4*mib)
		m := rt.Mmap(p, f, 4*mib)
		buf := make([]byte, 8)
		for off := uint64(0); off < 4*mib; off += pageSize {
			m.Load(p, off, buf)
		}
	})
	e.Run()
	if got := rt.Stats.HugePromotions; got != 2 {
		t.Errorf("HugePromotions = %d, want 2", got)
	}
	// 255 base faults then the promoting fault per extent: half the 4 KB
	// baseline's 1024 fault events.
	if got := rt.Stats.MajorFaults; got != 512 {
		t.Errorf("MajorFaults = %d, want 512", got)
	}
	if got := rt.ResidentPages(); got != 1024 {
		t.Errorf("ResidentPages = %d, want 1024", got)
	}
	checkHugeQuiesce(t, rt)
}

// TestHugeAdviseFirstFault: an MADV_HUGEPAGE'd region promotes on the very
// first fault of each extent, dirties whole units on stores, and writes each
// unit back as one merged 2 MB run.
func TestHugeAdviseFirstFault(t *testing.T) {
	e, boot := hugeWorld(16*mib, 1, 0.5)
	var rt *Runtime
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt = boot(p)
		f := rt.CreateFile(p, "hinted", 4*mib)
		m := rt.Mmap(p, f, 4*mib)
		m.Advise(p, iface.AdviceHuge)
		m.Store(p, 123, []byte("x"))
		if got := rt.Stats.HugePromotions; got != 1 {
			t.Errorf("HugePromotions after first store = %d, want 1", got)
		}
		if got := rt.Stats.MajorFaults; got != 1 {
			t.Errorf("MajorFaults after first store = %d, want 1", got)
		}
		if got := rt.DirtyPages(); got != 1 {
			t.Errorf("DirtyPages = %d, want 1 whole-unit entry", got)
		}
		m.Msync(p)
		if got := rt.Stats.WrittenBack; got != 512 {
			t.Errorf("WrittenBack = %d, want 512 (one merged unit)", got)
		}
		// Post-writeback store: the hinted unit re-dirties whole instead of
		// splitting.
		m.Store(p, 5000, []byte("y"))
		if got := rt.Stats.HugeDemotions; got != 0 {
			t.Errorf("HugeDemotions = %d, want 0 on hinted region", got)
		}
		if got := rt.DirtyPages(); got != 1 {
			t.Errorf("DirtyPages after re-dirty = %d, want 1", got)
		}
	})
	e.Run()
	checkHugeQuiesce(t, rt)
}

// TestHugeSplitOnDirtyingStore: a store to a clean, unhinted unit demotes it
// back to 4 KB pages so dirty tracking stays fine-grained — exactly one page
// dirty afterwards, all 512 frames still cached.
func TestHugeSplitOnDirtyingStore(t *testing.T) {
	e, boot := hugeWorld(16*mib, 1, 0.5)
	var rt *Runtime
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt = boot(p)
		f := rt.CreateFile(p, "split", 2*mib)
		m := rt.Mmap(p, f, 2*mib)
		buf := make([]byte, 8)
		for off := uint64(0); off < 2*mib; off += pageSize {
			m.Load(p, off, buf)
		}
		if got := rt.Stats.HugePromotions; got != 1 {
			t.Fatalf("HugePromotions = %d, want 1", got)
		}
		m.Store(p, mib+17, []byte("z"))
		if got := rt.Stats.HugeDemotions; got != 1 {
			t.Errorf("HugeDemotions = %d, want 1", got)
		}
		if got := rt.DirtyPages(); got != 1 {
			t.Errorf("DirtyPages = %d, want 1", got)
		}
		if got := rt.ResidentPages(); got != 512 {
			t.Errorf("ResidentPages = %d, want 512", got)
		}
	})
	e.Run()
	checkHugeQuiesce(t, rt)
}

// TestHugeEvictWhole: an out-of-memory streaming write over hinted units
// evicts victims whole — one LRU entry, one merged 2 MB writeback, one
// freelist block per unit — and the recycled blocks keep their contiguity for
// later promotions.
func TestHugeEvictWhole(t *testing.T) {
	e, boot := hugeWorld(8*mib, 1, 0.5)
	var rt *Runtime
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt = boot(p)
		f := rt.CreateFile(p, "stream", 32*mib)
		m := rt.Mmap(p, f, 32*mib)
		m.Advise(p, iface.AdviceHuge)
		for off := uint64(0); off < 32*mib; off += 2 * mib {
			m.Store(p, off, []byte("w"))
		}
	})
	e.Run()
	// Not every extent promotes: once the huge tier is drained, 4 KB demand
	// splits blocks and only whole-unit evictions replenish it. At least the
	// cache's worth of units (4 blocks) must have promoted.
	if got := rt.Stats.HugePromotions; got < 4 {
		t.Errorf("HugePromotions = %d, want >= 4", got)
	}
	if rt.Stats.HugeEvictions == 0 {
		t.Error("no whole-unit evictions in out-of-memory stream")
	}
	if rt.Stats.HugeDemotions != 0 {
		t.Errorf("HugeDemotions = %d, want 0 (hinted units evict whole)", rt.Stats.HugeDemotions)
	}
	checkHugeQuiesce(t, rt)
}

// hugeFingerprint drives an eviction-heavy mixed workload over a hinted
// mapping twice the cache, so units cycle continuously — racing first-fault
// promotions, whole-unit evictions, block recycling, 4 KB fallback when the
// tier is drained — and returns a fingerprint folding in the huge counters.
func hugeFingerprint(t *testing.T) string {
	t.Helper()
	e, boot := hugeWorld(16*mib, 4, 0.005)
	var rt *Runtime
	e.Spawn(0, "init", func(p *engine.Proc) {
		rt = boot(p)
		f := rt.CreateFile(p, "hdet", 32*mib)
		m := rt.Mmap(p, f, 32*mib)
		m.Advise(p, iface.AdviceHuge)
		m.Store(p, 0, []byte{1})
		for w := 0; w < 4; w++ {
			w := w
			e.SpawnAt(w%4, fmt.Sprintf("w%d", w), p.Now(), func(p *engine.Proc) {
				buf := make([]byte, 64)
				n := uint64(32 * mib)
				for i := 0; i < 3000; i++ {
					off := (uint64(i)*40009 + uint64(w)*7919) * 64 % (n - 64)
					if i%3 == 0 {
						m.Store(p, off, buf)
					} else {
						m.Load(p, off, buf)
					}
				}
			})
		}
	})
	e.Run()
	checkHugeQuiesce(t, rt)
	if rt.Stats.HugePromotions == 0 {
		t.Error("workload exercised no promotions")
	}
	if rt.Stats.HugeEvictions == 0 {
		t.Error("workload exercised no whole-unit evictions")
	}
	st := rt.Stats
	return fmt.Sprintf("now=%d major=%d minor=%d wp=%d evict=%d wb=%d shoot=%d free=%d resident=%d hf=%d promo=%d demo=%d hevict=%d",
		e.Now(), st.MajorFaults, st.MinorFaults, st.WPFaults, st.Evictions,
		st.WrittenBack, st.ShootdownBatches, rt.FreePages(), rt.ResidentPages(),
		st.HugeFaults, st.HugePromotions, st.HugeDemotions, st.HugeEvictions)
}

// TestHugeDeterminism: the huge-page path is bit-deterministic — the same
// seed replays the same promotions, demotions, whole-unit evictions and final
// clocks under a 4-CPU eviction-heavy mixed workload.
func TestHugeDeterminism(t *testing.T) {
	a := hugeFingerprint(t)
	b := hugeFingerprint(t)
	t.Logf("huge: %s", a)
	if a != b {
		t.Errorf("huge fingerprint not reproducible:\n run1 %s\n run2 %s", a, b)
	}
}

// TestPopHugeIfKeepsNoLooseBlock pins the promotion claim window: a claim the
// validator rejects is back in its node's huge tier before popHugeIf returns,
// at the cost of the pop's and the push's costBuddyOp; an accepted claim is the
// caller's; and with no block left the validator is never asked and the
// charges are popHuge's own.
func TestPopHugeIfKeepsNoLooseBlock(t *testing.T) {
	e, boot := hugeWorld(8*mib, 1, 0.5)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		fl := rt.fl
		charges := func() (n, cyc uint64) { return rt.Break.Count("alloc"), rt.Break.Get("alloc") }
		node := p.Node()
		free, tier := fl.Free(), len(fl.hugeNodes[node])
		if tier == 0 {
			t.Fatal("no 2 MB block on the local node to claim")
		}

		n0, c0 := charges()
		asked := 0
		if blk := fl.popHugeIf(p, func() bool { asked++; return false }); blk != nil {
			t.Errorf("rejected claim returned the block based at frame %d", blk.ID)
		}
		n1, c1 := charges()
		if asked != 1 {
			t.Errorf("validator ran %d times, want 1", asked)
		}
		if got := len(fl.hugeNodes[node]); got != tier || fl.Free() != free {
			t.Errorf("after a rejected claim: tier %d (want %d), Free %d (want %d)", got, tier, fl.Free(), free)
		}
		if n1-n0 != 2 || c1-c0 != 2*costBuddyOp {
			t.Errorf("rejected claim made %d alloc charges of %d cycles, want 2 of %d", n1-n0, c1-c0, 2*costBuddyOp)
		}

		// Accepted claims drain the tier; each is one whole unit's base frame.
		var held []*mem.Frame
		for {
			blk := fl.popHugeIf(p, func() bool { return true })
			if blk == nil {
				break
			}
			if blk.ID%hugePages != 0 {
				t.Fatalf("claimed block based at frame %d, not a block's base frame", blk.ID)
			}
			held = append(held, blk)
		}
		if len(held) != tier || fl.Free() != free-tier*hugePages {
			t.Errorf("drained %d blocks, Free %d; want %d blocks, Free %d", len(held), fl.Free(), tier, free-tier*hugePages)
		}

		// Empty tier: nil, the validator is never asked, popHuge's charges.
		n0, c0 = charges()
		if fl.popHuge(p) != nil {
			t.Fatal("popHuge found a block in a drained tier")
		}
		n1, c1 = charges()
		if blk := fl.popHugeIf(p, func() bool { t.Error("validator asked with no block claimed"); return true }); blk != nil {
			t.Error("popHugeIf found a block in a drained tier")
		}
		n2, c2 := charges()
		if n2-n1 != n1-n0 || c2-c1 != c1-c0 {
			t.Errorf("empty popHugeIf charged %d/%d cycles, popHuge %d/%d", n2-n1, c2-c1, n1-n0, c1-c0)
		}

		for _, blk := range held {
			fl.pushHuge(p, blk)
		}
		checkHugeQuiesce(t, rt)
	})
	e.Run()
}
