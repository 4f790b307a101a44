package core

import (
	"bytes"
	"testing"

	"aquila/internal/detutil"
	"aquila/internal/iface"
	"aquila/internal/sim/device"
	"aquila/internal/sim/engine"
)

// hookedEngine is a runtime's I/O engine with a test's function in front of
// the transfer of every write: it records or holds the command, and charges
// it through the engine below (charge) when it wants it written. Failures
// come from the device's fault plan, which ioRun has probed by then: ok says
// whether the command failed.
type hookedEngine struct {
	IOEngine
	write func(p *engine.Proc, x extent, ok bool, charge func() uint64) uint64
}

func (h *hookedEngine) transfer(p *engine.Proc, op ioOp, x extent, ok bool, delay uint64) uint64 {
	charge := func() uint64 { return h.IOEngine.transfer(p, op, x, ok, delay) }
	if op == ioRead {
		return charge()
	}
	return h.write(p, x, ok, charge)
}

// claimAsVictim makes pg the one victim of the next eviction round, claimed
// the way selectVictims claims a page; hold runs between the claim and the
// round going on, while pg is busy and still dirty.
func claimAsVictim(rt *Runtime, pg *Page, hold func(p *engine.Proc)) {
	rt.Victims = func(p *engine.Proc, n int) []*Page {
		rt.lru.forget(pg)
		rt.claim(pg)
		hold(p)
		return append(rt.pageBufs.Borrow(), pg)
	}
}

// hugeHintWorld is a DAX runtime with the huge path on but no density
// promotion: an extent promotes only in a region advised AdviceHuge.
func hugeHintWorld(cacheBytes uint64, cpus int) (*engine.Engine, *device.PMem, func(p *engine.Proc) *Runtime) {
	ps := DefaultParams()
	ps.HugeFaultDensity = 1
	return faultDaxWorld(cacheBytes, cpus, &ps)
}

// A transient write failure in a promotion's displacement write-back undoes
// the claim: no unit, the extent's 4 KB pages back in the index — the failed
// one dirty again, nothing lost — and the fault served by the 4 KB path.
func TestPromotionAbortsOnFailedDisplacementWriteback(t *testing.T) {
	e, pm, boot := hugeHintWorld(16*mib, 1)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		f := rt.CreateFile(p, "data", 4*mib)
		m := rt.Mmap(p, f, 4*mib)
		mark := make([]byte, 8)
		for _, idx := range []uint64{3, 10, 11} {
			pageMark(mark, idx)
			m.Store(p, idx*pageSize, mark)
		}
		m.Advise(p, iface.AdviceHuge)
		// Every write of page 10 fails: the retries run out and it is requeued.
		pm.InjectFaults("pmem0", &device.FaultPlan{Rules: []device.FaultRule{
			{Kind: device.FaultTransientWrite, Off: devOffOf(rt, f, 10*pageSize), Len: pageSize, Every: 1},
		}})
		free := rt.FreePages()
		got := make([]byte, 8)
		m.Load(p, 20*pageSize, got) // first fault of a hinted extent: promote

		if rt.Stats.HugePromotions != 0 || rt.Stats.RequeuedPages != 1 {
			t.Fatalf("%d promotions, %d requeued pages, want 0 and 1", rt.Stats.HugePromotions, rt.Stats.RequeuedPages)
		}
		if rt.FreePages() != free-1 {
			t.Errorf("%d free pages after the aborted promotion and one 4 KB fault, want %d", rt.FreePages(), free-1)
		}
		for idx, dirty := range map[uint64]bool{3: false, 10: true, 11: false, 20: false} {
			pg := f.pages.Get(idx)
			if pg == nil || pg.huge || pg.frame == nil || pg.state != map[bool]detutil.PageState{false: detutil.PgClean, true: detutil.PgDirty}[dirty] {
				t.Fatalf("page %d after the abort: %+v, want a cached 4 KB page, dirty=%v", idx, pg, dirty)
			}
		}
		if err := rt.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// The failure is the file's to report, once; with the device healed the
		// requeued page drains and every mark is on the device.
		if err := m.Msync(p); err == nil {
			t.Error("the msync after a failed displacement write-back reported nothing")
		}
		pm.InjectFaults("pmem0", nil)
		if err := m.Msync(p); err != nil {
			t.Errorf("msync over the healed device: %v", err)
		}
		for _, idx := range []uint64{3, 10, 11} {
			pageMark(mark, idx)
			pm.Store.ReadAt(devOffOf(rt, f, idx*pageSize), got)
			if !bytes.Equal(got, mark) {
				t.Errorf("page %d on the device: %x, want %x", idx, got, mark)
			}
		}
	})
	e.Run()
}

// The window the abort must decide by the write-back's error and not by the
// pages' flags: an msync that collected page X before a promotion claimed X's
// extent takes X — requeued, so dirty again — while the displacement
// write-back is still writing X's neighbour, cleans it and starts writing it.
// Re-reading X's flag then finds it clean, the promotion goes on and recycles
// X's frame under msync's write. The schedule is built, not hoped for: the
// engine hook holds each write until the state the next step needs is there;
// X's write-back fails by a fault rule on its device range.
func TestPromotionAbortRacingMsyncKeepsTheFrame(t *testing.T) {
	const y, x, x2, z = 7, hugePages + 3, hugePages + 10, hugePages + 20
	e, pm, boot := hugeHintWorld(16*mib, 4)
	poll := func(p *engine.Proc, until func() bool) {
		for !until() {
			p.WaitUntil(p.Now()+100, engine.KindIOWait)
		}
	}
	var rt *Runtime
	var below IOEngine
	e.Spawn(0, "setup", func(p *engine.Proc) {
		rt = boot(p)
		f := rt.CreateFile(p, "data", 4*mib)
		m := rt.Mmap(p, f, 4*mib)
		mark := make([]byte, 8)
		for _, idx := range []uint64{y, x, x2} {
			pageMark(mark, idx)
			m.Store(p, idx*pageSize, mark)
		}
		m.Advise(p, iface.AdviceHuge)
		pgY, pgX := f.pages.Get(y), f.pages.Get(x)

		// The displacement write-back's attempts all fail: X is requeued.
		pm.InjectFaults("pmem0", &device.FaultPlan{Rules: []device.FaultRule{
			{Kind: device.FaultTransientWrite, Off: devOffOf(rt, f, x*pageSize), Len: pageSize, Every: 1, Limit: 1 + ioRetryLimit},
		}})
		below = rt.Engine
		rt.Engine = &hookedEngine{IOEngine: below, write: func(p *engine.Proc, w extent, ok bool, charge func() uint64) uint64 {
			switch w.idx {
			case y:
				// The eviction holding Y — and msync behind it — until X is requeued.
				poll(p, func() bool { return rt.Stats.RequeuedPages > 0 })
			case x2:
				// The displacement write-back stays out until msync has taken X.
				done := charge()
				poll(p, func() bool { return pgX.pins > 0 })
				return done
			}
			return charge()
		}}
		// The eviction sits on Y long enough for msync to collect it busy and dirty.
		claimAsVictim(rt, pgY, func(p *engine.Proc) { p.WaitUntil(p.Now()+10_000, engine.KindIOWait) })
		p.Engine().Spawn(1, "evict", func(p *engine.Proc) {
			if err := rt.evict(p); err != nil {
				t.Error(err)
			}
		})
		p.Engine().Spawn(2, "msync", func(p *engine.Proc) {
			if err := m.Msync(p); err == nil {
				t.Error("msync reported nothing of the failed displacement write-back")
			}
			if pgX.state.Dirty() || pgX.pins != 0 {
				t.Errorf("X after msync: %v, pins=%d", pgX.state, pgX.pins)
			}
		})
		p.Engine().Spawn(3, "promote", func(p *engine.Proc) {
			p.AdvanceUser(5_000) // msync has its snapshot and is parked on Y
			got := make([]byte, 8)
			m.Load(p, z*pageSize, got)
		})
	})
	e.Run()
	if rt.Stats.RequeuedPages != 1 || rt.Stats.HugePromotions != 0 {
		t.Fatalf("%d requeued pages, %d promotions: not the race, or the promotion went over a failed write-back",
			rt.Stats.RequeuedPages, rt.Stats.HugePromotions)
	}
	f := rt.files["data"]
	for _, idx := range []uint64{x, x2, z} {
		if pg := f.pages.Get(idx); pg == nil || pg.huge || pg.frame == nil || pg.state != detutil.PgClean {
			t.Errorf("page %d after the race: %+v, want a clean 4 KB page", idx, pg)
		}
	}
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	mark, got := make([]byte, 8), make([]byte, 8)
	for _, idx := range []uint64{y, x, x2} {
		pageMark(mark, idx)
		pm.Store.ReadAt(below.(*DAXEngine).file(f).DevOffset(idx*pageSize), got)
		if !bytes.Equal(got, mark) {
			t.Errorf("page %d on the device: %x, want %x", idx, got, mark)
		}
	}
}

// Between the failed displacement write and the abort's re-publish, the
// requeued constituent is out of the index and dirty again: the audits must
// hold there too. An auditor proc, started when the page's last write attempt
// fails, runs CheckCrashInvariants each time the promoting proc yields — it
// waits one cycle past the promoter's clock, so each of the promoter's
// charges hands it the machine — until page 10 is back in the index.
func TestPromotionAbortAuditsHoldAtEveryYield(t *testing.T) {
	e, pm, boot := hugeHintWorld(16*mib, 2)
	audits, republished := 0, false
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		f := rt.CreateFile(p, "data", 4*mib)
		m := rt.Mmap(p, f, 4*mib)
		mark := make([]byte, 8)
		for _, idx := range []uint64{3, 10, 11} {
			pageMark(mark, idx)
			m.Store(p, idx*pageSize, mark)
		}
		m.Advise(p, iface.AdviceHuge)
		attempts := 0
		audit := func(prom *engine.Proc) func(*engine.Proc) {
			return func(p *engine.Proc) {
				for {
					if err := rt.CheckCrashInvariants(); err != nil {
						t.Errorf("audit %d, cycle %d: %v", audits, p.Now(), err)
						return
					}
					audits++
					if pg := f.pages.Get(10); pg != nil && !pg.huge {
						republished = true
						return
					}
					p.WaitUntil(prom.Now()+1, engine.KindIOWait)
				}
			}
		}
		// Every write of page 10 fails, merged or alone.
		pm.InjectFaults("pmem0", &device.FaultPlan{Rules: []device.FaultRule{
			{Kind: device.FaultTransientWrite, Off: devOffOf(rt, f, 10*pageSize), Len: pageSize, Every: 1},
		}})
		rt.Engine = &hookedEngine{IOEngine: rt.Engine, write: func(p *engine.Proc, w extent, ok bool, charge func() uint64) uint64 {
			if !ok && w.idx == 10 && w.pages == 1 {
				if attempts++; attempts == 1+ioRetryLimit {
					p.Engine().Spawn(1, "audit", audit(p))
				}
			}
			return charge()
		}}
		got := make([]byte, 8)
		m.Load(p, 20*pageSize, got) // first fault of a hinted extent: promote, abort
		if rt.Stats.HugePromotions != 0 || rt.Stats.RequeuedPages != 1 {
			t.Fatalf("%d promotions, %d requeued pages, want 0 and 1", rt.Stats.HugePromotions, rt.Stats.RequeuedPages)
		}
	})
	e.Run()
	if audits < 4 || !republished {
		t.Fatalf("%d audits, re-publish seen: %v", audits, republished)
	}
	t.Logf("%d audits", audits)
}
