package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"aquila/internal/detutil"
	"aquila/internal/host"
	"aquila/internal/sim/device"
	"aquila/internal/sim/engine"
	"aquila/internal/spdk"
)

// faultDaxWorld is asyncDaxWorld returning the pmem device so tests can
// attach fault plans to it.
func faultDaxWorld(cacheBytes uint64, cpus int, ps *Params) (*engine.Engine, *device.PMem, func(p *engine.Proc) *Runtime) {
	e := engine.New(engine.Config{NumCPUs: cpus, Seed: 1})
	pm := device.NewPMem(512*mib, device.DefaultPMemConfig())
	os := host.NewOS(e, host.NewPMemDisk("pmem0", pm), 64*mib)
	return e, pm, func(p *engine.Proc) *Runtime {
		return NewRuntime(p, os, NewDAXEngine(os), Config{CacheBytes: cacheBytes, Params: ps})
	}
}

// faultSpdkWorld is asyncSpdkWorld returning the NVMe device.
func faultSpdkWorld(cacheBytes uint64, cpus int, ps *Params) (*engine.Engine, *device.NVMe, func(p *engine.Proc) *Runtime) {
	e := engine.New(engine.Config{NumCPUs: cpus, Seed: 1})
	hostDisk := host.NewPMemDisk("hostdisk", device.NewPMem(16*mib, device.DefaultPMemConfig()))
	os := host.NewOS(e, hostDisk, 16*mib)
	nvme := device.NewNVMe(512*mib, device.DefaultNVMeConfig())
	fm := spdk.NewFileMap(spdk.NewBlobstore(spdk.NewDriver(nvme)))
	return e, nvme, func(p *engine.Proc) *Runtime {
		return NewRuntime(p, os, NewSPDKEngine(fm), Config{CacheBytes: cacheBytes, Params: ps})
	}
}

// pageMark writes page idx's identifying 8-byte pattern into mark.
func pageMark(mark []byte, idx uint64) {
	for i := range mark {
		mark[i] = byte(idx >> (8 * i))
	}
}

// devOffOf maps a file offset to its device offset through the DAX engine.
func devOffOf(rt *Runtime, f *fileState, off uint64) uint64 {
	return rt.Engine.(*DAXEngine).file(f).DevOffset(off)
}

// Acceptance: transient NVMe write errors during background eviction lose no
// pages — every mark survives the fault-riddled writeback/refill round trip,
// and msync settles to nil once the requeued pages drain.
func TestTransientNVMeWriteFaultsNoLostPages(t *testing.T) {
	e, nvme, boot := faultSpdkWorld(4*mib, 4, asyncParams(nil))
	var rt *Runtime
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt = boot(p)
		nvme.InjectFaults("nvme0", &device.FaultPlan{Seed: 7, Rules: []device.FaultRule{
			{Kind: device.FaultTransientWrite, Prob: 0.25},
		}})
		const fileBytes = 16 * mib
		f := rt.CreateFile(p, "data", fileBytes)
		m := rt.Mmap(p, f, fileBytes)
		mark := make([]byte, 8)
		for off := uint64(0); off+8 < fileBytes; off += pageSize {
			pageMark(mark, off/pageSize)
			m.Store(p, off, mark)
		}
		got := make([]byte, 8)
		for off := uint64(0); off+8 < fileBytes; off += pageSize {
			pageMark(mark, off/pageSize)
			m.Load(p, off, got)
			if !bytes.Equal(got, mark) {
				t.Fatalf("page %d lost under transient write faults: %x != %x",
					off/pageSize, got, mark)
			}
		}
		// Requeued pages (writebacks that exhausted their retries) stay dirty
		// and must drain within a few msync passes; each failed pass reports
		// its errseq error exactly once.
		var err error
		for i := 0; i < 10; i++ {
			if err = m.Msync(p); err == nil {
				break
			}
			var iof *IOFault
			if !errors.As(err, &iof) || !iof.Transient() {
				t.Fatalf("msync error %v is not a transient *IOFault", err)
			}
		}
		if err != nil {
			t.Fatalf("msync never drained the requeued pages: %v", err)
		}
		if err := m.Msync(p); err != nil {
			t.Errorf("clean msync reported a stale error: %v", err)
		}
	})
	e.Run()
	if nvme.Store.InjectedFaults() == 0 {
		t.Fatal("fault plan never fired")
	}
	if rt.Stats.IORetries == 0 {
		t.Error("no transient retries despite injected write faults")
	}
	if rt.Stats.QuarantinedPages != 0 {
		t.Errorf("transient faults quarantined %d pages", rt.Stats.QuarantinedPages)
	}
	if rt.Stats.BgReclaimPages == 0 {
		t.Error("workload never exercised the background evictor")
	}
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Acceptance: a permanent writeback error is reported exactly once per sync
// caller (errseq semantics), and the failed page is quarantined rather than
// dropped.
func TestMsyncReportsErrorExactlyOncePerCaller(t *testing.T) {
	e, pm, boot := faultDaxWorld(32*mib, 2, nil)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		f := rt.CreateFile(p, "errseq", 1*mib)
		m1 := rt.Mmap(p, f, 1*mib)
		m2 := rt.Mmap(p, f, 1*mib)
		devOff := devOffOf(rt, f, 3*pageSize)
		pm.InjectFaults("pmem0", &device.FaultPlan{Rules: []device.FaultRule{
			{Kind: device.FaultPermanentWrite, Off: devOff, Len: pageSize, After: 1},
		}})
		buf := make([]byte, 8)
		for pg := uint64(0); pg < 6; pg++ {
			m1.Store(p, pg*pageSize, buf)
		}
		err := m1.Msync(p)
		var iof *IOFault
		if !errors.As(err, &iof) {
			t.Fatalf("msync error = %v, want *IOFault", err)
		}
		if iof.Op != "write" || iof.Page != 3 || iof.Dev != "pmem0" || iof.DevOff != devOff {
			t.Errorf("fault context = %+v, want write page 3 on pmem0 @%#x", iof, devOff)
		}
		if iof.Transient() {
			t.Error("permanent write fault reported as transient")
		}
		// Same caller, second sync: the error was already consumed.
		if err := m1.Msync(p); err != nil {
			t.Errorf("m1 second msync = %v, want nil (errseq exactly-once)", err)
		}
		// Different caller: sees the same error once, then nil.
		if err := m2.Msync(p); err == nil {
			t.Error("m2 never saw the writeback error")
		}
		if err := m2.Msync(p); err != nil {
			t.Errorf("m2 second msync = %v, want nil", err)
		}
		// A mapping created after the error never sees it.
		m3 := rt.Mmap(p, f, 1*mib)
		if err := m3.Msync(p); err != nil {
			t.Errorf("late mapping saw a pre-existing error: %v", err)
		}
		if rt.Stats.QuarantinedPages != 1 || rt.QuarantinedLive() != 1 {
			t.Errorf("quarantine: events=%d live=%d, want 1/1",
				rt.Stats.QuarantinedPages, rt.QuarantinedLive())
		}
		if err := rt.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
	e.Run()
}

// Acceptance: a permanent media error under a fill read surfaces as a typed
// SIGBUS carrying device, LBA and faulting address; the page is poisoned and
// later accesses fail fast without reissuing doomed I/O.
func TestPermanentReadFaultDeliversTypedSigBus(t *testing.T) {
	e, pm, boot := faultDaxWorld(32*mib, 2, nil)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		f := rt.CreateFile(p, "faulty", 1*mib)
		m := rt.Mmap(p, f, 1*mib)
		devOff := devOffOf(rt, f, 2*pageSize)
		pm.InjectFaults("pmem0", &device.FaultPlan{Rules: []device.FaultRule{
			{Kind: device.FaultPermanentRead, Off: devOff, Len: pageSize, After: 1},
		}})
		buf := make([]byte, 8)
		catch := func() (sb *SigBus) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("load of permanently unreadable page did not fault")
				}
				var ok bool
				if sb, ok = r.(*SigBus); !ok {
					t.Fatalf("panic value %T is not *SigBus", r)
				}
			}()
			m.Load(p, 2*pageSize, buf)
			return nil
		}
		sb := catch()
		if sb.VA != m.r.Start+2*pageSize || sb.File != "faulty" {
			t.Errorf("SigBus va=%#x file=%q, want va=%#x file=%q",
				sb.VA, sb.File, m.r.Start+2*pageSize, "faulty")
		}
		if msg := fmt.Sprint(sb); !strings.Contains(msg, "SIGBUS") {
			t.Errorf("signal string %q lost the SIGBUS marker", msg)
		}
		var iof *IOFault
		if !errors.As(sb.Err, &iof) {
			t.Fatalf("SigBus.Err = %v, want *IOFault", sb.Err)
		}
		if iof.Op != "read" || iof.Page != 2 || iof.Dev != "pmem0" || iof.DevOff != devOff {
			t.Errorf("fault context = %+v, want read page 2 on pmem0 @%#x", iof, devOff)
		}
		if rt.Stats.PoisonedPages != 1 || rt.PoisonedLive() != 1 {
			t.Errorf("poison: events=%d live=%d, want 1/1",
				rt.Stats.PoisonedPages, rt.PoisonedLive())
		}
		// Fail-fast on re-access: the poisoned page keeps delivering SIGBUS.
		if sb := catch(); sb == nil {
			t.Fatal("second access did not fault")
		}
		// Neighbors were isolated and re-read individually: they stay usable.
		m.Load(p, 1*pageSize, buf)
		m.Load(p, 3*pageSize, buf)
		if err := rt.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
	e.Run()
}

// A poisoned page's fault lives in Runtime.poisoned, not in its record, for as
// long as the page is poisoned: an eviction that takes the page, or a
// DeleteFile that drops it, leaves no entry behind.
func TestPoisonedPageLeavesNoPoisonEntry(t *testing.T) {
	for _, how := range []string{"evicted", "deleted"} {
		t.Run(how, func(t *testing.T) {
			e, pm, boot := faultDaxWorld(1*mib, 1, nil)
			e.Spawn(0, "t", func(p *engine.Proc) {
				rt := boot(p)
				f := rt.CreateFile(p, "faulty", 1*mib)
				m := rt.Mmap(p, f, 1*mib)
				pm.InjectFaults("pmem0", &device.FaultPlan{Rules: []device.FaultRule{
					{Kind: device.FaultPermanentRead, Off: devOffOf(rt, f, 2*pageSize), Len: pageSize, After: 1},
				}})
				buf := make([]byte, 8)
				func() {
					defer func() {
						if _, ok := recover().(*SigBus); !ok {
							t.Fatal("load of a permanently unreadable page did not deliver SIGBUS")
						}
					}()
					m.Load(p, 2*pageSize, buf)
				}()
				if pg := rt.lookupPage(f, 2); pg == nil || pg.state != detutil.PgPoisoned || rt.poisoned[pg] == nil || len(rt.poisoned) != 1 {
					t.Fatalf("after the failed fill: page %v, %d poison entries; want one, for the poisoned page", pg, len(rt.poisoned))
				}
				if how == "evicted" {
					// Twice the cache through a second file: every page of
					// the first is evicted, the poisoned one with them.
					g := rt.CreateFile(p, "other", 2*mib)
					mg := rt.Mmap(p, g, 2*mib)
					for off := uint64(0); off < 2*mib; off += pageSize {
						mg.Load(p, off, buf)
					}
				} else {
					m.Munmap(p)
					rt.DeleteFile(p, "faulty")
				}
				if rt.PoisonedLive() != 0 || len(rt.poisoned) != 0 {
					t.Fatalf("page %s: %d poisoned pages cached, %d poison entries; want none", how, rt.PoisonedLive(), len(rt.poisoned))
				}
				if rt.Stats.PoisonedPages != 1 {
					t.Fatalf("%d poison events, want 1", rt.Stats.PoisonedPages)
				}
			})
			e.Run()
		})
	}
}

// A quarantined page is pinned in DRAM: eviction pressure never selects it
// again and its (only remaining) copy keeps serving loads.
func TestQuarantinedPageSurvivesEvictionPressure(t *testing.T) {
	e, pm, boot := faultDaxWorld(4*mib, 4, nil)
	var rt *Runtime
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt = boot(p)
		const fileBytes = 16 * mib
		f := rt.CreateFile(p, "pinned", fileBytes)
		m := rt.Mmap(p, f, fileBytes)
		pm.InjectFaults("pmem0", &device.FaultPlan{Rules: []device.FaultRule{
			{Kind: device.FaultPermanentWrite, Off: devOffOf(rt, f, 5*pageSize),
				Len: pageSize, After: 1},
		}})
		mark := make([]byte, 8)
		for off := uint64(0); off+8 < fileBytes; off += pageSize {
			pageMark(mark, off/pageSize)
			m.Store(p, off, mark)
		}
		got := make([]byte, 8)
		for off := uint64(0); off+8 < fileBytes; off += pageSize {
			pageMark(mark, off/pageSize)
			m.Load(p, off, got)
			if !bytes.Equal(got, mark) {
				t.Fatalf("page %d corrupted (quarantine lost data?): %x != %x",
					off/pageSize, got, mark)
			}
		}
	})
	e.Run()
	if rt.Stats.QuarantinedPages != 1 || rt.QuarantinedLive() != 1 {
		t.Errorf("quarantine: events=%d live=%d, want 1/1",
			rt.Stats.QuarantinedPages, rt.QuarantinedLive())
	}
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A transient fault that clears within the retry budget is absorbed in place:
// cycle-accounted backoff, no requeue, no poison, correct device content.
func TestTransientFaultRetriesThenSucceeds(t *testing.T) {
	e, pm, boot := faultDaxWorld(32*mib, 2, nil)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		f := rt.CreateFile(p, "retry", 1*mib)
		m := rt.Mmap(p, f, 1*mib)
		pm.InjectFaults("pmem0", &device.FaultPlan{Rules: []device.FaultRule{
			{Kind: device.FaultTransientRead, After: 1, Limit: 1},
			{Kind: device.FaultTransientWrite, After: 1, Limit: 1},
		}})
		data := []byte{0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4}
		m.Store(p, 0, data) // fill read fires the read fault, retried
		if err := m.Msync(p); err != nil {
			t.Fatalf("msync after transient write fault = %v, want nil", err)
		}
		if rt.Stats.IORetries < 2 {
			t.Errorf("IORetries = %d, want >= 2 (one read, one write)", rt.Stats.IORetries)
		}
		if rt.Stats.RequeuedPages != 0 || rt.Stats.PoisonedPages != 0 || rt.Stats.QuarantinedPages != 0 {
			t.Errorf("retried-in-place fault escalated: requeue=%d poison=%d quarantine=%d",
				rt.Stats.RequeuedPages, rt.Stats.PoisonedPages, rt.Stats.QuarantinedPages)
		}
		if rt.Break.Get("io-retry") == 0 {
			t.Error("retry backoff not cycle-accounted in the breakdown")
		}
		got := make([]byte, len(data))
		pm.Store.ReadAt(devOffOf(rt, f, 0), got)
		if !bytes.Equal(got, data) {
			t.Errorf("device content after retried writeback = %x, want %x", got, data)
		}
	})
	e.Run()
}

// Persistently failing background writeback pushes the daemons back to
// synchronous writeback (and requeues keep the failed pages dirty).
func TestBgEvictorFallsBackToSyncWriteback(t *testing.T) {
	e, pm, boot := faultDaxWorld(4*mib, 4, asyncParams(nil))
	var rt *Runtime
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt = boot(p)
		pm.InjectFaults("pmem0", &device.FaultPlan{Seed: 3, Rules: []device.FaultRule{
			{Kind: device.FaultTransientWrite, Prob: 0.75},
		}})
		pressureWorkload(p, rt, 16*mib)
	})
	e.Run()
	if rt.Stats.SyncWritebackFallbacks == 0 {
		t.Error("daemons never fell back to sync writeback under persistent faults")
	}
	if rt.Stats.RequeuedPages == 0 {
		t.Error("no requeues despite 75% write failure probability")
	}
	if rt.Stats.QuarantinedPages != 0 {
		t.Errorf("transient faults quarantined %d pages", rt.Stats.QuarantinedPages)
	}
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Direct (O_DIRECT-style) file I/O returns device errors synchronously to the
// caller instead of recording them in the file's error sequence.
func TestDirectIOFaultPropagation(t *testing.T) {
	e, pm, boot := faultDaxWorld(32*mib, 2, nil)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		ns := &Namespace{RT: rt}
		af := ns.Create(p, "direct", 1*mib).(*AqFile)
		pm.InjectFaults("pmem0", &device.FaultPlan{Rules: []device.FaultRule{
			{Kind: device.FaultPermanentRead, Off: devOffOf(rt, af.f, pageSize),
				Len: pageSize, After: 1},
			{Kind: device.FaultPermanentWrite, Off: devOffOf(rt, af.f, 2*pageSize),
				Len: pageSize, After: 1},
		}})
		buf := make([]byte, pageSize)
		if err := af.Pread(p, buf, 0); err != nil {
			t.Fatalf("pread of healthy page = %v", err)
		}
		err := af.Pread(p, buf, pageSize)
		var de *device.IOError
		if !errors.As(err, &de) || de.Kind != device.FaultPermanentRead {
			t.Fatalf("pread of bad page = %v, want permanent-read *IOError", err)
		}
		before := af.Size()
		if err := af.Pwrite(p, buf, 2*pageSize); err == nil {
			t.Fatal("pwrite to bad page succeeded")
		}
		if af.Size() != before {
			t.Errorf("failed pwrite changed size %d -> %d", before, af.Size())
		}
		if err := af.Pwrite(p, buf, 0); err != nil {
			t.Fatalf("pwrite to healthy page = %v", err)
		}
		// Direct write failures were returned inline, not deferred to fsync.
		if err := af.Fsync(p); err != nil {
			t.Errorf("fsync = %v, want nil (direct errors are synchronous)", err)
		}
	})
	e.Run()
}

// Direct NVM mappings: a poisoned line machine-checks (typed SIGBUS) on load;
// a failed flush is posted — recorded in errseq and reported once by Msync.
func TestDirectMappingFaults(t *testing.T) {
	e, pm, boot := faultDaxWorld(32*mib, 2, nil)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		f := rt.CreateFile(p, "dm", 4*mib)
		pm.InjectFaults("pmem0", &device.FaultPlan{Rules: []device.FaultRule{
			{Kind: device.FaultPoison, Off: devOffOf(rt, f, 0), Len: 64, After: 1},
			{Kind: device.FaultPermanentWrite, Off: devOffOf(rt, f, pageSize),
				Len: pageSize, After: 1},
		}})
		dm := rt.MmapDirectNVM(p, f, 4*mib)
		buf := make([]byte, 64)
		func() {
			defer func() {
				r := recover()
				sb, ok := r.(*SigBus)
				if !ok {
					t.Fatalf("load of poisoned line: panic %v, want *SigBus", r)
				}
				var iof *IOFault
				if !errors.As(sb.Err, &iof) || iof.Op != "read" {
					t.Errorf("SigBus.Err = %v, want read *IOFault", sb.Err)
				}
			}()
			dm.Load(p, 0, buf)
		}()
		// Stores are posted: the media error does not trap, it surfaces on
		// the next Msync (exactly once).
		dm.Store(p, pageSize, buf)
		if err := dm.Msync(p); err == nil {
			t.Error("msync after failed flush = nil, want error")
		}
		if err := dm.Msync(p); err != nil {
			t.Errorf("second msync = %v, want nil (errseq exactly-once)", err)
		}
	})
	e.Run()
}

// The cache index is bounded where the hash was not. An access past the
// mapping fails the way it always did, at the mapping; the index itself
// refuses a page past every size the file and its mappings were given — it
// would otherwise size a directory by an index nothing vouched for — and a
// lookup, however far out, finds nothing and grows nothing. The file's last,
// partial page is inside.
func TestCacheIndexRefusesPagesPastTheFile(t *testing.T) {
	const size = 1*mib + 100 // 257 pages, the last one partial
	e, _, boot := daxWorld(16*mib, 2)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		f := rt.CreateFile(p, "short", size)
		m := rt.Mmap(p, f, size)
		buf := make([]byte, 8)
		m.Load(p, size-8, buf)
		if pg := rt.lookupPage(f, 256); pg == nil || f.pages.Len() != 1 {
			t.Fatalf("the last page is not cached: %v, %d pages", pg, f.pages.Len())
		}
		if got, want := panicOf(func() { m.Load(p, size-7, buf) }), "core: mapping access [1048669,1048677) beyond size 1048676"; got != want {
			t.Errorf("load past the mapping: %q, want %q", got, want)
		}
		for _, idx := range []uint64{257, 1 << 40, ^uint64(0)} {
			want := fmt.Sprintf("detutil: page index %d beyond the 257 pages reserved", idx)
			if got := panicOf(func() { rt.move(&Page{file: f, idx: idx}, detutil.PgFilling) }); got != want {
				t.Errorf("insert at %d: %q, want %q", idx, got, want)
			}
			if rt.lookupPage(f, idx) != nil {
				t.Errorf("lookup at %d found a page", idx)
			}
		}
		if err := f.pages.Check(); err != nil || f.pages.Len() != 1 {
			t.Errorf("after the refusals: %d pages, audit %v", f.pages.Len(), err)
		}
		// A mapping larger than the file vouches for its own pages.
		big := rt.Mmap(p, f, 2*mib)
		big.Load(p, size-8, buf)
		rt.move(&Page{file: f, idx: 511}, detutil.PgClean)
		if got := panicOf(func() { rt.move(&Page{file: f, idx: 512}, detutil.PgFilling) }); !strings.Contains(got, "beyond the 512 pages reserved") {
			t.Errorf("insert past the larger mapping: %q", got)
		}
	})
	e.Run()
}
