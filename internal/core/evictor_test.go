package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"aquila/internal/host"
	"aquila/internal/obs"
	"aquila/internal/sim/device"
	"aquila/internal/sim/engine"
	"aquila/internal/spdk"
)

// asyncParams returns the default params with the background evictor on,
// optionally mutated.
func asyncParams(mut func(*Params)) *Params {
	ps := DefaultParams()
	ps.AsyncEvict = true
	if mut != nil {
		mut(&ps)
	}
	return &ps
}

// asyncDaxWorld is daxWorld with explicit params.
func asyncDaxWorld(cacheBytes uint64, cpus int, ps *Params) (*engine.Engine, *host.OS, func(p *engine.Proc) *Runtime) {
	e := engine.New(engine.Config{NumCPUs: cpus, Seed: 1})
	disk := host.NewPMemDisk("pmem0", device.NewPMem(512*mib, device.DefaultPMemConfig()))
	os := host.NewOS(e, disk, 64*mib)
	return e, os, func(p *engine.Proc) *Runtime {
		return NewRuntime(p, os, NewDAXEngine(os), Config{CacheBytes: cacheBytes, Params: ps})
	}
}

func asyncSpdkWorld(cacheBytes uint64, cpus int, ps *Params) (*engine.Engine, func(p *engine.Proc) *Runtime) {
	e := engine.New(engine.Config{NumCPUs: cpus, Seed: 1})
	hostDisk := host.NewPMemDisk("hostdisk", device.NewPMem(16*mib, device.DefaultPMemConfig()))
	os := host.NewOS(e, hostDisk, 16*mib)
	nvme := device.NewNVMe(512*mib, device.DefaultNVMeConfig())
	fm := spdk.NewFileMap(spdk.NewBlobstore(spdk.NewDriver(nvme)))
	return e, func(p *engine.Proc) *Runtime {
		return NewRuntime(p, os, NewSPDKEngine(fm), Config{CacheBytes: cacheBytes, Params: ps})
	}
}

// pressureWorkload faults an out-of-core mixed read/write pattern through the
// runtime (file = 4x cache).
func pressureWorkload(p *engine.Proc, rt *Runtime, fileBytes uint64) {
	f := rt.CreateFile(p, "pressure", fileBytes)
	m := rt.Mmap(p, f, fileBytes)
	buf := make([]byte, 8)
	for off := uint64(0); off+8 < fileBytes; off += pageSize {
		if (off/pageSize)%4 == 0 {
			m.Store(p, off, buf)
		} else {
			m.Load(p, off, buf)
		}
	}
}

func TestBgEvictorWatermarkHysteresis(t *testing.T) {
	cache := uint64(4 * mib) // 1024 pages: low=64, high=192 derived
	e, _, boot := asyncDaxWorld(cache, 4, asyncParams(nil))
	var rt *Runtime
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt = boot(p)
		if rt.LowWater() <= 0 || rt.HighWater() <= rt.LowWater() {
			t.Errorf("bad watermarks: low=%d high=%d", rt.LowWater(), rt.HighWater())
		}
		pressureWorkload(p, rt, 16*mib)
	})
	e.Run()
	if rt.Stats.BgReclaimPages == 0 {
		t.Error("background evictor reclaimed nothing under pressure")
	}
	// Hysteresis: daemons are asleep again, and they refilled past the low
	// watermark before sleeping (they only stop at the high watermark or
	// when every candidate is busy, which cannot happen post-workload).
	for i, ev := range rt.bg {
		if !ev.idle {
			t.Errorf("evictor %d still awake after quiescence", i)
		}
	}
	if rt.FreePages() < rt.LowWater() {
		t.Errorf("free %d below low watermark %d after evictor slept", rt.FreePages(), rt.LowWater())
	}
	if rt.Break.Get("bg_reclaim") == 0 {
		t.Error("no bg_reclaim cycles in breakdown")
	}
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBgEvictorStaysAsleepWithoutPressure(t *testing.T) {
	// Working set fits: the freelist never crosses the low watermark, so the
	// daemons must never wake.
	e, _, boot := asyncDaxWorld(32*mib, 4, asyncParams(nil))
	var rt *Runtime
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt = boot(p)
		pressureWorkload(p, rt, 4*mib)
	})
	e.Run()
	if rt.Stats.BgReclaimPages != 0 {
		t.Errorf("evictor reclaimed %d pages with no memory pressure", rt.Stats.BgReclaimPages)
	}
	for i, ev := range rt.bg {
		if !ev.idle || ev.wake.Pending() {
			t.Errorf("evictor %d was woken without pressure", i)
		}
	}
}

func TestBgEvictorOverlappedWritebackPersists(t *testing.T) {
	// Dirty pages evicted by the daemons go through SubmitWriteRun; their
	// content must survive the round trip exactly as with sync writeback.
	run := func(t *testing.T, e *engine.Engine, boot func(p *engine.Proc) *Runtime) {
		var rt *Runtime
		e.Spawn(0, "t", func(p *engine.Proc) {
			rt = boot(p)
			const fileBytes = 16 * mib
			f := rt.CreateFile(p, "data", fileBytes)
			m := rt.Mmap(p, f, fileBytes)
			mark := make([]byte, 8)
			for off := uint64(0); off+8 < fileBytes; off += pageSize {
				idx := off / pageSize
				for i := range mark {
					mark[i] = byte(idx >> (8 * i))
				}
				m.Store(p, off, mark)
			}
			got := make([]byte, 8)
			for off := uint64(0); off+8 < fileBytes; off += pageSize {
				idx := off / pageSize
				for i := range mark {
					mark[i] = byte(idx >> (8 * i))
				}
				m.Load(p, off, got)
				if !bytes.Equal(got, mark) {
					t.Fatalf("page %d corrupted after bg writeback: %x != %x", idx, got, mark)
				}
			}
		})
		e.Run()
		if rt.Stats.BgReclaimPages == 0 {
			t.Error("workload never exercised the background evictor")
		}
		if err := rt.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("dax", func(t *testing.T) {
		e, _, boot := asyncDaxWorld(4*mib, 4, asyncParams(nil))
		run(t, e, boot)
	})
	t.Run("spdk", func(t *testing.T) {
		e, boot := asyncSpdkWorld(4*mib, 4, asyncParams(nil))
		run(t, e, boot)
	})
}

func TestAsyncEvictDirectReclaimFallback(t *testing.T) {
	// Degenerate watermarks (wake only at empty): allocations find the
	// freelist dry, throttle-wait through the stall budget, and must then
	// fall through to synchronous direct reclaim — visible in the stats and
	// the breakdown.
	ps := asyncParams(func(ps *Params) {
		ps.LowWatermark = 1
		ps.HighWatermark = 2
	})
	e, _, boot := asyncDaxWorld(4*mib, 4, ps)
	var rt *Runtime
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt = boot(p)
		pressureWorkload(p, rt, 16*mib)
	})
	e.Run()
	if rt.Stats.DirectReclaimPages == 0 {
		t.Error("no direct reclaim despite a dry freelist")
	}
	if rt.Stats.EvictStalls == 0 {
		t.Error("no stalls counted on the throttled path")
	}
	if rt.Break.Get("direct_reclaim") == 0 {
		t.Error("no direct_reclaim cycles in breakdown")
	}
	if got := rt.Reg.Counter("aquila_evict_stall").Value(); got != rt.Stats.EvictStalls {
		t.Errorf("aquila_evict_stall metric %d != stats %d", got, rt.Stats.EvictStalls)
	}
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionStalledErrorInsteadOfPanic(t *testing.T) {
	// With the freelist drained and nothing evictable, an allocation must
	// burn its yield + throttled-wait budget and then return
	// ErrEvictionStalled — the graceful replacement of the old hard panic.
	ps := DefaultParams()
	e, _, boot := asyncDaxWorld(1*mib, 2, &ps)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		drained := rt.fl.drain(rt.fl.Free())
		if rt.fl.Free() != 0 {
			t.Fatalf("drain left %d free", rt.fl.Free())
		}
		stallsBefore := rt.Stats.EvictStalls
		_, err := rt.allocFrame(p)
		if !errors.Is(err, ErrEvictionStalled) {
			t.Fatalf("allocFrame error = %v, want ErrEvictionStalled", err)
		}
		if rt.Stats.EvictStalls <= stallsBefore {
			t.Error("stall counter did not advance")
		}
		// Mappings surface the same condition as a SIGBUS-style panic.
		f := rt.CreateFile(p, "doomed", 1*mib)
		m := rt.Mmap(p, f, 1*mib)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("Load with starved cache did not fault")
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "SIGBUS") {
					t.Errorf("panic %q does not look like SIGBUS", msg)
				}
			}()
			m.Load(p, 0, make([]byte, 8))
		}()
		// Restore the frames so the world shuts down with sane invariants.
		rt.fl.fill(drained)
	})
	e.Run()
}

func TestStalledAllocationStealsStrandedFrames(t *testing.T) {
	// Frames parked on another core's private queue are invisible to pop;
	// a starving allocation must steal one rather than fail while Free()>0.
	ps := DefaultParams()
	e, _, boot := asyncDaxWorld(1*mib, 2, &ps)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		// Strand every frame on CPU 1's private queue.
		frames := rt.fl.drain(rt.fl.Free())
		rt.fl.cores[1] = append(rt.fl.cores[1], frames...)
		rt.fl.free += len(frames)
		fr, err := rt.allocFrame(p) // runs on CPU 0
		if err != nil || fr == nil {
			t.Fatalf("allocFrame = (%v, %v), want stolen frame", fr, err)
		}
		if rt.fl.Free() != rt.fl.audit() {
			t.Errorf("free %d != audit %d after steal", rt.fl.Free(), rt.fl.audit())
		}
	})
	e.Run()
}

func TestBgEvictorNamedTraceThread(t *testing.T) {
	tr := obs.NewTracer()
	e := engine.New(engine.Config{NumCPUs: 4, Seed: 1, Spans: tr, TraceLabel: "async"})
	disk := host.NewPMemDisk("pmem0", device.NewPMem(512*mib, device.DefaultPMemConfig()))
	os := host.NewOS(e, disk, 64*mib)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := NewRuntime(p, os, NewDAXEngine(os), Config{CacheBytes: 4 * mib, Params: asyncParams(nil)})
		pressureWorkload(p, rt, 16*mib)
	})
	e.Run()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// One named daemon thread per NUMA node (engine default: 2 nodes).
	for n := 0; n < e.NumNUMANodes(); n++ {
		if want := fmt.Sprintf("bg-evict.%d", n); !strings.Contains(out, want) {
			t.Errorf("chrome trace missing daemon thread %q", want)
		}
	}
	if !strings.Contains(out, "aq.bg_evict") {
		t.Error("chrome trace missing aq.bg_evict spans")
	}
	if !strings.Contains(out, "aq.bg_writeback") {
		t.Error("chrome trace missing aq.bg_writeback spans")
	}
}
