package core

import (
	"bytes"
	"testing"

	"aquila/internal/host"
	"aquila/internal/iface"
	"aquila/internal/sim/device"
	"aquila/internal/sim/engine"
	"aquila/internal/sim/pagetable"
	"aquila/internal/spdk"
)

const mib = 1 << 20

// daxWorld builds an Aquila runtime over a pmem host with the DAX engine.
func daxWorld(cacheBytes uint64, cpus int) (*engine.Engine, *host.OS, func(p *engine.Proc) *Runtime) {
	e := engine.New(engine.Config{NumCPUs: cpus, Seed: 1})
	disk := host.NewPMemDisk("pmem0", device.NewPMem(512*mib, device.DefaultPMemConfig()))
	os := host.NewOS(e, disk, 64*mib)
	return e, os, func(p *engine.Proc) *Runtime {
		return NewRuntime(p, os, NewDAXEngine(os), Config{CacheBytes: cacheBytes})
	}
}

// spdkWorld builds an Aquila runtime over SPDK-NVMe.
func spdkWorld(cacheBytes uint64, cpus int) (*engine.Engine, func(p *engine.Proc) *Runtime) {
	e := engine.New(engine.Config{NumCPUs: cpus, Seed: 1})
	// Host exists only for hypervisor services; its own disk is unused.
	hostDisk := host.NewPMemDisk("hostdisk", device.NewPMem(16*mib, device.DefaultPMemConfig()))
	os := host.NewOS(e, hostDisk, 16*mib)
	nvme := device.NewNVMe(512*mib, device.DefaultNVMeConfig())
	fm := spdk.NewFileMap(spdk.NewBlobstore(spdk.NewDriver(nvme)))
	return e, func(p *engine.Proc) *Runtime {
		return NewRuntime(p, os, NewSPDKEngine(fm), Config{CacheBytes: cacheBytes})
	}
}

func TestAquilaMmapLoadStoreMsyncDAX(t *testing.T) {
	e, os, boot := daxWorld(16*mib, 4)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		f := rt.CreateFile(p, "data", 4*mib)
		m := rt.Mmap(p, f, 4*mib)
		payload := []byte("aquila mapped data across pages")
		m.Store(p, 4090, payload)
		got := make([]byte, len(payload))
		m.Load(p, 4090, got)
		if !bytes.Equal(got, payload) {
			t.Error("round trip mismatch")
		}
		if rt.DirtyPages() == 0 {
			t.Error("store left no dirty pages")
		}
		m.Msync(p)
		if rt.DirtyPages() != 0 {
			t.Errorf("dirty pages after msync: %d", rt.DirtyPages())
		}
		// Verify persistence through the host's view of the device.
		direct := os.OpenFile(os.FS.Open(p, "data"), true)
		got2 := make([]byte, len(payload))
		direct.Pread(p, got2, 4090)
		if !bytes.Equal(got2, payload) {
			t.Error("msync did not persist to device")
		}
	})
	e.Run()
}

func TestAquilaSPDKRoundTrip(t *testing.T) {
	e, boot := spdkWorld(16*mib, 4)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		f := rt.CreateFile(p, "blobfile", 8*mib)
		m := rt.Mmap(p, f, 8*mib)
		payload := []byte("over spdk blobstore")
		m.Store(p, 2*mib-4, payload) // crosses a cluster boundary region
		m.Msync(p)
		got := make([]byte, len(payload))
		m.Load(p, 2*mib-4, got)
		if !bytes.Equal(got, payload) {
			t.Error("spdk round trip mismatch")
		}
	})
	e.Run()
}

func TestAquilaDirtyTrackingViaWPFault(t *testing.T) {
	e, _, boot := daxWorld(16*mib, 4)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		f := rt.CreateFile(p, "data", 1*mib)
		m := rt.Mmap(p, f, 1*mib)
		// Read fault: page mapped read-only, clean.
		m.Load(p, 0, make([]byte, 8))
		if rt.DirtyPages() != 0 {
			t.Fatalf("dirty after read: %d", rt.DirtyPages())
		}
		wpBefore := rt.Stats.WPFaults
		// First store: write-protect fault marks dirty.
		m.Store(p, 0, []byte{1})
		if rt.Stats.WPFaults != wpBefore+1 {
			t.Errorf("wp faults = %d, want %d", rt.Stats.WPFaults, wpBefore+1)
		}
		if rt.DirtyPages() != 1 {
			t.Errorf("dirty = %d, want 1", rt.DirtyPages())
		}
		// Second store: no fault at all.
		wp, major := rt.Stats.WPFaults, rt.Stats.MajorFaults
		m.Store(p, 64, []byte{2})
		if rt.Stats.WPFaults != wp || rt.Stats.MajorFaults != major {
			t.Error("second store faulted")
		}
	})
	e.Run()
}

func TestAquilaNoReadaheadByDefault(t *testing.T) {
	e, _, boot := daxWorld(16*mib, 4)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		f := rt.CreateFile(p, "data", 4*mib)
		m := rt.Mmap(p, f, 4*mib)
		m.Load(p, 0, make([]byte, 8))
		if rt.ResidentPages() != 1 {
			t.Errorf("resident = %d, want 1 (no default readahead)", rt.ResidentPages())
		}
		// With madvise(SEQUENTIAL) the window opens.
		m.Advise(p, iface.AdviceSequential)
		m.Load(p, 1*mib, make([]byte, 8))
		if rt.ResidentPages() != 1+readAheadPages {
			t.Errorf("resident = %d, want %d after sequential advise",
				rt.ResidentPages(), 1+readAheadPages)
		}
		if rt.Stats.ReadaheadPages == 0 {
			t.Error("no readahead pages counted")
		}
	})
	e.Run()
}

func TestAquilaEvictionUnderPressure(t *testing.T) {
	cache := uint64(2 * mib) // 512 pages
	e, _, boot := daxWorld(cache, 4)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		f := rt.CreateFile(p, "data", 16*mib) // 8x cache
		m := rt.Mmap(p, f, 16*mib)
		buf := make([]byte, 8)
		for off := uint64(0); off+8 < 16*mib; off += pageSize {
			m.Load(p, off, buf)
		}
		if got := rt.ResidentPages(); got > int(cache/pageSize) {
			t.Errorf("resident %d exceeds cache %d", got, cache/pageSize)
		}
		if rt.Stats.Evictions == 0 {
			t.Error("no evictions")
		}
		// Batched shootdowns: far fewer batches than evictions.
		if rt.Stats.ShootdownBatches*uint64(rt.P.EvictBatch) < rt.Stats.Evictions {
			t.Errorf("shootdown batches %d too few for %d evictions",
				rt.Stats.ShootdownBatches, rt.Stats.Evictions)
		}
	})
	e.Run()
}

func TestAquilaEvictionWritesBackDirtySorted(t *testing.T) {
	cache := uint64(2 * mib)
	e, os, boot := daxWorld(cache, 4)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		f := rt.CreateFile(p, "data", 16*mib)
		m := rt.Mmap(p, f, 16*mib)
		m.Store(p, 0, []byte("evict-me-dirty"))
		buf := make([]byte, 8)
		for off := uint64(pageSize); off+8 < 16*mib; off += pageSize {
			m.Load(p, off, buf)
		}
		if rt.Stats.WrittenBack == 0 {
			t.Fatal("no writeback")
		}
		direct := os.OpenFile(os.FS.Open(p, "data"), true)
		got := make([]byte, 14)
		direct.Pread(p, got, 0)
		if !bytes.Equal(got, []byte("evict-me-dirty")) {
			t.Errorf("dirty eviction lost data: %q", got)
		}
		// The page comes back correct after re-fault.
		got2 := make([]byte, 14)
		m.Load(p, 0, got2)
		if !bytes.Equal(got2, []byte("evict-me-dirty")) {
			t.Errorf("re-fault read %q", got2)
		}
	})
	e.Run()
}

func TestAquilaCacheHitFaultCost(t *testing.T) {
	// Fig 8(c): a fault whose page is already cached costs ~2179 cycles.
	e, _, boot := daxWorld(64*mib, 4)
	var perFault uint64
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		f := rt.CreateFile(p, "data", 32*mib)
		m := rt.Mmap(p, f, 32*mib)
		buf := make([]byte, 8)
		for off := uint64(0); off < 32*mib; off += pageSize {
			m.Load(p, off, buf) // warm the cache
		}
		m.Munmap(p)
		m2 := rt.Mmap(p, f, 32*mib)
		start := p.Now()
		const n = 1000
		for i := 0; i < n; i++ {
			m2.Load(p, uint64(i)*pageSize, buf)
		}
		perFault = (p.Now() - start) / n
	})
	e.Run()
	if perFault < 1800 || perFault > 2600 {
		t.Errorf("cache-hit fault = %d cycles, want ~2179 (Fig 8c)", perFault)
	}
}

func TestAquilaFaultCheaperThanLinux(t *testing.T) {
	// §6.4: the ring-0 exception (552) replaces the ring-3 trap (1287).
	e, _, boot := daxWorld(16*mib, 4)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		if got := rt.Break.Total(); got != 0 {
			_ = got
		}
		f := rt.CreateFile(p, "data", 1*mib)
		m := rt.Mmap(p, f, 1*mib)
		m.Load(p, 0, make([]byte, 8))
		exc := rt.Break.Get("exception")
		if exc == 0 || exc > 1287 {
			t.Errorf("exception cycles = %d, must be below the 1287-cycle trap", exc)
		}
	})
	e.Run()
}

func TestAquilaResizeCache(t *testing.T) {
	e, os, boot := daxWorld(4*mib, 4)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := NewRuntime(p, os, NewDAXEngine(os), Config{CacheBytes: 4 * mib, MaxCacheBytes: 16 * mib})
		if rt.CacheLimitPages() != 4*mib/pageSize {
			t.Fatalf("initial limit = %d", rt.CacheLimitPages())
		}
		granted := os.HV.GrantedBytes
		rt.ResizeCache(p, 8*mib)
		if rt.CacheLimitPages() != 8*mib/pageSize {
			t.Errorf("limit after grow = %d", rt.CacheLimitPages())
		}
		if os.HV.GrantedBytes <= granted {
			t.Error("grow did not grant memory")
		}
		// Fill, then shrink: eviction must free pages down to the new size.
		f := rt.CreateFile(p, "data", 8*mib)
		m := rt.Mmap(p, f, 8*mib)
		buf := make([]byte, 8)
		for off := uint64(0); off+8 < 8*mib; off += pageSize {
			m.Load(p, off, buf)
		}
		rt.ResizeCache(p, 2*mib)
		if rt.CacheLimitPages() != 2*mib/pageSize {
			t.Errorf("limit after shrink = %d", rt.CacheLimitPages())
		}
		if got := rt.ResidentPages(); got > int(rt.CacheLimitPages()) {
			t.Errorf("resident %d exceeds shrunk limit %d", got, rt.CacheLimitPages())
		}
	})
	e.Run()
	_ = boot
}

func TestAquilaShootdownDeliversIPIs(t *testing.T) {
	cache := uint64(1 * mib)
	e, os, boot := daxWorld(cache, 4)
	var rt *Runtime
	var m *AqMapping
	e.Spawn(0, "init", func(p *engine.Proc) {
		rt = boot(p)
		f := rt.CreateFile(p, "data", 8*mib)
		m = rt.Mmap(p, f, 8*mib)
	})
	e.Run()
	// A second thread on CPU 1 joins the address space (enters the
	// mm_cpumask), so CPU 0's later shootdowns must IPI it.
	e.Spawn(1, "toucher", func(p *engine.Proc) {
		m.Load(p, 0, make([]byte, 8))
	})
	e.Run()
	e.Spawn(0, "evictor", func(p *engine.Proc) {
		buf := make([]byte, 8)
		for off := uint64(pageSize); off+8 < 8*mib; off += pageSize {
			m.Load(p, off, buf)
		}
		if rt.Stats.ShootdownBatches == 0 {
			t.Error("no shootdowns")
		}
		if os.HV.IPIBatches != rt.Stats.ShootdownBatches {
			t.Errorf("hv batches %d != rt batches %d", os.HV.IPIBatches, rt.Stats.ShootdownBatches)
		}
	})
	e.Run()
	if e.IRQCount(1) == 0 {
		t.Error("no IPIs delivered to CPU 1 (in mm_cpumask)")
	}
	// CPUs 2/3 never touched the mapping: mm_cpumask spares them.
	if e.IRQCount(2) != 0 || e.IRQCount(3) != 0 {
		t.Errorf("IPIs sent to CPUs outside mm_cpumask: %d %d", e.IRQCount(2), e.IRQCount(3))
	}
}

func TestAquilaConcurrentSharedFileFaults(t *testing.T) {
	e, _, boot := daxWorld(32*mib, 8)
	var rt *Runtime
	var f *fileState
	e.Spawn(0, "init", func(p *engine.Proc) {
		rt = boot(p)
		f = rt.CreateFile(p, "shared", 16*mib)
	})
	e.Run()
	for i := 0; i < 8; i++ {
		i := i
		e.Spawn(i, "t", func(p *engine.Proc) {
			// Per-thread mappings of the same file: pages are shared in
			// the cache but each mapping has its own PTEs, so
			// cross-thread sharing shows up as minor faults.
			m := rt.Mmap(p, f, 16*mib)
			buf := make([]byte, 8)
			for j := 0; j < 500; j++ {
				// All threads touch the same pages: the first
				// toucher major-faults, the rest minor-fault.
				m.Load(p, uint64(j)*pageSize, buf)
			}
			_ = i
		})
	}
	e.Run()
	// Every page was read by up to 8 threads but faulted in once: total
	// major faults bounded by distinct pages touched.
	if rt.Stats.MajorFaults > 4096 {
		t.Errorf("major faults = %d, want <= 4096 (one per page)", rt.Stats.MajorFaults)
	}
	if rt.Stats.MinorFaults == 0 {
		t.Error("expected minor faults from cross-thread sharing")
	}
}

func TestAquilaFileDirectIO(t *testing.T) {
	e, _, boot := daxWorld(16*mib, 4)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		ns := &Namespace{RT: rt}
		f := ns.Create(p, "direct", 1*mib)
		data := []byte("direct write through engine")
		f.Pwrite(p, data, 5000)
		got := make([]byte, len(data))
		f.Pread(p, got, 5000)
		if !bytes.Equal(got, data) {
			t.Error("direct file round trip mismatch")
		}
	})
	e.Run()
}

func TestAquilaCustomVictimPolicy(t *testing.T) {
	// Install a FIFO-of-insertion policy via the customization hook and
	// check it is exercised.
	cache := uint64(1 * mib)
	e, _, boot := daxWorld(cache, 4)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		calls := 0
		def := rt.Victims
		rt.Victims = func(p *engine.Proc, n int) []*Page {
			calls++
			return def(p, n)
		}
		f := rt.CreateFile(p, "data", 4*mib)
		m := rt.Mmap(p, f, 4*mib)
		buf := make([]byte, 8)
		for off := uint64(0); off+8 < 4*mib; off += pageSize {
			m.Load(p, off, buf)
		}
		if calls == 0 {
			t.Error("custom victim policy never called")
		}
	})
	e.Run()
}

func TestAquilaConcurrentEvictionConservesFrames(t *testing.T) {
	// Regression: the freelist refill used to yield (charge cycles)
	// between reading and mutating a NUMA queue, letting two cores take
	// the same frames. Run a multithreaded out-of-memory fault storm and
	// check frame conservation.
	cache := uint64(4 * mib)
	e, _, boot := daxWorld(cache, 8)
	var rt *Runtime
	var f *fileState
	e.Spawn(0, "init", func(p *engine.Proc) {
		rt = boot(p)
		f = rt.CreateFile(p, "data", 32*mib)
	})
	e.Run()
	for i := 0; i < 8; i++ {
		i := i
		e.Spawn(i, "t", func(p *engine.Proc) {
			m := rt.Mmap(p, f, 32*mib)
			buf := make([]byte, 8)
			for j := 0; j < 1500; j++ {
				off := (uint64(j*13+i*7) * pageSize * 3) % (32*mib - 8)
				m.Load(p, off/pageSize*pageSize, buf)
			}
		})
	}
	e.Run()
	limit := int(rt.CacheLimitPages())
	if rt.FreePages() < 0 {
		t.Fatalf("freelist negative: %d", rt.FreePages())
	}
	if got := rt.ResidentPages() + rt.FreePages(); got > limit {
		t.Errorf("resident(%d) + free(%d) = %d exceeds limit %d",
			rt.ResidentPages(), rt.FreePages(), got, limit)
	}
	if rt.ResidentPages() > limit {
		t.Errorf("resident %d exceeds limit %d", rt.ResidentPages(), limit)
	}
}

func TestAquilaMprotect(t *testing.T) {
	e, _, boot := daxWorld(16*mib, 4)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		f := rt.CreateFile(p, "data", 1*mib)
		m := rt.Mmap(p, f, 1*mib)
		m.Store(p, 0, []byte("writable"))
		m.Mprotect(p, true)
		// Reads still work.
		got := make([]byte, 8)
		m.Load(p, 0, got)
		if !bytes.Equal(got, []byte("writable")) {
			t.Errorf("read after mprotect: %q", got)
		}
		// Stores fault (SIGSEGV).
		func() {
			defer func() {
				if recover() == nil {
					t.Error("store to read-only mapping did not fault")
				}
			}()
			m.Store(p, 0, []byte{1})
		}()
		// Re-enable writes: lazy upgrade via wp fault.
		m.Mprotect(p, false)
		m.Store(p, 0, []byte("again"))
		m.Load(p, 0, got[:5])
		if !bytes.Equal(got[:5], []byte("again")) {
			t.Errorf("store after re-protect: %q", got[:5])
		}
	})
	e.Run()
}

func TestAquilaMremapGrowAndShrink(t *testing.T) {
	e, _, boot := daxWorld(16*mib, 4)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		f := rt.CreateFile(p, "data", 4*mib)
		m := rt.Mmap(p, f, 1*mib)
		m.Store(p, 123, []byte("survives remap"))
		// Grow: relocation must preserve live translations and data.
		m.Mremap(p, 3*mib)
		if m.Size() != 3*mib {
			t.Fatalf("size after grow = %d", m.Size())
		}
		got := make([]byte, 14)
		m.Load(p, 123, got)
		if !bytes.Equal(got, []byte("survives remap")) {
			t.Errorf("data after grow: %q", got)
		}
		// The grown range is usable.
		m.Store(p, 2*mib, []byte("tail"))
		// Shrink below the tail: tail unmapped, head intact.
		m.Mremap(p, 1*mib)
		if m.Size() != 1*mib {
			t.Fatalf("size after shrink = %d", m.Size())
		}
		m.Load(p, 123, got)
		if !bytes.Equal(got, []byte("survives remap")) {
			t.Errorf("data after shrink: %q", got)
		}
		// Access past the shrunk size panics (unmapped).
		func() {
			defer func() {
				if recover() == nil {
					t.Error("access past shrunk mapping did not fault")
				}
			}()
			m.Load(p, 2*mib, got)
		}()
	})
	e.Run()
}

func TestAquilaMsyncRange(t *testing.T) {
	e, os, boot := daxWorld(16*mib, 4)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		f := rt.CreateFile(p, "data", 1*mib)
		m := rt.Mmap(p, f, 1*mib)
		m.Store(p, 0, []byte("lo"))
		m.Store(p, 512<<10, []byte("hi"))
		if rt.DirtyPages() != 2 {
			t.Fatalf("dirty = %d", rt.DirtyPages())
		}
		m.MsyncRange(p, 0, 4096)
		if rt.DirtyPages() != 1 {
			t.Fatalf("dirty after ranged msync = %d, want 1", rt.DirtyPages())
		}
		direct := os.OpenFile(os.FS.Open(p, "data"), true)
		got := make([]byte, 2)
		direct.Pread(p, got, 0)
		if !bytes.Equal(got, []byte("lo")) {
			t.Error("ranged msync did not persist")
		}
	})
	e.Run()
}

func TestDirectNVMMapping(t *testing.T) {
	// DAX world over Optane-PMM-class pmem.
	e := engine.New(engine.Config{NumCPUs: 4, Seed: 1})
	disk := host.NewPMemDisk("pmm0", device.NewPMem(512*mib, device.OptanePMMConfig()))
	os := host.NewOS(e, disk, 64*mib)
	var rt *Runtime
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt = NewRuntime(p, os, NewDAXEngine(os), Config{CacheBytes: 8 * mib})
		f := rt.CreateFile(p, "nvm", 8*mib)
		dm := rt.MmapDirectNVM(p, f, 8*mib)
		payload := []byte("straight to media")
		dm.Store(p, 3*mib, payload)
		got := make([]byte, len(payload))
		dm.Load(p, 3*mib, got)
		if !bytes.Equal(got, payload) {
			t.Errorf("direct round trip: %q", got)
		}
		// No faults, no cache pages: everything went to media.
		if rt.Stats.MajorFaults != 0 || rt.ResidentPages() != 0 {
			t.Errorf("direct mapping used the cache: faults=%d resident=%d",
				rt.Stats.MajorFaults, rt.ResidentPages())
		}
		if dm.MediaReads == 0 || dm.MediaWrites == 0 {
			t.Error("media access counters empty")
		}
		// The mapping uses 2 MB pages.
		if entry, ok := rt.PT.Lookup(dm.base); !ok || entry.PageSize != pagetable.Size2M {
			t.Errorf("direct mapping not 2MB-paged: %+v %v", entry, ok)
		}
		// Tradeoff check: repeated reads of one hot page are cheaper
		// through the DRAM cache than direct (media on every access).
		cm := rt.Mmap(p, f, 8*mib)
		buf := make([]byte, 4096)
		cm.Load(p, 0, buf) // fault once
		t0 := p.Now()
		for i := 0; i < 50; i++ {
			cm.Load(p, 0, buf)
		}
		cached := p.Now() - t0
		t0 = p.Now()
		for i := 0; i < 50; i++ {
			dm.Load(p, 0, buf)
		}
		direct := p.Now() - t0
		if cached >= direct {
			t.Errorf("hot reuse: cached (%d) should beat direct NVM (%d)", cached, direct)
		}
	})
	e.Run()
	// The stores went straight to media, each with its durability point.
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableFileExtendingDirectWrite: a DAX Pwrite past the end of its file
// grows the file between staging the bytes and persisting them. The write
// still gets its durability point, so the audit finds no block owed.
func TestDurableFileExtendingDirectWrite(t *testing.T) {
	e, _, boot := daxWorld(8*mib, 1)
	var rt *Runtime
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt = boot(p)
		f := (&Namespace{RT: rt}).Create(p, "log", 1000)
		payload := []byte("appended past the end")
		if err := f.Pwrite(p, payload, 2000); err != nil {
			t.Fatal(err)
		}
		if got, want := f.Size(), 2000+uint64(len(payload)); got != want {
			t.Errorf("size %d after the extending write, want %d", got, want)
		}
	})
	e.Run()
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteFileRecyclesCache(t *testing.T) {
	e, _, boot := daxWorld(8*mib, 4)
	e.Spawn(0, "t", func(p *engine.Proc) {
		rt := boot(p)
		f := rt.CreateFile(p, "temp", 4*mib)
		m := rt.Mmap(p, f, 4*mib)
		buf := make([]byte, 8)
		for off := uint64(0); off < 4*mib; off += pageSize {
			m.Load(p, off, buf)
		}
		resident := rt.ResidentPages()
		if resident == 0 {
			t.Fatal("nothing cached")
		}
		freeBefore := rt.FreePages()
		m.Munmap(p)
		rt.DeleteFile(p, "temp")
		if rt.ResidentPages() != 0 {
			t.Errorf("pages remain after delete: %d", rt.ResidentPages())
		}
		if rt.FreePages() != freeBefore+resident {
			t.Errorf("frames not recycled: free %d, want %d", rt.FreePages(), freeBefore+resident)
		}
		if _, ok := rt.files["temp"]; ok {
			t.Error("file still exists")
		}
		if err := rt.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
	e.Run()
}

// DeleteFile waits out busy pages until one pass over them finds none: each
// wait yields, and an eviction may claim a page the pass already went by.
// Here one eviction holds page 1 claimed while the delete waits on it, and a
// second claims page 0 — idle when the pass went by — before the first lets
// go. A delete that dropped its pages after one pass would recycle page 0's
// frame under the eviction that owns it.
func TestDeleteWaitsOutPagesClaimedWhileItWaits(t *testing.T) {
	const hold = 1_000_000 // cycles an eviction keeps its victim claimed
	e, _, boot := daxWorld(8*mib, 3)
	var rt *Runtime
	var f *fileState
	e.Spawn(0, "init", func(p *engine.Proc) {
		rt = boot(p)
		f = rt.CreateFile(p, "doomed", 2*pageSize)
		m := rt.Mmap(p, f, 2*pageSize)
		buf := make([]byte, 8)
		m.Load(p, 0, buf)
		m.Load(p, pageSize, buf)
		m.Munmap(p)
	})
	e.Run()
	a, b := f.pages.Get(0), f.pages.Get(1)
	free := rt.FreePages()
	deleting, raced, claims := false, false, 0
	rt.Victims = func(p *engine.Proc, n int) []*Page {
		pg := b
		if claims++; claims == 2 {
			pg, raced = a, deleting && b.busy()
		}
		rt.lru.forget(pg)
		rt.claim(pg)
		p.SleepIO(hold)
		return append(rt.pageBufs.Borrow(), pg)
	}
	evict := func(p *engine.Proc) {
		if err := rt.evict(p); err != nil {
			t.Error(err)
		}
	}
	e.Spawn(0, "evict-1", evict)
	e.Spawn(1, "delete", func(p *engine.Proc) {
		p.SleepIO(hold / 4)
		deleting = true
		rt.DeleteFile(p, "doomed")
		deleting = false
	})
	e.Spawn(2, "evict-0", func(p *engine.Proc) {
		p.SleepIO(hold / 2)
		evict(p)
	})
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("delete racing two evictions: %v", r)
			}
		}()
		e.Run()
	}()
	if !raced {
		t.Fatal("not the race: page 0 was not claimed while the delete waited on page 1")
	}
	if got := rt.FreePages(); got != free+2 || rt.ResidentPages() != 0 {
		t.Errorf("after the delete: %d free (want %d), %d resident (want 0)", got, free+2, rt.ResidentPages())
	}
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Regression: majorFault re-probed the hash after its yielding cache-insert
// charge only with huge pages on, so two threads major-faulting one page each
// published a Page. The loser's Page dropped out of the hash with its frame
// still mapped, and stores through that mapping were lost at eviction. Threads
// walk the same pages in lockstep over a cache a quarter of the file, so
// same-page fault races and evictions are both constant.
func TestSharedPageMajorFaultRaceLosesNoStores(t *testing.T) {
	const threads, filePages = 8, 1024
	e, _, boot := daxWorld(1*mib, threads)
	var rt *Runtime
	var m *AqMapping
	e.Spawn(0, "init", func(p *engine.Proc) {
		rt = boot(p)
		m = rt.Mmap(p, rt.CreateFile(p, "shared", filePages*pageSize), filePages*pageSize)
	})
	e.Run()
	slot := func(w int, idx uint64) uint64 { return idx*pageSize + uint64(w)*64 }
	for w := 0; w < threads; w++ {
		w := w
		e.Spawn(w, "t", func(p *engine.Proc) {
			mark := make([]byte, 8)
			for idx := uint64(0); idx < filePages; idx++ {
				pageMark(mark, idx<<8|uint64(w)+1)
				m.Store(p, slot(w, idx), mark)
			}
		})
	}
	e.Run()
	if rt.Stats.Evictions == 0 {
		t.Fatal("workload did not evict")
	}
	e.Spawn(0, "verify", func(p *engine.Proc) {
		if err := m.Msync(p); err != nil {
			t.Fatalf("msync: %v", err)
		}
		f := &AqFile{rt: rt, f: rt.files["shared"]}
		got, want := make([]byte, 8), make([]byte, 8)
		lost := 0
		for w := 0; w < threads; w++ {
			for idx := uint64(0); idx < filePages; idx++ {
				pageMark(want, idx<<8|uint64(w)+1)
				f.Pread(p, got, slot(w, idx)) // direct: bypasses the cache
				if !bytes.Equal(got, want) {
					lost++
				}
			}
		}
		if lost > 0 {
			t.Errorf("%d of %d stores lost", lost, threads*filePages)
		}
	})
	e.Run()
	if err := rt.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}
