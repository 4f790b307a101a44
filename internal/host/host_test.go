package host

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"aquila/internal/cachetest"
	"aquila/internal/detutil"
	"aquila/internal/iface"
	"aquila/internal/sim/device"
	"aquila/internal/sim/engine"
	"aquila/internal/sim/mem"
)

const mib = 1 << 20

func newPMemOS(cacheBytes uint64) (*engine.Engine, *OS) {
	e := engine.New(engine.Config{NumCPUs: 8, Seed: 1})
	disk := NewPMemDisk("pmem0", device.NewPMem(256*mib, device.DefaultPMemConfig()))
	return e, NewOS(e, disk, cacheBytes)
}

func newNVMeOS(cacheBytes uint64) (*engine.Engine, *OS) {
	e := engine.New(engine.Config{NumCPUs: 8, Seed: 1})
	disk := NewNVMeDisk("nvme0", device.NewNVMe(256*mib, device.DefaultNVMeConfig()))
	return e, NewOS(e, disk, cacheBytes)
}

func run1(e *engine.Engine, fn func(p *engine.Proc)) {
	e.Spawn(0, "t0", fn)
	e.Run()
}

func TestFSCreateOpenDelete(t *testing.T) {
	e, os := newPMemOS(16 * mib)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "a", 1*mib)
		if f.Size() != 1*mib || f.cap < 1*mib {
			t.Errorf("size=%d cap=%d", f.Size(), f.cap)
		}
		if os.FS.Open(p, "a") != f {
			t.Error("open returned different file")
		}
		os.FS.Delete(p, "a")
		if _, ok := os.FS.files["a"]; ok {
			t.Error("file still exists after delete")
		}
		// Extent must be reusable.
		g := os.FS.Create(p, "b", 200*mib)
		if g == nil {
			t.Error("could not reuse freed extent")
		}
	})
}

func TestFSExtentCoalescing(t *testing.T) {
	e, os := newPMemOS(16 * mib)
	run1(e, func(p *engine.Proc) {
		os.FS.Create(p, "a", 100*mib)
		os.FS.Create(p, "b", 100*mib)
		os.FS.Delete(p, "a")
		os.FS.Delete(p, "b")
		// After coalescing, a single 256 MB file must fit.
		os.FS.Create(p, "c", 256*mib)
	})
}

func TestDirectIORoundTrip(t *testing.T) {
	e, os := newNVMeOS(16 * mib)
	run1(e, func(p *engine.Proc) {
		f := os.OpenFile(os.FS.Create(p, "f", 1*mib), true)
		data := []byte("direct i/o payload")
		f.Pwrite(p, data, 8192)
		got := make([]byte, len(data))
		f.Pread(p, got, 8192)
		if !bytes.Equal(got, data) {
			t.Errorf("got %q want %q", got, data)
		}
	})
}

func TestDirectIOChargesDeviceLatency(t *testing.T) {
	e, os := newNVMeOS(16 * mib)
	var elapsed uint64
	run1(e, func(p *engine.Proc) {
		f := os.OpenFile(os.FS.Create(p, "f", 1*mib), true)
		start := p.Now()
		f.Pread(p, make([]byte, 4096), 0)
		elapsed = p.Now() - start
	})
	lat := device.DefaultNVMeConfig().ReadLatency
	if elapsed < lat {
		t.Errorf("direct read took %d cycles, want >= device latency %d", elapsed, lat)
	}
	if elapsed > lat+20000 {
		t.Errorf("direct read took %d cycles, software overhead looks too high", elapsed)
	}
}

func TestBufferedReadWrite(t *testing.T) {
	e, os := newPMemOS(16 * mib)
	run1(e, func(p *engine.Proc) {
		f := os.OpenFile(os.FS.Create(p, "f", 1*mib), false)
		data := make([]byte, 10000)
		for i := range data {
			data[i] = byte(i)
		}
		f.Pwrite(p, data, 100)
		got := make([]byte, len(data))
		f.Pread(p, got, 100)
		if !bytes.Equal(got, data) {
			t.Error("buffered round trip mismatch")
		}
		if os.Cache.NrDirty() == 0 {
			t.Error("buffered write left no dirty pages")
		}
		f.Fsync(p)
		if os.Cache.NrDirty() != 0 {
			t.Errorf("dirty pages after fsync: %d", os.Cache.NrDirty())
		}
		// Content must be on the device now.
		direct := os.OpenFile(os.FS.Open(p, "f"), true)
		got2 := make([]byte, len(data))
		direct.Pread(p, got2, 100)
		if !bytes.Equal(got2, data) {
			t.Error("fsync did not persist data")
		}
	})
}

func TestMmapLoadStoreMsync(t *testing.T) {
	e, os := newPMemOS(16 * mib)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "f", 1*mib)
		m := os.Mmap(p, f, 1*mib)
		data := []byte("mapped bytes cross a page boundary ok")
		m.Store(p, 4090, data)
		got := make([]byte, len(data))
		m.Load(p, 4090, got)
		if !bytes.Equal(got, data) {
			t.Error("mapping round trip mismatch")
		}
		m.Msync(p)
		direct := os.OpenFile(f, true)
		got2 := make([]byte, len(data))
		direct.Pread(p, got2, 4090)
		if !bytes.Equal(got2, data) {
			t.Error("msync did not persist")
		}
	})
}

func TestFaultReadAround(t *testing.T) {
	e, os := newPMemOS(64 * mib)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "f", 4*mib)
		m := os.Mmap(p, f, 4*mib)
		m.Load(p, 0, make([]byte, 8))
		// 4.14 read-around: one fault pulls a 32-page window.
		if got := os.Cache.Resident(); got != readAroundPages {
			t.Errorf("resident after one fault = %d, want %d", got, readAroundPages)
		}
		if f.MajorFaults() != 1 {
			t.Errorf("major faults = %d, want 1", f.MajorFaults())
		}
		// Touching a prefetched page is a minor fault, not major.
		m.Load(p, PageSize*5, make([]byte, 8))
		if f.MajorFaults() != 1 {
			t.Errorf("prefetched page took a major fault")
		}
	})
}

func TestMadviseRandomDisablesReadAround(t *testing.T) {
	e, os := newPMemOS(64 * mib)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "f", 4*mib)
		m := os.Mmap(p, f, 4*mib)
		m.Advise(p, iface.AdviceRandom)
		m.Load(p, 0, make([]byte, 8))
		if got := os.Cache.Resident(); got != 1 {
			t.Errorf("resident after MADV_RANDOM fault = %d, want 1", got)
		}
	})
}

func TestMmapMissHeuristicDisablesReadAround(t *testing.T) {
	e, os := newPMemOS(64 * mib)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "f", 64*mib)
		m := os.Mmap(p, f, 64*mib)
		// Fault window-aligned pages so no prefetched page is ever hit:
		// mmap_miss grows past MMAP_LOTSAMISS and read-around stops.
		stride := uint64(readAroundPages) * PageSize
		for i := uint64(0); i <= uint64(mmapLotsamiss); i++ {
			m.Load(p, i*stride%uint64(m.Size()-8), make([]byte, 8))
		}
		before := os.Cache.Resident()
		// This miss (in a never-touched window) must bring exactly one page.
		m.Load(p, 300*stride+8*PageSize, make([]byte, 8))
		if got := os.Cache.Resident() - before; got != 1 {
			t.Errorf("pages brought after LOTSAMISS = %d, want 1", got)
		}
	})
}

func TestWriteProtectFaultMarksDirty(t *testing.T) {
	e, os := newPMemOS(16 * mib)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "f", 1*mib)
		m := os.Mmap(p, f, 1*mib)
		// Read fault maps read-only; nothing dirty.
		m.Load(p, 0, make([]byte, 8))
		if os.Cache.NrDirty() != 0 {
			t.Fatalf("dirty after read fault: %d", os.Cache.NrDirty())
		}
		// First store takes the wp fault and dirties exactly one page.
		m.Store(p, 0, []byte{1})
		if os.Cache.NrDirty() != 1 {
			t.Fatalf("dirty after store: %d, want 1", os.Cache.NrDirty())
		}
		// Second store to the same page: no new dirty page.
		m.Store(p, 100, []byte{2})
		if os.Cache.NrDirty() != 1 {
			t.Fatalf("dirty after second store: %d, want 1", os.Cache.NrDirty())
		}
	})
}

func TestEvictionRespectsCapacity(t *testing.T) {
	cache := uint64(2 * mib) // 512 pages
	e, os := newPMemOS(cache)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "f", 16*mib) // 8x the cache
		m := os.Mmap(p, f, 16*mib)
		buf := make([]byte, 8)
		for off := uint64(0); off+8 < 16*mib; off += PageSize {
			m.Load(p, off, buf)
		}
		if got, max := os.Cache.Resident(), int(cache/PageSize); got > max {
			t.Errorf("resident %d exceeds capacity %d", got, max)
		}
		if os.Cache.Evicted == 0 {
			t.Error("no evictions recorded under memory pressure")
		}
	})
}

func TestEvictionWritesBackDirtyData(t *testing.T) {
	cache := uint64(2 * mib)
	e, os := newPMemOS(cache)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "f", 16*mib)
		m := os.Mmap(p, f, 16*mib)
		m.Store(p, 0, []byte("persist me"))
		// Flood the cache to force the dirty page out.
		buf := make([]byte, 8)
		for off := uint64(PageSize); off+8 < 16*mib; off += PageSize {
			m.Load(p, off, buf)
		}
		direct := os.OpenFile(f, true)
		got := make([]byte, 10)
		direct.Pread(p, got, 0)
		if !bytes.Equal(got, []byte("persist me")) {
			t.Errorf("evicted dirty page not written back: %q", got)
		}
	})
}

func TestConcurrentFaultsOnSamePageSingleIO(t *testing.T) {
	e, os := newNVMeOS(16 * mib)
	f := os.FS.Create(e.Spawn(0, "setup", func(p *engine.Proc) {}), "f", 1*mib)
	e.Run()
	for i := 0; i < 4; i++ {
		e.Spawn(i, "t", func(p *engine.Proc) {
			m := os.Mmap(p, f, 1*mib)
			m.Load(p, 0, make([]byte, 8))
		})
	}
	e.Run()
	if f.MajorFaults() == 0 {
		t.Fatal("no major fault")
	}
	reads := os.Disk().Content.Stats().Reads
	// One read-around window: the page content read happens once per page,
	// but only one *window* of device reads total.
	if reads > uint64(readAroundPages) {
		t.Errorf("device reads = %d, want <= %d (single window)", reads, readAroundPages)
	}
}

func TestSharedFileTreeLockContentionVisible(t *testing.T) {
	e, os := newPMemOS(64 * mib)
	f := os.FS.Create(e.Spawn(0, "setup", func(p *engine.Proc) {}), "f", 32*mib)
	e.Run()
	m := make([]*Mapping, 8)
	for i := 0; i < 8; i++ {
		i := i
		e.Spawn(i, "t", func(p *engine.Proc) {
			m[i] = os.Mmap(p, f, 32*mib)
			buf := make([]byte, 8)
			for j := 0; j < 200; j++ {
				off := (uint64(i*200+j) * PageSize * uint64(readAroundPages)) % (32*mib - 8)
				off = off / PageSize * PageSize
				m[i].Load(p, off, buf)
			}
		})
	}
	e.Run()
	if st := f.treeLock.Stats(); st.Contended == 0 {
		t.Error("expected tree_lock contention with 8 threads on one file")
	}
}

func TestMunmapFlushesDirty(t *testing.T) {
	e, os := newPMemOS(16 * mib)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "f", 1*mib)
		m := os.Mmap(p, f, 1*mib)
		m.Store(p, 123, []byte("bye"))
		m.Munmap(p)
		direct := os.OpenFile(f, true)
		got := make([]byte, 3)
		direct.Pread(p, got, 123)
		if !bytes.Equal(got, []byte("bye")) {
			t.Errorf("munmap did not flush: %q", got)
		}
		if pt := os.DefaultProcess().PT; pt.Mapped() != 0 {
			t.Errorf("PT entries remain after munmap: %d", pt.Mapped())
		}
	})
}

func TestTwoMappingsShareCache(t *testing.T) {
	e, os := newPMemOS(16 * mib)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "f", 1*mib)
		m1 := os.Mmap(p, f, 1*mib)
		m2 := os.Mmap(p, f, 1*mib)
		m1.Store(p, 0, []byte("shared"))
		got := make([]byte, 6)
		m2.Load(p, 0, got)
		if !bytes.Equal(got, []byte("shared")) {
			t.Errorf("shared mapping read %q", got)
		}
		// The page is cached once.
		if f.MajorFaults() != 1 {
			t.Errorf("major faults = %d, want 1 (second mapping hits cache)", f.MajorFaults())
		}
	})
}

func TestDirtyThrottling(t *testing.T) {
	cache := uint64(1 * mib) // 256 pages; dirty limit = 25 pages
	e, os := newPMemOS(cache)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "f", 1*mib)
		m := os.Mmap(p, f, 1*mib)
		one := []byte{1}
		for off := uint64(0); off < 1*mib; off += PageSize {
			m.Store(p, off, one)
		}
		limit := int(float64(os.Cache.allocator.Capacity())*os.P.DirtyRatio) + reclaimBatch
		if got := os.Cache.NrDirty(); got > limit {
			t.Errorf("dirty pages %d exceed throttle threshold %d", got, limit)
		}
		if os.Cache.WrittenBk == 0 {
			t.Error("no writeback happened under dirty pressure")
		}
	})
}

func TestHypervisorGrant(t *testing.T) {
	e, os := newPMemOS(16 * mib)
	run1(e, func(p *engine.Proc) {
		eptMapped := func(gpa uint64) bool {
			_, ok := os.HV.ept.Lookup(gpa)
			return ok
		}
		gpa := uint64(4 << 30)
		os.HV.GrantRegion(p, gpa, 2<<30)
		if !eptMapped(gpa) || !eptMapped(gpa+(1<<30)) {
			t.Error("granted region not EPT-mapped")
		}
		if eptMapped(gpa + (2 << 30)) {
			t.Error("beyond grant should be unmapped")
		}
		if os.HV.VMCalls == 0 || os.HV.GrantedBytes != 2<<30 {
			t.Errorf("hv stats: vmcalls=%d granted=%d", os.HV.VMCalls, os.HV.GrantedBytes)
		}
	})
}

func TestLinuxFaultCostInMemory(t *testing.T) {
	// Fig 8(a) calibration: a minor-ish fault (page in cache, pmem) costs
	// ~2724 cycles; the trap alone is 1287.
	e, os := newPMemOS(64 * mib)
	var perFault uint64
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "f", 32*mib)
		m := os.Mmap(p, f, 32*mib)
		// Warm the cache so faults are cache-hits (no device I/O).
		buf := make([]byte, 8)
		for off := uint64(0); off < 32*mib; off += PageSize * uint64(readAroundPages) {
			m.Load(p, off, buf)
		}
		m.Munmap(p)
		m2 := os.Mmap(p, f, 32*mib)
		start := p.Now()
		const n = 1000
		for i := 0; i < n; i++ {
			m2.Load(p, uint64(i)*PageSize, buf)
		}
		perFault = (p.Now() - start) / n
	})
	if perFault < 2000 || perFault > 4000 {
		t.Errorf("in-cache Linux fault = %d cycles, want ~2724 (Fig 8a)", perFault)
	}
}

func TestStoreAfterWritebackNotLost(t *testing.T) {
	// Regression: dirty throttling used to clean (and write-protect) a
	// page between the fault that dirtied it and the store's data landing
	// in the frame — later stores without a wp fault were then discarded
	// at eviction. Write far more dirty data than the throttle limit and
	// verify every byte survives eviction.
	cache := uint64(256 << 10) // 64 pages, dirty limit ~6
	e, os := newPMemOS(cache)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "f", 4*mib)
		m := os.Mmap(p, f, 4*mib)
		m.Advise(p, iface.AdviceRandom)
		data := make([]byte, 1<<20)
		for i := range data {
			data[i] = byte(i*7 + 3)
		}
		m.Store(p, 0, data)
		// Flood to evict everything.
		buf := make([]byte, 8)
		for off := uint64(1 << 20); off+8 < 4*mib; off += PageSize {
			m.Load(p, off, buf)
		}
		got := make([]byte, len(data))
		m.Load(p, 0, got)
		if !bytes.Equal(got, data) {
			for i := range data {
				if got[i] != data[i] {
					t.Fatalf("first corruption at byte %d (page %d)", i, i/PageSize)
				}
			}
		}
	})
}

func TestMultiProcessSharedFileMappings(t *testing.T) {
	// §2.1: shared file-backed mappings are the storage-sharing primitive.
	// Two processes map the same file; stores from one are visible to the
	// other through the shared page cache, while address spaces stay
	// separate.
	e, os := newPMemOS(16 * mib)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "shared", 1*mib)
		pr1 := os.DefaultProcess()
		pr2 := os.NewProcess()
		m1 := pr1.Mmap(p, f, 1*mib)
		m2 := pr2.Mmap(p, f, 1*mib)

		m1.Store(p, 100, []byte("from process 1"))
		got := make([]byte, 14)
		m2.Load(p, 100, got)
		if !bytes.Equal(got, []byte("from process 1")) {
			t.Errorf("process 2 read %q", got)
		}
		// One cached copy serves both processes.
		if f.MajorFaults() != 1 {
			t.Errorf("major faults = %d, want 1 (page shared)", f.MajorFaults())
		}
		// Separate page tables, same frame.
		e1, ok1 := pr1.PT.Lookup(m1.v.start)
		e2, ok2 := pr2.PT.Lookup(m2.v.start)
		if !ok1 || !ok2 {
			t.Fatal("both processes should have the page mapped")
		}
		if e1.Frame != e2.Frame {
			t.Error("processes map different frames for the same file page")
		}
		if pr1.PT.ASID() == pr2.PT.ASID() {
			t.Error("processes share an ASID")
		}

		// Write from process 2, visible in process 1 (and re-dirtying
		// works through the mkclean protocol across processes).
		m2.Msync(p)
		m2.Store(p, 100, []byte("from process 2"))
		m1.Load(p, 100, got)
		if !bytes.Equal(got, []byte("from process 2")) {
			t.Errorf("process 1 read %q after peer store", got)
		}
	})
}

func TestMultiProcessReclaimUnmapsBoth(t *testing.T) {
	cache := uint64(1 * mib) // 256 pages: heavy reclaim
	e, os := newPMemOS(cache)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "shared", 8*mib)
		pr2 := os.NewProcess()
		m1 := os.Mmap(p, f, 8*mib)
		m2 := pr2.Mmap(p, f, 8*mib)
		m1.Advise(p, iface.AdviceRandom)
		m2.Advise(p, iface.AdviceRandom)
		buf := make([]byte, 8)
		// Both processes touch everything; reclaim must unmap PTEs in
		// both page tables before recycling frames.
		for off := uint64(0); off+8 < 8*mib; off += PageSize {
			m1.Load(p, off, buf)
			m2.Load(p, off, buf)
		}
		if os.Cache.Resident() > int(cache/PageSize) {
			t.Errorf("resident %d over capacity", os.Cache.Resident())
		}
		// Data integrity across both views after heavy eviction.
		m1.Store(p, 0, []byte("p1"))
		m2.Load(p, 0, buf[:2])
		if !bytes.Equal(buf[:2], []byte("p1")) {
			t.Errorf("cross-process read after reclaim: %q", buf[:2])
		}
	})
}

func TestActiveInactiveScanResistance(t *testing.T) {
	// A hot buffered-read working set repeatedly accessed gets promoted to
	// the active list; a one-shot scan through a big file must not evict
	// it (the kernel's 2Q scan resistance).
	cache := uint64(1 * mib) // 256 pages
	e, os := newPMemOS(cache)
	run1(e, func(p *engine.Proc) {
		hot := os.OpenFile(os.FS.Create(p, "hot", 256<<10), false) // 64 pages
		cold := os.OpenFile(os.FS.Create(p, "cold", 8*mib), false)
		buf := make([]byte, 4096)
		// Touch the hot set twice: referenced, then promoted.
		for round := 0; round < 2; round++ {
			for off := uint64(0); off < 256<<10; off += 4096 {
				hot.Pread(p, buf, off)
			}
		}
		if os.Cache.NrActive() == 0 {
			t.Fatal("no pages promoted to the active list")
		}
		readsBefore := os.Disk().Content.Stats().Reads
		// One-shot scan, 8x the cache.
		for off := uint64(0); off+4096 <= 8*mib; off += 4096 {
			cold.Pread(p, buf, off)
		}
		// Re-read the hot set: most of it must still be cached.
		readsScan := os.Disk().Content.Stats().Reads
		for off := uint64(0); off < 256<<10; off += 4096 {
			hot.Pread(p, buf, off)
		}
		hotRefaults := os.Disk().Content.Stats().Reads - readsScan
		if hotRefaults > 16 { // < 25% of 64 pages refaulted
			t.Errorf("hot set lost to the scan: %d device reads on re-access", hotRefaults)
		}
		_ = readsBefore
	})
}

func TestReclaimSecondChance(t *testing.T) {
	// Referenced inactive pages get rotated once instead of evicted.
	cache := uint64(512 << 10) // 128 pages
	e, os := newPMemOS(cache)
	run1(e, func(p *engine.Proc) {
		f := os.OpenFile(os.FS.Create(p, "f", 4*mib), false)
		buf := make([]byte, 4096)
		for off := uint64(0); off+4096 <= 4*mib; off += 4096 {
			f.Pread(p, buf, off)
		}
		if os.Cache.Evicted == 0 {
			t.Fatal("no reclaim happened")
		}
		if os.Cache.Resident() > int(cache/PageSize) {
			t.Errorf("resident %d over capacity", os.Cache.Resident())
		}
	})
}

func TestMsyncRange(t *testing.T) {
	e, os := newPMemOS(16 * mib)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "f", 1*mib)
		m := os.Mmap(p, f, 1*mib)
		m.Store(p, 0, []byte("lo"))
		m.Store(p, 512<<10, []byte("hi"))
		if os.Cache.NrDirty() != 2 {
			t.Fatalf("dirty = %d", os.Cache.NrDirty())
		}
		// Sync only the low page: the high page stays dirty.
		m.MsyncRange(p, 0, 4096)
		if os.Cache.NrDirty() != 1 {
			t.Fatalf("dirty after ranged msync = %d, want 1", os.Cache.NrDirty())
		}
		direct := os.OpenFile(f, true)
		got := make([]byte, 2)
		direct.Pread(p, got, 0)
		if !bytes.Equal(got, []byte("lo")) {
			t.Error("ranged msync did not persist the target page")
		}
		m.MsyncRange(p, 512<<10, 4096)
		if os.Cache.NrDirty() != 0 {
			t.Fatalf("dirty = %d after syncing both", os.Cache.NrDirty())
		}
	})
}

// fsync of a range walks the file's page index over that range only: what it
// cleans is every dirty page inside — across leaf boundaries, up to the last,
// partial leaf of a file that is not a whole number of leaves — and nothing
// outside, however the range is cut.
func TestMsyncRangeAcrossIndexLeaves(t *testing.T) {
	const leaf = 512
	const pages = 3*leaf + 37
	dirtied := []uint64{0, leaf - 2, leaf - 1, leaf, leaf + 1, 2*leaf - 1, 2 * leaf, 3*leaf - 12, 3 * leaf, pages - 1}
	e, os := newPMemOS(32 * mib)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "f", pages*PageSize)
		m := os.Mmap(p, f, pages*PageSize)
		m.Advise(p, iface.AdviceRandom)
		for _, r := range [][2]uint64{{leaf - 1, 2*leaf + 1}, {3*leaf - 12, 3*leaf - 11}, {3 * leaf, pages}, {0, pages}} {
			for _, idx := range dirtied {
				m.Store(p, idx*PageSize, []byte{byte(idx), 1})
			}
			written := os.Cache.WrittenBk
			m.MsyncRange(p, r[0]*PageSize, (r[1]-r[0])*PageSize)
			inside := 0
			for _, idx := range dirtied {
				in := idx >= r[0] && idx < r[1]
				if in {
					inside++
				}
				if pg := f.pages.Get(idx); pg == nil || pg.state.Dirty() == in {
					t.Fatalf("msync of pages [%d, %d): page %d dirty=%v", r[0], r[1], idx, !in)
				}
			}
			if got := os.Cache.WrittenBk - written; got != uint64(inside) {
				t.Fatalf("msync of pages [%d, %d) wrote %d pages back, want %d", r[0], r[1], got, inside)
			}
		}
		if err := os.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// The audit names a page that does not sit at its own index.
		pg := f.pages.Get(leaf)
		pg.idx++
		if err := os.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "page (f,512) misfiled as (f,513)") {
			t.Errorf("CheckInvariants with a misfiled page = %v", err)
		}
		pg.idx--
	})
}

// A file's radix tree is bounded by its extent: an access past the mapping
// fails at the mapping the way it always did, and a page past the extent — a
// mapping made larger than the file can ever be — is refused where it would be
// published instead of being filled from a neighbour's blocks.
func TestPageCacheRefusesPagesPastTheExtent(t *testing.T) {
	e, os := newPMemOS(16 * mib)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "short", 3*PageSize+100) // 4 pages, the last one partial
		os.FS.Create(p, "neighbour", 1*mib)
		m := os.Mmap(p, f, 3*PageSize+100)
		m.Advise(p, iface.AdviceRandom)
		buf := make([]byte, 8)
		m.Load(p, 3*PageSize+92, buf)
		if got, want := panicOf(func() { m.Load(p, 3*PageSize+93, buf) }), "host: mapping access [12381,12389) beyond size 12388"; got != want {
			t.Errorf("load past the mapping: %q, want %q", got, want)
		}
	})
	e, os = newPMemOS(16 * mib)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "short", 3*PageSize+100)
		big := os.Mmap(p, f, 1*mib)
		big.Advise(p, iface.AdviceRandom)
		if got, want := panicOf(func() { big.Load(p, 4*PageSize, make([]byte, 8)) }), "detutil: page index 4 beyond the 4 pages reserved"; got != want {
			t.Errorf("fault past the extent: %q, want %q", got, want)
		}
	})
}

func TestFSDeleteDropsLiveMappingsPages(t *testing.T) {
	e, os := newPMemOS(16 * mib)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "victim", 1*mib)
		m := os.Mmap(p, f, 1*mib)
		m.Store(p, 0, []byte("bye"))
		m.Munmap(p)
		os.FS.Delete(p, "victim")
		if os.Cache.Resident() != 0 {
			t.Errorf("resident pages after delete: %d", os.Cache.Resident())
		}
		if err := os.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestBufferedPwriteGrowsSize(t *testing.T) {
	e, os := newPMemOS(16 * mib)
	run1(e, func(p *engine.Proc) {
		f := os.OpenFile(os.FS.Create(p, "grow", 1*mib), false)
		f.f.SetSize(0)
		f.Pwrite(p, []byte("abc"), 0)
		if f.Size() != 3 {
			t.Errorf("size = %d, want 3", f.Size())
		}
		f.Pwrite(p, []byte("defg"), 100)
		if f.Size() != 104 {
			t.Errorf("size = %d, want 104", f.Size())
		}
	})
}

func TestHostMprotectAndMremap(t *testing.T) {
	e, os := newPMemOS(16 * mib)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "f", 4*mib)
		m := os.Mmap(p, f, 1*mib)
		m.Store(p, 100, []byte("data"))
		m.Mprotect(p, true)
		got := make([]byte, 4)
		m.Load(p, 100, got)
		if !bytes.Equal(got, []byte("data")) {
			t.Error("read after mprotect failed")
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("store to RO mapping did not fault")
				}
			}()
			m.Store(p, 0, []byte{1})
		}()
		m.Mprotect(p, false)
		m.Store(p, 200, []byte("rw"))
		// Grow, verify content follows; then shrink and check bounds.
		m.Mremap(p, 3*mib)
		m.Load(p, 100, got)
		if !bytes.Equal(got, []byte("data")) {
			t.Error("data lost across mremap grow")
		}
		m.Store(p, 2*mib, []byte("tail"))
		m.Mremap(p, 1*mib)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("access past shrunk mapping did not fault")
				}
			}()
			m.Load(p, 2*mib, got)
		}()
		if err := os.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// Regression: writebackBatch handed unpinned pages to writePages, which
// clears the dirty bit before it copies the frame; a concurrent reclaim then
// took the page for clean and recycled its frame mid-write-back, losing the
// store. (Two neighbours of that race are pinned here too: a throttler
// taking a page a reclaim had already claimed, and a fault that waited out a
// reclaim and then mapped the dead page.) A dirty ratio of 5 % throttles
// stores into write-back batches while the other threads fault over a cache
// an eighth of the file; NVMe latency keeps every window open for long.
func TestDirtyThrottleWritebackLosesNoStores(t *testing.T) {
	const threads, filePages = 6, 2048
	e, os := newNVMeOS(1 * mib)
	os.P.DirtyRatio = 0.05
	f := os.FS.Create(e.Spawn(0, "setup", func(p *engine.Proc) {}), "f", filePages*PageSize)
	e.Run()
	mark := func(w int, idx uint64) []byte {
		return []byte{byte(w + 1), byte(idx), byte(idx >> 8), 0xA5}
	}
	// Thread w owns pages w, w+threads, ...: every store is to a page no
	// other thread touches, so the only sharing is the cache itself.
	for w := 0; w < threads; w++ {
		w := w
		e.Spawn(w, "t", func(p *engine.Proc) {
			m := os.Mmap(p, f, filePages*PageSize)
			for idx := uint64(w); idx < filePages; idx += threads {
				m.Store(p, idx*PageSize+64, mark(w, idx))
			}
		})
	}
	e.Run()
	if os.Cache.Evicted == 0 || os.Cache.WrittenBk == 0 {
		t.Fatalf("evicted=%d written back=%d: workload exercised neither", os.Cache.Evicted, os.Cache.WrittenBk)
	}
	run1(e, func(p *engine.Proc) {
		os.Cache.fsyncFileRange(p, f, 0, f.cap)
		direct := os.OpenFile(f, true)
		got := make([]byte, 4)
		lost := 0
		for idx := uint64(0); idx < filePages; idx++ {
			direct.Pread(p, got, idx*PageSize+64)
			if !bytes.Equal(got, mark(int(idx%threads), idx)) {
				lost++
			}
		}
		if lost > 0 {
			t.Errorf("%d of %d stores lost", lost, filePages)
		}
	})
	if err := os.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// Regression: fsyncFileRange collected a file's dirty pages unpinned and
// handed them to writePages, which clears the dirty bit and then yields (tree
// lock, block I/O) before it copies the frame — the window writebackBatch had.
// A reclaim running meanwhile took such a page for clean and recycled its
// frame, or had already claimed it and dropped it unwritten because msync had
// just cleaned it. Storers fault over a cache an eighth of the file while one
// thread msyncs in a loop; the dirty ratio is left high so only reclaim and
// msync ever write.
func TestMsyncRacingReclaimLosesNoStores(t *testing.T) {
	const storers, perStorer = 4, 512
	const filePages = storers * perStorer
	e, os := newNVMeOS(1 * mib)
	os.P.DirtyRatio = 0.9
	f := os.FS.Create(e.Spawn(0, "setup", func(p *engine.Proc) {}), "f", filePages*PageSize)
	e.Run()
	mark := func(w int, idx uint64) []byte {
		return []byte{byte(w + 1), byte(idx), byte(idx >> 8), 0x5A}
	}
	running := storers
	for w := 0; w < storers; w++ {
		w := w
		e.Spawn(w, "store", func(p *engine.Proc) {
			m := os.Mmap(p, f, filePages*PageSize)
			// Each storer walks its own region, so the dirty set is several
			// runs apart on the device: the later runs of an msync sit
			// cleaned but uncopied while the first run's I/O is in flight.
			for idx := uint64(w) * perStorer; idx < uint64(w+1)*perStorer; idx++ {
				m.Store(p, idx*PageSize+64, mark(w, idx))
			}
			running--
		})
	}
	msyncs := 0
	e.Spawn(storers, "msync", func(p *engine.Proc) {
		m := os.Mmap(p, f, filePages*PageSize)
		for running > 0 {
			m.Msync(p)
			msyncs++
		}
	})
	e.Run()
	if os.Cache.Evicted == 0 || msyncs < 2 {
		t.Fatalf("evicted=%d msyncs=%d: reclaim and msync did not overlap", os.Cache.Evicted, msyncs)
	}
	run1(e, func(p *engine.Proc) {
		os.Cache.fsyncFileRange(p, f, 0, f.cap)
		direct := os.OpenFile(f, true)
		got := make([]byte, 4)
		lost := 0
		for idx := uint64(0); idx < filePages; idx++ {
			direct.Pread(p, got, idx*PageSize+64)
			if !bytes.Equal(got, mark(int(idx/perStorer), idx)) {
				lost++
			}
		}
		if lost > 0 {
			t.Errorf("%d of %d stores lost", lost, filePages)
		}
	})
	if err := os.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// Regression: truncate collected a deleted file's pages by ranging over a Go
// map of them, so their frames went back to the allocator in Go's randomized
// map order and the next faults were handed different frames in every run.
// The file's page index walks in index order. The allocator's free list is LIFO,
// so a successor file faulted page by page must land on the doomed file's
// frames in exactly reverse index order.
func TestTruncateRecycleOrderDeterministic(t *testing.T) {
	const pages = 64
	e, os := newPMemOS(16 * mib)
	run1(e, func(p *engine.Proc) {
		doomed := os.FS.Create(p, "doomed", pages*PageSize)
		m := os.Mmap(p, doomed, pages*PageSize)
		buf := make([]byte, 8)
		for i := uint64(0); i < pages; i++ {
			m.Load(p, i*PageSize, buf)
		}
		var freed [pages]uint64
		for i := range freed {
			freed[i] = doomed.pages.Get(uint64(i)).frame.ID
		}
		m.Munmap(p)
		os.FS.Delete(p, "doomed")

		next := os.FS.Create(p, "next", pages*PageSize)
		m2 := os.Mmap(p, next, pages*PageSize)
		m2.Advise(p, iface.AdviceRandom) // one page, one frame per fault
		for i := uint64(0); i < pages; i++ {
			m2.Load(p, i*PageSize, buf)
			if got, want := next.pages.Get(i).frame.ID, freed[pages-1-i]; got != want {
				t.Fatalf("successor page %d on frame %d, want %d (the doomed file's page %d)", i, got, want, pages-1-i)
			}
		}
		if err := os.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})
}

// The page cache has one window fill and two callers. A fault's window is
// read-around: every page but the faulting one carries PG_readahead, the file
// counts one miss and one major fault — what TestFaultReadAround and
// TestMmapMissHeuristicDisablesReadAround build on. A buffered read's window
// is plain readahead: same pages, same single I/O, no marks and no fault
// accounting.
func TestWindowFillPerCaller(t *testing.T) {
	e, os := newPMemOS(64 * mib)
	run1(e, func(p *engine.Proc) {
		ra := uint64(readAroundPages)
		marks := func(f *FSFile) (n int) {
			for _, pg := range f.pages.All() {
				if pg.readahead {
					n++
				}
			}
			return n
		}
		reads := os.Break.Count("readahead")

		faulted := os.FS.Create(p, "faulted", 4*mib)
		os.Mmap(p, faulted, 4*mib).Load(p, 5*PageSize, make([]byte, 8))
		if faulted.pages.Len() != int(ra) || marks(faulted) != int(ra)-1 || faulted.pages.Get(5).readahead {
			t.Errorf("fault window: %d pages, %d marked, target marked=%v; want %d, %d, false",
				faulted.pages.Len(), marks(faulted), faulted.pages.Get(5).readahead, ra, ra-1)
		}
		if faulted.mmapMiss != 1 || faulted.majorFaults != 1 {
			t.Errorf("fault window: mmapMiss=%d majorFaults=%d, want 1 and 1", faulted.mmapMiss, faulted.majorFaults)
		}

		read := os.FS.Create(p, "read", 4*mib)
		os.OpenFile(read, false).Pread(p, make([]byte, 8), 0) // offset 0 == lastRead: sequential
		if read.pages.Len() != int(ra) || marks(read) != 0 {
			t.Errorf("buffered window: %d pages, %d marked; want %d, 0", read.pages.Len(), marks(read), ra)
		}
		if read.mmapMiss != 0 || read.majorFaults != 0 {
			t.Errorf("buffered window: mmapMiss=%d majorFaults=%d, want 0 and 0", read.mmapMiss, read.majorFaults)
		}
		if got := os.Break.Count("readahead") - reads; got != 2 {
			t.Errorf("two windows took %d timed reads, want 2 (one per contiguous run)", got)
		}
	})
}

// Frames go back to the allocator as their last page left them — reclaim and
// truncate do not zero — so every way a page enters the cache has to define
// all 4,096 bytes itself. Fill the cache with a known pattern, recycle the
// frames either way, and bring pages in over them by each route: a fault on a
// hole, a buffered read of a hole, a whole-page buffered write, and a partial
// buffered write of a hole (fill, then copy).
func TestRecycledFrameIsDefinedByItsNextUser(t *testing.T) {
	const cachePages, n = 256, 24
	pattern := bytes.Repeat([]byte{0xA5}, PageSize)
	zeros := make([]byte, PageSize)
	// stale asserts the page sits on a frame that carried data before this
	// page got it: a frame never used would make the check vacuous.
	stale := func(t *testing.T, f *FSFile, idx uint64) {
		t.Helper()
		if pg := f.pages.Get(idx); pg == nil || !pg.frame.HasData() {
			t.Fatalf("%s page %d is not on a recycled frame", f.name, idx)
		}
	}
	check := func(t *testing.T, p *engine.Proc, os *OS) {
		got := make([]byte, PageSize)

		hole := os.FS.Create(p, "hole", n*PageSize)
		m := os.Mmap(p, hole, n*PageSize)
		m.Advise(p, iface.AdviceRandom)
		for i := uint64(0); i < n; i++ {
			m.Load(p, i*PageSize, got)
			stale(t, hole, i)
			if !bytes.Equal(got, zeros) {
				t.Fatalf("fault on hole page %d read a previous owner's bytes", i)
			}
		}

		file := os.FS.Create(p, "file", 3*n*PageSize)
		bf := os.OpenFile(file, false)
		for i := uint64(0); i < n; i++ {
			bf.Pread(p, got, i*PageSize)
			stale(t, file, i)
			if !bytes.Equal(got, zeros) {
				t.Fatalf("buffered read of hole page %d read a previous owner's bytes", i)
			}
		}
		whole := bytes.Repeat([]byte{0x3C}, PageSize)
		for i := uint64(n); i < 2*n; i++ {
			bf.Pwrite(p, whole, i*PageSize)
			stale(t, file, i)
			if bf.Pread(p, got, i*PageSize); !bytes.Equal(got, whole) {
				t.Fatalf("whole-page write of page %d does not read back", i)
			}
		}
		want := make([]byte, PageSize)
		copy(want[100:], "partial")
		for i := uint64(2 * n); i < 3*n; i++ {
			bf.Pwrite(p, []byte("partial"), i*PageSize+100)
			stale(t, file, i)
			if bf.Pread(p, got, i*PageSize); !bytes.Equal(got, want) {
				t.Fatalf("partial write of hole page %d reads back more than it wrote", i)
			}
		}
		if err := os.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}

	t.Run("reclaim", func(t *testing.T) {
		e, os := newPMemOS(cachePages * PageSize)
		run1(e, func(p *engine.Proc) {
			// Twice the cache: every frame ends up holding the pattern, and
			// every page brought in afterwards evicts one of these.
			f := os.FS.Create(p, "dirty", 2*cachePages*PageSize)
			m := os.Mmap(p, f, 2*cachePages*PageSize)
			for i := uint64(0); i < 2*cachePages; i++ {
				m.Store(p, i*PageSize, pattern)
			}
			if os.Cache.Evicted == 0 {
				t.Fatal("set-up evicted nothing")
			}
			check(t, p, os)
		})
	})
	t.Run("truncate", func(t *testing.T) {
		e, os := newPMemOS(cachePages * PageSize)
		run1(e, func(p *engine.Proc) {
			f := os.FS.Create(p, "dirty", 4*n*PageSize)
			m := os.Mmap(p, f, 4*n*PageSize)
			for i := uint64(0); i < 4*n; i++ {
				m.Store(p, i*PageSize, pattern)
			}
			// The munmap writes the pages back, and they stay cached on
			// their frames; truncate drops them, frames as they are.
			m.Munmap(p)
			os.FS.Delete(p, "dirty")
			if os.Cache.Evicted != 0 {
				t.Fatal("set-up went through reclaim")
			}
			check(t, p, os)
		})
	})
}

// evictWritebackCycle runs the baseline's fault → reclaim → write-back cycle
// at steady state: page cache full, a file eight times its size, two loads to
// one store over uniformly random pages, each store an 8-byte stamp at the
// page's start, dirty throttling at its default.
func evictWritebackCycle(t *testing.T, stamp uint64) (c cachetest.Cycle) {
	const cachePages, filePages = 1024, 8192
	e, os := newPMemOS(cachePages * PageSize)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "data", filePages*PageSize)
		m := os.Mmap(p, f, filePages*PageSize)
		rng := rand.New(rand.NewSource(1))
		var word, buf [8]byte
		binary.LittleEndian.PutUint64(word[:], stamp)
		ops := func(n int) {
			for i := 0; i < n; i++ {
				off := uint64(rng.Intn(filePages)) * PageSize
				if i%3 == 2 {
					m.Store(p, off, word[:])
				} else {
					m.Load(p, off, buf[:])
				}
			}
		}
		// Warm up until the cache has turned over several times: every frame
		// holds data, every scratch slice and free list is at its peak.
		ops(6 * cachePages)
		store := os.Disk().Content
		inserted, written, blocks, lined := os.Cache.Inserted, os.Cache.WrittenBk, store.ResidentBlocks(), cachetest.PayloadLines(os.Cache.allocator)
		c.Objects, c.Bytes = cachetest.Allocated(func() { ops(6 * cachePages) })
		c.Pages, c.Written, c.Blocks = os.Cache.Inserted-inserted, os.Cache.WrittenBk-written, uint64(store.ResidentBlocks()-blocks)
		c.Lined = cachetest.PayloadLines(os.Cache.allocator) - lined
		if c.Pages < 4*cachePages || c.Written < cachePages || os.Cache.Evicted < 8*cachePages {
			t.Fatalf("not the cycle: %d pages inserted, %d written back, %d evicted", c.Pages, c.Written, os.Cache.Evicted)
		}
		if err := os.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
	c.Warm = cachetest.WarmPayloadPass(os.Cache.allocator)
	return c
}

// TestEvictWritebackCycleAllocations is the budget of the baseline's fault →
// reclaim → write-back cycle at steady state (cachetest.CycleAllocations): N
// pages brought in cost N page records plus the pages the content pools
// carve, and nothing else: no victim or dirty batch, no fill scratch, no
// sort's swapper, no index leaf, no version list. What amortizes — the dirty
// FIFO, which slides through its array and takes a new one every queue's
// length of stores (a sweep of reclaimed pages' entries filters it in place),
// the staged list — is allowed a fiftieth of an allocation per page.
func TestEvictWritebackCycleAllocations(t *testing.T) {
	cachetest.CycleAllocations(t, func(stamp uint64) cachetest.Cycle { return evictWritebackCycle(t, stamp) }, 50)
}

// TestVMASetMatchesLinearScan is core's TestVSpaceMatchesLinearScan for this
// world's instantiation of detutil.RangeSet: seeded mmap / mremap-shrink (in
// place: the VMA's end moves under the set) / mremap-grow (relocated) / munmap
// sequences, every lookup held against a linear scan of the live mappings.
func TestVMASetMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		e, os := newPMemOS(4 * mib)
		run1(e, func(p *engine.Proc) {
			f := os.FS.Create(p, "data", 64*PageSize)
			pr := os.DefaultProcess()
			rng := rand.New(rand.NewSource(seed))
			var live []*Mapping
			probes := []uint64{0, pr.nextVA - 1}
			scan := func(va uint64) *vma {
				for _, m := range live {
					if m.v.start <= va && va < m.v.end {
						return m.v
					}
				}
				return nil
			}
			for step := 0; step < 400; step++ {
				switch k := rng.Intn(8); {
				case k < 3 || len(live) == 0:
					live = append(live, os.Mmap(p, f, uint64(1+rng.Intn(64))*PageSize))
				case k < 6:
					live[rng.Intn(len(live))].Mremap(p, uint64(1+rng.Intn(64))*PageSize)
				default:
					i := rng.Intn(len(live))
					live[i].Munmap(p)
					live = append(live[:i], live[i+1:]...)
				}
				for _, m := range live {
					probes = append(probes, m.v.start-1, m.v.start, m.v.end-1, m.v.end)
				}
				if len(probes) > 4096 {
					probes = probes[len(probes)-4096:]
				}
				for _, va := range probes {
					if got, want := pr.vmas.Find(va), scan(va); got != want {
						t.Fatalf("seed %d step %d: Find(%#x) = %v, the scan says %v", seed, step, va, got, want)
					}
				}
				if got := len(pr.vmas.List()); got != len(live) {
					t.Fatalf("seed %d step %d: %d VMAs for %d live mappings", seed, step, got, len(live))
				}
			}
		})
	}
}

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

// TestPageMoveMatrix holds PageCache.move to the lifecycle table core's move
// is held to: every (from, to) pair either moves the page as the table says —
// radix-tree membership, the dirty counts and FIFO, the busy event — or
// panics naming the page and both states; a pinned page may not leave.
func TestPageMoveMatrix(t *testing.T) {
	const n = uint64(detutil.PgGone) + 1
	e, os := newPMemOS(4 * mib)
	run1(e, func(p *engine.Proc) {
		c := os.Cache
		f := os.FS.Create(p, "m", (n*n+1)*PageSize)
		for from := detutil.PageState(0); uint64(from) < n; from++ {
			for to := detutil.PageState(0); uint64(to) < n; to++ {
				idx := uint64(from)*n + uint64(to)
				pg := &cachedPage{f: f, idx: idx, frame: &mem.Frame{}, state: from}
				if from.Indexed() {
					f.pages.Insert(idx, pg)
				}
				if from.Counted() {
					f.nrDirty++
					c.nrDirty++
				}
				if from.Busy() {
					pg.ev.Arm()
				}
				before, queued := c.nrDirty, len(c.dirtyQueue)
				msg := panicOf(func() { c.move(pg, to) })
				if !from.Legal(to) {
					if want := fmt.Sprintf("host: page (m,%d): %v → %v", idx, from, to); !strings.HasPrefix(msg, want) {
						t.Errorf("%v → %v: panic %q, want %q", from, to, msg, want)
					}
					continue
				}
				counted := map[bool]int{true: 1}
				moved := counted[to.Counted()] - counted[from.Counted()]
				switch {
				case msg != "":
					t.Errorf("%v → %v, a listed edge, panicked: %s", from, to, msg)
				case pg.state != to || (f.pages.Get(idx) == pg) != to.Indexed():
					t.Errorf("%v → %v: state %v, indexed %v", from, to, pg.state, f.pages.Get(idx) == pg)
				case c.nrDirty-before != moved || f.nrDirty != c.nrDirty:
					t.Errorf("%v → %v: dirty count moved by %d", from, to, c.nrDirty-before)
				case len(c.dirtyQueue)-queued != max(moved, 0):
					t.Errorf("%v → %v: %d dirty FIFO entries added", from, to, len(c.dirtyQueue)-queued)
				case to.Busy() && !pg.busy():
					t.Errorf("%v → %v: event not armed", from, to)
				}
				pg.ev.Fire(p.Now())
			}
		}
		pg := &cachedPage{f: f, idx: n * n, state: detutil.PgClean, pins: 1}
		f.pages.Insert(pg.idx, pg)
		if msg, want := panicOf(func() { c.move(pg, detutil.PgGone) }), "clean → gone with 1 pins"; !strings.Contains(msg, want) {
			t.Errorf("a pinned page leaving: panic %q, want %q", msg, want)
		}
	})
}

// A faulter left waiting on a busy period nobody ends is a deadlock, and the
// engine's diagnostic names the page the way it always has — a read
// pgio:<file>:<idx>, a reclaim's claim reclaim, also once the reclaim has
// dropped the page from its tree and not yet fired — although the event holds
// no name: the waiter passes the page, which reads its state.
func TestStuckFillDeadlockNamesPage(t *testing.T) {
	for _, tc := range []struct {
		path  []detutil.PageState
		owner string
	}{
		{[]detutil.PageState{detutil.PgFilling}, "pgio:stuck:7"},
		{[]detutil.PageState{detutil.PgClean, detutil.PgClaimed}, "reclaim"},
		{[]detutil.PageState{detutil.PgDirty, detutil.PgClaimedDirty}, "reclaim"},
		{[]detutil.PageState{detutil.PgClean, detutil.PgClaimed, detutil.PgGone}, "reclaim"},
	} {
		e, os := newPMemOS(4 * mib)
		var pg *cachedPage
		e.Spawn(0, "owner", func(p *engine.Proc) {
			f := os.FS.Create(p, "stuck", mib)
			pg = &cachedPage{f: f, idx: 7}
			for _, s := range tc.path {
				os.Cache.move(pg, s)
			}
		})
		e.Spawn(1, "faulter", func(p *engine.Proc) {
			p.AdvanceSystem(1 << 20) // after the owner has published
			os.Cache.waitPage(p, pg)
		})
		want := "faulter(on event:" + tc.owner + ")"
		if msg := panicOf(e.Run); !strings.Contains(msg, "engine: deadlock") || !strings.Contains(msg, want) {
			t.Fatalf("%v: Run panicked with %q, want a deadlock naming %s", tc.path, msg, want)
		}
		e.Close()
	}
}

// The page record stays in its size class: publishing a page is one
// allocation of it (cachetest.ColdMajorFaultIsOneAllocation), and a field more puts
// every fault in the next class.
func TestPageRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(cachedPage{}); got > 80 {
		t.Errorf("cachedPage is %d bytes, want at most 80: past it every cold fault allocates from Go's 96-byte size class, not the 80-byte one (DESIGN.md §3 \"Page records\")", got)
	}
}

// Regression: a buffered read or write found its page settled, then took the
// lru_lock to mark it accessed — a yield — before pinning it, and a reclaim
// holding the lock could claim the page meanwhile: the write copied into a
// frame already on its way back to the allocator (20 of 512 pages lost over a
// 32-page cache). The page is pinned before the lock is taken.
func TestBufferedWriteRacingReclaimLosesNoStores(t *testing.T) {
	const pages = 512
	e, os := newPMemOS(32 * PageSize)
	var x, y *FSFile
	run1(e, func(p *engine.Proc) {
		x = os.FS.Create(p, "x", pages*PageSize)
		y = os.FS.Create(p, "y", pages*PageSize)
	})
	page := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8), 0xA5, 0x5A}, PageSize/4) }
	for w := 0; w < 2; w++ {
		e.Spawn(w, "write", func(p *engine.Proc) {
			f := os.OpenFile(x, false)
			for i := w; i < pages; i += 2 {
				f.Pwrite(p, page(i), uint64(i)*PageSize)
			}
		})
		e.Spawn(2+w, "read", func(p *engine.Proc) {
			f := os.OpenFile(y, false)
			buf := make([]byte, 64)
			for i := w; i < pages; i += 2 {
				f.Pread(p, buf, uint64(i)*PageSize)
			}
		})
	}
	e.Run()
	run1(e, func(p *engine.Proc) {
		os.Cache.fsyncFileRange(p, x, 0, x.cap)
		direct := os.OpenFile(x, true)
		got := make([]byte, PageSize)
		lost := 0
		for i := 0; i < pages; i++ {
			direct.Pread(p, got, uint64(i)*PageSize)
			if !bytes.Equal(got, page(i)) {
				lost++
			}
		}
		if lost > 0 {
			t.Errorf("%d of %d pages lost", lost, pages)
		}
	})
	if err := os.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// A cache shrink's ReclaimRegion frees the EPT table pages its grant used.
func TestReclaimRegionReleasesEPTPages(t *testing.T) {
	e, os := newPMemOS(16 * mib)
	run1(e, func(p *engine.Proc) {
		before := os.HV.ept.Pages()
		gpa := uint64(4 << 30)
		os.HV.GrantRegion(p, gpa, 2<<30)
		if os.HV.ept.Pages() <= before {
			t.Fatalf("a 2 GB grant left %d EPT table pages, as many as before it", os.HV.ept.Pages())
		}
		os.HV.ReclaimRegion(p, gpa, 2<<30)
		if got := os.HV.ept.Pages(); got != before {
			t.Errorf("%d EPT table pages after ReclaimRegion, want %d as before the grant", got, before)
		}
		if os.HV.ept.Mapped() != 0 {
			t.Errorf("%d EPT entries still mapped", os.HV.ept.Mapped())
		}
	})
}
