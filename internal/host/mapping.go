package host

import (
	"fmt"

	"aquila/internal/iface"
	"aquila/internal/sim/cpu"
	"aquila/internal/sim/engine"
	"aquila/internal/sim/mem"
	"aquila/internal/sim/pagetable"
)

// vma is one virtual memory area of the (single) process.
type vma struct {
	start, end uint64
	f          *FSFile
	advice     iface.Advice
	// readOnly blocks stores (mprotect(PROT_READ)).
	readOnly bool
	// kmmap marks Kreon's custom in-kernel mmio path (§7.2): no fault
	// read-around and a lazy write-back policy driven by its custom msync
	// instead of dirty throttling. Faults still pay the full ring-3 trap.
	kmmap bool
}

// Bounds is the VMA's address range (detutil.Ranged). A process's VMAs are a
// detutil.RangeSet: the kernel's rb-tree, charged as costVMALookup where it is
// used. Mutations and lookups are serialized by Process.mmapSem, which the
// fault path takes shared — the contention pattern §3.4 describes.
func (v *vma) Bounds() (start, end uint64) { return v.start, v.end }

// Mapping is a Linux shared file-backed mmap region in one process.
type Mapping struct {
	os   *OS
	pr   *Process
	v    *vma
	f    *FSFile
	size uint64
	dead bool
}

var _ iface.Mapping = (*Mapping)(nil)

// Mmap creates a shared mapping of f's first `size` bytes in the default
// process.
func (os *OS) Mmap(p *engine.Proc, f *FSFile, size uint64) *Mapping {
	return os.DefaultProcess().mmapInternal(p, f, size, false)
}

// MmapKmmap creates a mapping through Kreon's custom in-kernel mmio path
// (kmmap, §7.2): same trap costs as Linux mmap, but no read-around and lazy
// write-back.
func (os *OS) MmapKmmap(p *engine.Proc, f *FSFile, size uint64) *Mapping {
	return os.DefaultProcess().mmapInternal(p, f, size, true)
}

// Mmap creates a shared mapping in this process; mappings of the same file
// from different processes share cached pages.
func (pr *Process) Mmap(p *engine.Proc, f *FSFile, size uint64) *Mapping {
	return pr.mmapInternal(p, f, size, false)
}

func (pr *Process) mmapInternal(p *engine.Proc, f *FSFile, size uint64, kmmap bool) *Mapping {
	os := pr.os
	os.charge(p, "syscall", cpu.Syscall+costSyscallKernelPath)
	pr.mmapSem.Lock(p)
	pages := (size + PageSize - 1) / PageSize
	start := pr.nextVA
	pr.nextVA += (pages + 16) * PageSize // guard gap
	v := &vma{start: start, end: start + pages*PageSize, f: f, kmmap: kmmap}
	pr.vmas.Insert(v)
	os.charge(p, "vma", costVMALookup) // rb-tree insert
	pr.mmapSem.Unlock(p)
	return &Mapping{os: os, pr: pr, v: v, f: f, size: size}
}

// Size implements iface.Mapping.
func (m *Mapping) Size() uint64 { return m.size }

// Advise implements iface.Mapping.
func (m *Mapping) Advise(p *engine.Proc, advice iface.Advice) {
	m.os.charge(p, "syscall", cpu.Syscall+costSyscallKernelPath)
	m.pr.mmapSem.Lock(p)
	m.v.advice = advice
	m.pr.mmapSem.Unlock(p)
}

// Load implements iface.Mapping: simulated load instructions.
func (m *Mapping) Load(p *engine.Proc, off uint64, buf []byte) {
	m.checkRange(off, len(buf))
	for n := 0; n < len(buf); {
		va := m.v.start + off + uint64(n)
		po := int(va % PageSize)
		chunk := min(PageSize-po, len(buf)-n)
		frame := m.pr.resolve(p, va, false)
		frame.ReadAt(buf[n:n+chunk], po)
		p.AdvanceUser(loadStoreCost(chunk))
		n += chunk
	}
}

// Store implements iface.Mapping: simulated store instructions.
func (m *Mapping) Store(p *engine.Proc, off uint64, buf []byte) {
	if m.v.readOnly {
		panic(fmt.Sprintf("host: store to read-only mapping of %q (SIGSEGV)", m.f.name))
	}
	m.checkRange(off, len(buf))
	for n := 0; n < len(buf); {
		va := m.v.start + off + uint64(n)
		po := int(va % PageSize)
		chunk := min(PageSize-po, len(buf)-n)
		frame := m.pr.resolve(p, va, true)
		frame.WriteAt(po, buf[n:n+chunk])
		p.AdvanceUser(loadStoreCost(chunk))
		// Dirty throttling runs only after the store's data has landed
		// in the frame; throttling inside the fault itself would clean
		// (and write-protect) the page before the store happened.
		if !m.v.kmmap {
			m.os.Cache.throttleDirty(p)
		}
		n += chunk
	}
}

// Msync implements iface.Mapping: writes the file's dirty pages back. The
// host path does not model writeback errors, so this always reports success.
func (m *Mapping) Msync(p *engine.Proc) error { return m.MsyncRange(p, 0, m.f.cap) }

// MsyncRange implements iface.Mapping: only dirty pages overlapping
// [off, off+length) are written back.
func (m *Mapping) MsyncRange(p *engine.Proc, off, length uint64) error {
	p.BeginSpan("lx.msync")
	defer p.EndSpan()
	m.os.charge(p, "syscall", cpu.Syscall+costSyscallKernelPath)
	m.os.Cache.fsyncFileRange(p, m.f, off, length)
	return nil
}

// Munmap implements iface.Mapping: destroys the mapping. Cached pages stay
// in the page cache (shared semantics); dirty pages are written back.
func (m *Mapping) Munmap(p *engine.Proc) {
	if m.dead {
		return
	}
	m.dead = true
	m.os.charge(p, "syscall", cpu.Syscall+costSyscallKernelPath)
	m.pr.mmapSem.Lock(p)
	m.pr.vmas.Remove(m.v)
	m.unmapSpan(p, m.v.start, m.v.end)
	m.pr.mmapSem.Unlock(p)
	m.os.Cache.fsyncFileRange(p, m.f, 0, m.f.cap)
}

// unmapSpan is the one range unmap (Munmap, Mremap's shrink): clear the live
// PTEs of [lo, hi), drop each from its page's reverse map, and issue one
// batched shootdown for the lot. The caller holds mmap_sem for writing.
func (m *Mapping) unmapSpan(p *engine.Proc, lo, hi uint64) {
	unmapped := 0
	for va := lo; va < hi; va += PageSize {
		if m.pr.PT.Unmap(va) {
			m.os.charge(p, "pte", cpu.PTEUpdate)
			unmapped++
			if pg := m.os.Cache.find(p, m.f, (va-m.v.start)/PageSize); pg != nil {
				pg.vas.Remove(mappedVA{m.pr, va})
			}
		}
	}
	if unmapped > 0 {
		m.pr.shootdown(p)
	}
}

func (m *Mapping) checkRange(off uint64, n int) {
	if off+uint64(n) > m.size {
		panic(fmt.Sprintf("host: mapping access [%d,%d) beyond size %d", off, off+uint64(n), m.size))
	}
}

// loadStoreCost is the user-side cost of moving n bytes through cached
// mappings (ordinary loads/stores, ~DRAM bandwidth).
func loadStoreCost(n int) uint64 { return uint64(n)/16 + 2 }

// resolve returns the frame currently backing va, with the required
// permission, re-running the access path until the translation is stable:
// between a fault returning and the caller's data copy, a concurrent
// eviction may have unmapped the page and recycled its frame, so the
// va -> frame binding is re-validated with no intervening simulated time.
func (pr *Process) resolve(p *engine.Proc, va uint64, write bool) *mem.Frame {
	for {
		frame := pr.access(p, va, write)
		if e, ok := pr.PT.Lookup(va); ok && e.Frame == frame.ID &&
			(!write || e.Flags.Has(pagetable.FlagWritable)) {
			return frame
		}
	}
}

// access resolves one virtual address, taking the hardware fast path
// (TLB hit: free) or the fault path, and returns the backing frame.
func (pr *Process) access(p *engine.Proc, va uint64, write bool) *mem.Frame {
	os := pr.os
	vpn := va >> mem.PageShift
	tlb := os.TLBs.CPU(p.CPU())
	asid := pr.PT.ASID()
	hit := tlb.Lookup(asid, vpn)
	e, ok := pr.PT.Lookup(va)
	if !ok {
		if hit {
			// Stale TLB entry (should not happen: shootdowns keep us coherent).
			tlb.InvalidatePage(asid, vpn)
		}
		return pr.pageFault(p, va, write)
	}
	if !hit {
		p.AdvanceUser(cpu.TLBRefill)
		tlb.Insert(asid, vpn)
	}
	if write && !e.Flags.Has(pagetable.FlagWritable) {
		return pr.wpFault(p, va)
	}
	return os.Cache.allocator.Frame(e.Frame)
}

// wpFault is the write-protect fault on a present read-only page of a shared
// mapping: mark the page dirty (under tree_lock) and upgrade the PTE.
func (pr *Process) wpFault(p *engine.Proc, va uint64) *mem.Frame {
	os := pr.os
	p.BeginSpan("lx.wp_fault")
	defer p.EndSpan()
	va &^= uint64(PageSize - 1)
	pr.noteCPU(p.CPU())
	os.charge(p, "trap", cpu.TrapRing3+costFaultEntry)
	pr.mmapSem.RLock(p)
	os.charge(p, "vma", costVMALookup)
	v := pr.vmas.Find(va)
	if v == nil {
		panic(fmt.Sprintf("host: wp fault outside any vma: %#x", va))
	}
	idx := (va - v.start) / PageSize
	pg := os.Cache.find(p, v.f, idx)
	if pg == nil || pg.busy() {
		// Raced with reclaim; retry as a full fault.
		pr.mmapSem.RUnlock(p)
		return pr.pageFault(p, va, true)
	}
	pg.pins++
	defer func() { pg.pins-- }()
	os.Cache.markDirty(p, pg)
	pr.PT.Protect(va, pagetable.FlagUser|pagetable.FlagWritable|pagetable.FlagAccessed|pagetable.FlagDirty)
	os.charge(p, "pte", cpu.PTEUpdate+cpu.TLBInvalidatePage)
	tlb := os.TLBs.CPU(p.CPU())
	tlb.InvalidatePage(pr.PT.ASID(), va>>mem.PageShift)
	tlb.Insert(pr.PT.ASID(), va>>mem.PageShift)
	pr.mmapSem.RUnlock(p)
	return pg.frame
}

// pageFault is the Linux mmio fault path: trap to ring 0, VMA lookup under
// mmap_sem, filemap_fault with 4.14-style read-around, PTE installation.
func (pr *Process) pageFault(p *engine.Proc, va uint64, write bool) *mem.Frame {
	os := pr.os
	p.BeginSpan("lx.fault")
	defer p.EndSpan()
	va &^= uint64(PageSize - 1)
	pr.noteCPU(p.CPU())
	os.charge(p, "trap", cpu.TrapRing3+costFaultEntry)
	pr.mmapSem.RLock(p)
	os.charge(p, "vma", costVMALookup)
	v := pr.vmas.Find(va)
	if v == nil {
		panic(fmt.Sprintf("host: page fault outside any vma: %#x", va))
	}
	f := v.f
	idx := (va - v.start) / PageSize

	var pg *cachedPage
	for {
		pg = os.Cache.find(p, f, idx)
		if pg != nil {
			if pg.busy() {
				// Read or reclaim in flight: wait, then re-check —
				// the page may be gone (reclaimed) by wake-up.
				os.Cache.waitPage(p, pg)
				continue
			}
			// Minor fault. A read-around page being used decays the
			// miss counter, keeping read-around alive (4.14
			// do_async_mmap_readahead).
			if pg.readahead {
				pg.readahead = false
				if f.mmapMiss > 0 {
					f.mmapMiss--
				}
			}
			break
		}
		pg = pr.majorFault(p, v, idx)
		if pg != nil && !pg.busy() {
			break
		}
	}
	// Pin across PTE installation: the dirty-marking and mapping steps
	// yield, and reclaim recycling this frame mid-fault would install a
	// PTE to a stale frame.
	pg.pins++
	defer func() { pg.pins-- }()

	// Install the PTE. Shared-mapping read faults map read-only so the
	// first store takes a write-protect fault that marks the page dirty.
	flags := pagetable.FlagUser | pagetable.FlagAccessed
	if write {
		flags |= pagetable.FlagWritable | pagetable.FlagDirty
		os.Cache.markDirty(p, pg)
	}
	if _, mapped := pr.PT.Lookup(va); !mapped {
		pr.PT.Map(va, pg.frame.ID, flags, pagetable.Size4K)
		pg.vas.Add(mappedVA{pr, va})
	} else {
		pr.PT.Protect(va, flags)
	}
	os.charge(p, "pte", cpu.PTEUpdate)
	os.TLBs.CPU(p.CPU()).Insert(pr.PT.ASID(), va>>mem.PageShift)
	pr.mmapSem.RUnlock(p)
	return pg.frame
}

// majorFault brings (f, idx) into the cache, applying the fault read-around
// policy: a readAroundPages window unless MADV_RANDOM is set or the file has
// missed too often (mmap_miss > MMAP_LOTSAMISS). Returns nil if the target
// page raced away and the caller must retry.
func (pr *Process) majorFault(p *engine.Proc, v *vma, idx uint64) *cachedPage {
	os := pr.os
	p.BeginSpan("lx.major_fault")
	defer p.EndSpan()
	f := v.f
	f.mmapMiss++
	filePages := (f.size + PageSize - 1) / PageSize
	lo, hi := idx, idx+1
	if !v.kmmap && v.advice != iface.AdviceRandom && f.mmapMiss <= mmapLotsamiss {
		ra := uint64(readAroundPages)
		lo = idx / ra * ra
		hi = lo + ra
		if hi > filePages {
			hi = filePages
		}
	}

	// Fill the absent part of the window; what this fault brought in beyond
	// its own page is read-around (PG_readahead).
	target := os.Cache.fillWindow(p, f, lo, hi, idx, true)
	if target != nil {
		os.Cache.waitPage(p, target)
		f.majorFaults++
		if f.pages.Get(idx) != target {
			// The wait was on a reclaim, not a read: the page is gone and
			// its frame recycled.
			return nil
		}
	}
	return target
}

// readPageContent fills a page's frame from device content, skipping the
// copy entirely when both sides are all-zero (content-free experiments). It
// defines every byte of the frame — copied from the device, or zeroed when
// the page is a hole and the frame carries a previous owner's data: frames
// are recycled as they are, not zeroed (PageCache.reclaim, truncate).
func (os *OS) readPageContent(pg *cachedPage) {
	if !os.FS.disk.Content.ReadPage(pg.f.devOff(pg.idx*PageSize), pg.frame.Load) {
		pg.frame.Reset()
	}
}

// Mprotect changes the mapping's protection. Downgrading to read-only
// rewrites the live PTEs and issues one batched shootdown; upgrading is lazy
// (shared-mapping stores always re-arm through write-protect faults).
func (m *Mapping) Mprotect(p *engine.Proc, readOnly bool) {
	m.os.charge(p, "syscall", cpu.Syscall+costSyscallKernelPath)
	m.pr.mmapSem.Lock(p)
	if readOnly && !m.v.readOnly {
		changed := 0
		for va := m.v.start; va < m.v.end; va += PageSize {
			if e, ok := m.pr.PT.Lookup(va); ok && e.Flags.Has(pagetable.FlagWritable) {
				m.pr.PT.Protect(va, pagetable.FlagUser|pagetable.FlagAccessed)
				m.os.charge(p, "pte", cpu.PTEUpdate)
				changed++
			}
		}
		if changed > 0 {
			m.pr.shootdown(p)
		}
	}
	m.v.readOnly = readOnly
	m.pr.mmapSem.Unlock(p)
}

// Mremap grows or shrinks the mapping. Growth relocates to a fresh virtual
// range, moving live PTEs (MREMAP_MAYMOVE semantics); shrinking unmaps the
// tail.
func (m *Mapping) Mremap(p *engine.Proc, newSize uint64) {
	m.os.charge(p, "syscall", cpu.Syscall+costSyscallKernelPath)
	m.pr.mmapSem.Lock(p)
	newPages := (newSize + PageSize - 1) / PageSize
	oldPages := (m.v.end - m.v.start) / PageSize
	switch {
	case newPages == oldPages:
	case newPages < oldPages:
		m.unmapSpan(p, m.v.start+newPages*PageSize, m.v.end)
		m.v.end = m.v.start + newPages*PageSize
	default:
		newStart := m.pr.nextVA
		m.pr.nextVA += (newPages + 16) * PageSize
		moved := 0
		for i := uint64(0); i < oldPages; i++ {
			oldVA := m.v.start + i*PageSize
			if e, ok := m.pr.PT.Lookup(oldVA); ok {
				m.pr.PT.Unmap(oldVA)
				m.pr.PT.Map(newStart+i*PageSize, e.Frame, e.Flags, pagetable.Size4K)
				m.os.charge(p, "pte", 2*cpu.PTEUpdate)
				if pg := m.os.Cache.find(p, m.f, i); pg != nil {
					pg.vas.Remove(mappedVA{m.pr, oldVA})
					pg.vas.Add(mappedVA{m.pr, newStart + i*PageSize})
				}
				moved++
			}
		}
		if moved > 0 {
			m.pr.shootdown(p)
		}
		m.pr.vmas.Remove(m.v)
		m.v.start, m.v.end = newStart, newStart+newPages*PageSize
		m.pr.vmas.Insert(m.v)
	}
	m.size = newSize
	m.pr.mmapSem.Unlock(p)
}
