package core

import (
	"fmt"

	"aquila/internal/iface"
	"aquila/internal/sim/cpu"
	"aquila/internal/sim/engine"
	"aquila/internal/sim/pagetable"
)

// AqMapping is a memory mapping under Aquila, compatible with Linux mmap
// semantics (shared, file-backed) but served by the ring-0 mmio path.
type AqMapping struct {
	rt   *Runtime
	r    *Region
	size uint64
	dead bool
	// errCursor is this mapping's position in the file's writeback error
	// sequence: errors recorded before the mapping was created are not
	// re-reported to it, and each later error is reported exactly once.
	errCursor uint64
}

var _ iface.Mapping = (*AqMapping)(nil)

// Size implements iface.Mapping.
func (m *AqMapping) Size() uint64 { return m.size }

// Advise implements iface.Mapping. madvise is intercepted in ring 0: it is a
// function call, not a syscall (§4.4).
func (m *AqMapping) Advise(p *engine.Proc, advice iface.Advice) {
	p.AdvanceSystem(costMsyncEntry)
	if advice == iface.AdviceHuge {
		// MADV_HUGEPAGE composes with, rather than replaces, the
		// access-pattern advice: the region keeps its readahead class and
		// additionally promotes extents on first fault.
		m.r.HugeHint = true
		return
	}
	m.r.Advice = advice
}

// Load implements iface.Mapping.
func (m *AqMapping) Load(p *engine.Proc, off uint64, buf []byte) {
	m.checkRange(off, len(buf))
	for n := 0; n < len(buf); {
		va := m.r.Start + off + uint64(n)
		po := int(va % pageSize)
		chunk := pageSize - po
		if chunk > len(buf)-n {
			chunk = len(buf) - n
		}
		frame, err := m.rt.resolve(p, va, false)
		if err != nil {
			// The mmap load/store interface has no error channel; a failed
			// fault-in (poisoned page, stalled eviction) surfaces like the
			// kernel's SIGBUS, typed so handlers can recover and inspect it.
			panic(&SigBus{VA: va, File: m.r.File.name, Err: err})
		}
		frame.ReadAt(buf[n:n+chunk], po)
		p.AdvanceUser(cpu.LoadStore(chunk))
		n += chunk
	}
}

// Store implements iface.Mapping.
func (m *AqMapping) Store(p *engine.Proc, off uint64, buf []byte) {
	if m.r.ReadOnly {
		panic(&SigSegv{File: m.r.File.name, Reason: "store to read-only mapping"})
	}
	m.checkRange(off, len(buf))
	for n := 0; n < len(buf); {
		va := m.r.Start + off + uint64(n)
		po := int(va % pageSize)
		chunk := pageSize - po
		if chunk > len(buf)-n {
			chunk = len(buf) - n
		}
		frame, err := m.rt.resolve(p, va, true)
		if err != nil {
			panic(&SigBus{VA: va, File: m.r.File.name, Err: err})
		}
		frame.WriteAt(po, buf[n:n+chunk])
		p.AdvanceUser(cpu.LoadStore(chunk))
		n += chunk
	}
}

// Msync implements iface.Mapping: write back, then report the first
// writeback error this mapping has not yet seen (errseq semantics — the
// error may come from this very writeback or from an earlier background
// eviction pass).
func (m *AqMapping) Msync(p *engine.Proc) error {
	m.rt.msyncFile(p, m.r.File)
	return m.r.File.wbErr.check(&m.errCursor)
}

// MsyncRange implements iface.Mapping: intercepted in ring 0, and the
// collection is bounded by the range — each core's dirty pages of it, in
// device order (msyncFileRange walks the file's page index).
func (m *AqMapping) MsyncRange(p *engine.Proc, off, length uint64) error {
	m.rt.msyncFileRange(p, m.r.File, off, length)
	return m.r.File.wbErr.check(&m.errCursor)
}

// Mprotect changes the mapping's protection (§4.4: intercepted in ring 0, a
// function call rather than a syscall). Downgrading to read-only rewrites
// live PTEs and issues one batched shootdown; upgrading back is lazy (the
// next store takes a write-protect fault).
func (m *AqMapping) Mprotect(p *engine.Proc, readOnly bool) {
	p.AdvanceSystem(costMsyncEntry)
	if readOnly && !m.r.ReadOnly {
		changed := 0
		for va := m.r.Start; va < m.r.End; {
			step := uint64(pageSize)
			if e, ok := m.rt.PT.Lookup(va); ok {
				if e.PageSize == pagetable.Size2M {
					step = pagetable.Size2M // one PTE covers the whole extent
				}
				if e.Flags.Has(pagetable.FlagWritable) {
					m.rt.PT.Protect(va, pagetable.FlagUser|pagetable.FlagAccessed)
					m.rt.charge(p, "map-pte", cpu.PTEUpdate)
					changed++
				}
			}
			va += step
		}
		if changed > 0 {
			m.rt.shootdown(p)
		}
	}
	m.r.ReadOnly = readOnly
}

// Mremap grows or shrinks the mapping (§4.4). Growth relocates the region to
// a fresh virtual range, moving live PTEs (one batched shootdown for the old
// range) and freeing the old range's table pages; shrinking unmaps the tail.
// The mapping's pages stay cached either way.
func (m *AqMapping) Mremap(p *engine.Proc, newSize uint64) {
	rt := m.rt
	rt.Host.HV.VMCall(p, costVspaceVMCall) // range updates interact with root ring 0
	newPages := (newSize + pageSize - 1) / pageSize
	oldPages := m.r.Pages()
	switch {
	case newPages == oldPages:
	case newPages < oldPages:
		// Shrink in place: unmap the tail. A huge unit straddling the new end
		// must demote first — its tail leaves the mapping while its head
		// stays, and a 2 MB PTE cannot be half-unmapped.
		if rt.hugeEnabled() && newPages%uint64(hugePages) != 0 {
			for {
				unit := rt.lookupPage(m.r.File, newPages)
				if unit == nil || !unit.huge {
					break
				}
				if unit.busy() {
					unit.ev.Wait(p)
					continue
				}
				if unit.pins > 0 {
					p.Yield()
					continue
				}
				rt.splitUnit(p, unit, -1)
				break
			}
		}
		if unmapped := rt.unmapSpan(p, m.r, m.r.Start+newPages*pageSize, m.r.End); unmapped > 0 {
			rt.shootdown(p)
		}
		rt.vs.Remove(m.r)
		m.r.End = m.r.Start + newPages*pageSize
		rt.vs.Insert(m.r)
		rt.charge(p, "vspace", 4*costRadixLookup)
	default:
		// Grow: relocate to a fresh range, moving live translations. Huge
		// entries move whole: both bases are 2 MB-aligned, so the extent
		// offset keeps its alignment at the new range.
		newStart := rt.nextVA
		if rt.hugeEnabled() {
			newStart = (newStart + hugeBytes - 1) &^ uint64(hugeBytes-1)
		}
		rt.nextVA = newStart + (newPages+16)*pageSize
		moved := 0
		for i := uint64(0); i < oldPages; {
			oldVA := m.r.Start + i*pageSize
			e, ok := rt.PT.Lookup(oldVA)
			if !ok {
				i++
				continue
			}
			size, span := uint64(pagetable.Size4K), uint64(1)
			if e.PageSize == pagetable.Size2M {
				size, span = pagetable.Size2M, hugePages
			}
			rt.PT.Unmap(oldVA)
			rt.PT.Map(newStart+i*pageSize, e.Frame, e.Flags, size)
			rt.charge(p, "map-pte", 2*cpu.PTEUpdate)
			if pg := rt.lookupPage(m.r.File, i); pg != nil {
				pg.vas.Remove(oldVA)
				pg.vas.Add(newStart + i*pageSize)
			}
			moved++
			i += span
		}
		if moved > 0 {
			rt.shootdown(p)
		}
		rt.PT.Release(m.r.Start, m.r.End)
		rt.vs.Remove(m.r)
		m.r.File.pages.Reserve(newPages)
		m.r.Start, m.r.End = newStart, newStart+newPages*pageSize
		rt.vs.Insert(m.r)
		rt.charge(p, "vspace", 8*costRadixLookup)
	}
	m.size = newSize
}

// Munmap implements iface.Mapping.
func (m *AqMapping) Munmap(p *engine.Proc) {
	if m.dead {
		return
	}
	m.dead = true
	m.rt.munmapRegion(p, m.r)
}

func (m *AqMapping) checkRange(off uint64, n int) {
	if off+uint64(n) > m.size {
		panic(fmt.Sprintf("core: mapping access [%d,%d) beyond size %d", off, off+uint64(n), m.size))
	}
}

// AqFile is explicit file I/O under Aquila: intercepted in ring 0 and issued
// directly through the configured I/O engine, bypassing the DRAM cache.
// Intended for write-once data such as LSM tables; mixing cached mappings
// and direct writes to the same live pages is the application's
// responsibility, exactly as with O_DIRECT on Linux.
type AqFile struct {
	rt *Runtime
	f  *fileState
	// errCursor: this descriptor's position in the file's writeback error
	// sequence (see AqMapping.errCursor).
	errCursor uint64
}

var _ iface.File = (*AqFile)(nil)

// Name implements iface.File.
func (af *AqFile) Name() string { return af.f.name }

// Size implements iface.File.
func (af *AqFile) Size() uint64 { return af.rt.Engine.size(af.f) }

// Pread implements iface.File.
func (af *AqFile) Pread(p *engine.Proc, buf []byte, off uint64) error {
	return af.rt.Engine.DirectRead(p, af.f, off, buf)
}

// Pwrite implements iface.File.
func (af *AqFile) Pwrite(p *engine.Proc, buf []byte, off uint64) error {
	if err := af.rt.Engine.DirectWrite(p, af.f, off, buf); err != nil {
		return err
	}
	if off+uint64(len(buf)) > af.f.size {
		af.f.size = off + uint64(len(buf))
	}
	return nil
}

// Fsync implements iface.File: engine writes are synchronous and unbuffered,
// so beyond metadata ordering it only drains this descriptor's view of the
// file's writeback error sequence (dirty mmap pages of the same file may
// have failed background writeback).
func (af *AqFile) Fsync(p *engine.Proc) error {
	p.BeginSpan("aq.fsync")
	defer p.EndSpan()
	p.AdvanceSystem(costMsyncEntry)
	return af.f.wbErr.check(&af.errCursor)
}

// Namespace adapts a Runtime to iface.Namespace so applications written
// against the shared interfaces run unmodified over Aquila.
type Namespace struct {
	RT *Runtime
}

var _ iface.Namespace = (*Namespace)(nil)

// Create implements iface.Namespace.
func (ns *Namespace) Create(p *engine.Proc, name string, size uint64) iface.File {
	f := ns.RT.CreateFile(p, name, size)
	return &AqFile{rt: ns.RT, f: f, errCursor: f.wbErr.sample()}
}

// Delete implements iface.Namespace.
func (ns *Namespace) Delete(p *engine.Proc, name string) { ns.RT.DeleteFile(p, name) }

// Mmap implements iface.Namespace.
func (ns *Namespace) Mmap(p *engine.Proc, f iface.File, size uint64) iface.Mapping {
	af, ok := f.(*AqFile)
	if !ok {
		panic("core: Mmap of non-Aquila file")
	}
	return ns.RT.Mmap(p, af.f, size)
}
