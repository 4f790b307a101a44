package core

import (
	"fmt"

	"aquila/internal/sim/cpu"
	"aquila/internal/sim/engine"
	"aquila/internal/sim/pagetable"
)

// DirectMapping maps byte-addressable NVM straight into the application's
// address space with 2 MB pages and no DRAM cache in between — the
// alternative §3.3 contrasts with Aquila's DRAM-cached design ("it can be
// either mapped directly to the program address space or used as a backing
// device for a DRAM I/O cache; the two approaches have different tradeoffs
// for access latency and throughput").
//
// There are no faults after setup (the whole range is mapped eagerly with
// huge pages), but every access pays the NVM media's latency and bandwidth,
// which for Optane-PMM-class devices is ~3x worse than DRAM (§7.1).
type DirectMapping struct {
	rt   *Runtime
	eng  *DAXEngine
	f    *fileState
	base uint64
	size uint64
	// mediaReads/mediaWrites count accesses (stats).
	MediaReads  uint64
	MediaWrites uint64
	// errCursor is this mapping's position in the file's writeback error
	// sequence (media errors detected on direct stores record there).
	errCursor uint64
}

// MmapDirectNVM maps f's first size bytes directly (DAX, 2 MB pages).
// Requires the DAX engine: the device must be byte-addressable.
func (rt *Runtime) MmapDirectNVM(p *engine.Proc, f *fileState, size uint64) *DirectMapping {
	eng, ok := rt.Engine.(*DAXEngine)
	if !ok {
		panic("core: direct NVM mapping requires the DAX engine")
	}
	rt.Host.HV.VMCall(p, costVspaceVMCall)
	const huge = pagetable.Size2M
	pages := (size + huge - 1) / huge
	base := rt.nextVA
	// Align the region base to the huge-page size.
	base = (base + huge - 1) &^ uint64(huge-1)
	rt.nextVA = base + (pages+1)*huge
	hf := eng.file(f)
	for i := uint64(0); i < pages; i++ {
		// The "frame" of a direct mapping is the device offset itself;
		// no DRAM is involved.
		rt.PT.Map(base+i*huge, hf.DevOffset(i*huge)>>12,
			pagetable.FlagUser|pagetable.FlagWritable, huge)
		rt.charge(p, "map-pte", cpu.PTEUpdate)
	}
	return &DirectMapping{rt: rt, eng: eng, f: f, base: base, size: size,
		errCursor: f.wbErr.sample()}
}

// Size returns the mapped length.
func (m *DirectMapping) Size() uint64 { return m.size }

// Load reads directly from the NVM media: no fault, no cache — the access
// cost is the media itself plus the load issue cost. A load from a poisoned
// line machine-checks: the simulated equivalent is a typed SIGBUS panic,
// exactly what the kernel delivers for an MCE on a DAX mapping.
func (m *DirectMapping) Load(p *engine.Proc, off uint64, buf []byte) {
	m.checkRange(off, len(buf))
	m.MediaReads++
	hf := m.eng.file(m.f)
	st := m.eng.OS.Disk().Content
	devOff := hf.DevOffset(off)
	delay, ferr := st.Check(p.Now(), devOff, len(buf), false)
	if ferr != nil {
		panic(&SigBus{VA: m.base + off, File: m.f.name,
			Err: newIOFault("read", m.f.name, off/pageSize, ferr)})
	}
	st.ReadAt(devOff, buf)
	p.AdvanceUser(m.eng.PMemCost(len(buf)) + cpu.LoadStore(len(buf)) + delay)
}

// Store writes directly to the NVM media, including the persistence flush
// (clwb + fence) a direct-access store path must issue. A media error on the
// flush does not trap the store (writes are posted); it is recorded in the
// file's error sequence and surfaces on the next Msync, matching how real
// pmem reports failed flushes.
func (m *DirectMapping) Store(p *engine.Proc, off uint64, buf []byte) {
	m.checkRange(off, len(buf))
	m.MediaWrites++
	hf := m.eng.file(m.f)
	st := m.eng.OS.Disk().Content
	devOff := hf.DevOffset(off)
	delay, ferr := st.Check(p.Now(), devOff, len(buf), true)
	if ferr != nil {
		m.f.wbErr.record(newIOFault("write", m.f.name, off/pageSize, ferr))
	} else {
		st.WriteAt(devOff, buf)
	}
	lines := uint64(len(buf)+63) / 64
	p.AdvanceUser(m.eng.PMemCost(len(buf)) + cpu.LoadStore(len(buf)) + lines*costFlushLine + costStoreFence + delay)
	if ferr == nil {
		// The clwb+fence has drained the stores to the persistent domain.
		st.Persist(devOff, len(buf), p.Now())
	}
}

// Msync is a fence (stores already reached the media) plus the errseq check:
// a DAX mapping reports media errors detected by earlier flushes exactly
// once per caller, like any other mapping.
func (m *DirectMapping) Msync(p *engine.Proc) error {
	p.AdvanceUser(costDirectMsync)
	return m.f.wbErr.check(&m.errCursor)
}

func (m *DirectMapping) checkRange(off uint64, n int) {
	if off+uint64(n) > m.size {
		panic(fmt.Sprintf("core: direct mapping access [%d,%d) beyond size %d",
			off, off+uint64(n), m.size))
	}
}

// PMemCost returns the media cost of accessing n bytes on the engine's
// device.
func (e *DAXEngine) PMemCost(n int) uint64 {
	if pm, ok := e.OS.Disk().Timing.(interface{ AccessCycles(int) uint64 }); ok {
		return pm.AccessCycles(n)
	}
	return 0
}
