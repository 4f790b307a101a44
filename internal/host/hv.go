package host

import (
	"aquila/internal/sim/cpu"
	"aquila/internal/sim/engine"
	"aquila/internal/sim/pagetable"
)

// Hypervisor models the VMX-root services Aquila needs for its uncommon-path
// operations (§3.4, §3.5): vmcall handling, EPT management with 1 GB pages
// for guest DRAM-cache grants, and rate-limited posted-IPI sends for the
// batched TLB shootdowns of §4.1.
type Hypervisor struct {
	os *OS
	// ept is the extended page table (GPA -> HPA), one per process (§3.5:
	// Aquila replaces Dune's per-thread EPT with a per-process one).
	ept *pagetable.Table

	// Stats.
	VMCalls      uint64
	GrantedBytes uint64
	IPIBatches   uint64
	IPITargets   uint64
}

func newHypervisor(os *OS) *Hypervisor {
	return &Hypervisor{os: os, ept: pagetable.New(0xEF7)}
}

// VMCall executes a hypercall: vmexit, handlerCycles of root-mode work,
// vmentry. All charged as system time on the caller.
func (hv *Hypervisor) VMCall(p *engine.Proc, handlerCycles uint64) {
	hv.VMCalls++
	p.AdvanceSystem(cpu.VMExit + handlerCycles + cpu.VMEntry)
}

// GrantRegion maps `bytes` of host DRAM into the guest physical address
// space starting at gpa, using 1 GB EPT pages (§3.5). Called via vmcall when
// Aquila grows its DRAM cache.
func (hv *Hypervisor) GrantRegion(p *engine.Proc, gpa, bytes uint64) {
	hv.VMCall(p, 3000) // root-mode allocation bookkeeping
	for off := uint64(0); off < bytes; off += pagetable.Size1G {
		hv.ept.Map(gpa+off, (gpa+off)>>12, pagetable.FlagWritable, pagetable.Size1G)
		p.AdvanceSystem(cpu.PTEUpdate)
	}
	hv.GrantedBytes += bytes
}

// ReclaimRegion unmaps a granted region (cache shrink).
func (hv *Hypervisor) ReclaimRegion(p *engine.Proc, gpa, bytes uint64) {
	hv.VMCall(p, 3000)
	hv.ept.UnmapRange(gpa, bytes)
	hv.GrantedBytes -= bytes
}

// SendShootdownIPIs is Aquila's batched-invalidation send path: one vmexit
// for rate limiting (§4.1: 2081 cycles instead of 298), then posted IPIs to
// each target, received without vmexits. The receiver-side work is delivered
// as interrupt load.
func (hv *Hypervisor) SendShootdownIPIs(p *engine.Proc, targets []int, recvCycles uint64) {
	hv.IPIBatches++
	p.AdvanceSystem(cpu.IPISendVMExit)
	for _, c := range targets {
		if c == p.CPU() {
			continue
		}
		hv.IPITargets++
		p.AdvanceSystem(100) // per-target posted-interrupt descriptor write
		hv.os.E.PostIRQ(c, recvCycles)
	}
}

// DirectIOTimed charges the timing of a guest-issued direct I/O through the
// host kernel (vmcall + syscall + block path + device) without moving
// content; Aquila's HOST-* engines move content per page themselves. It
// returns the device completion cycle — the durability point the caller must
// pass to Store.Persist for any content it staged before calling.
func (os *OS) DirectIOTimed(p *engine.Proc, bytes int, write bool) uint64 {
	p.AdvanceSystem(cpu.VMExit + cpu.Syscall + costSyscallKernelPath + costDirectIOPath)
	disk := os.FS.disk
	if disk.PMem {
		p.AdvanceSystem(PMemBlockOverhead + cpu.MemcpyNoSIMD(bytes))
	} else {
		p.AdvanceSystem(costBlockLayerSubmit)
	}
	done := disk.Timing.Submit(p.Now(), bytes, write)
	p.WaitUntil(done, engine.KindIOWait)
	if !disk.PMem {
		p.AdvanceSystem(costBlockLayerComplete + cpu.InterruptDelivery + cpu.ContextSwitch)
	}
	p.AdvanceSystem(cpu.VMEntry)
	return done
}

// DirectReadHost is the HOST-pmem / HOST-NVMe I/O engine entry point of
// Fig 8(c): Aquila issues a direct-I/O read through the host kernel, paying
// a vmcall on top of the syscall path.
func (os *OS) DirectReadHost(p *engine.Proc, f *FSFile, off uint64, buf []byte) {
	p.AdvanceSystem(cpu.VMExit + cpu.Syscall + costSyscallKernelPath + costDirectIOPath)
	os.blockRead(p, f.devOff(off), buf)
	p.AdvanceSystem(cpu.VMEntry)
}

// DirectWriteHost is the write-side HOST-* engine.
func (os *OS) DirectWriteHost(p *engine.Proc, f *FSFile, off uint64, buf []byte) {
	p.AdvanceSystem(cpu.VMExit + cpu.Syscall + costSyscallKernelPath + costDirectIOPath)
	os.blockWrite(p, f.devOff(off), buf)
	p.AdvanceSystem(cpu.VMEntry)
}
