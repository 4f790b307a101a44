// Package host simulates the Linux side of the paper's testbed: an
// extent-based filesystem over a block device, the kernel page cache (per-file
// radix trees guarded by tree_lock, a global LRU, dirty tracking and
// writeback), the mmap/page-fault path with 4.14-era fault-around readahead
// heuristics, buffered and O_DIRECT read/write syscalls, and the hypervisor
// services (vmcalls, EPT memory grants) that Aquila relies on for its
// uncommon-path operations.
//
// The structures are real implementations — a shared-file mmap workload
// really does serialize on that file's tree_lock, reclaim really walks a
// global LRU — so the scalability behaviour of Figures 5, 6 and 10 emerges
// from simulated lock queueing rather than being scripted.
package host

import (
	"fmt"

	"aquila/internal/detutil"
	"aquila/internal/obs"
	"aquila/internal/sim/cpu"
	"aquila/internal/sim/device"
	"aquila/internal/sim/engine"
	"aquila/internal/sim/mem"
	"aquila/internal/sim/pagetable"
)

// PageSize is the base page size.
const PageSize = mem.PageSize

// Params are the host kernel's software-path cost constants (cycles) and
// policy knobs. Defaults model Linux 4.14 on the paper's Xeon testbed.
type Params struct {
	// VMALookup is an rb-tree VMA lookup under mmap_sem.
	VMALookup uint64
	// RadixLookup is a page-cache radix-tree lookup (excluding the lock).
	RadixLookup uint64
	// RadixInsert is a radix-tree insertion.
	RadixInsert uint64
	// LRUUpdate is moving a page on the LRU lists.
	LRUUpdate uint64
	// FaultEntry is page-fault bookkeeping beyond the bare trap.
	FaultEntry uint64
	// BlockLayerSubmit is bio allocation + submission through the block
	// layer and NVMe driver.
	BlockLayerSubmit uint64
	// BlockLayerComplete is completion processing (softirq).
	BlockLayerComplete uint64
	// PMemBlockOverhead is the pmem block driver's per-request overhead.
	PMemBlockOverhead uint64
	// CopyToUser is charged per 4 KB moved between kernel and user
	// buffers for buffered syscalls (non-SIMD copy, §3.3).
	CopyToUser uint64
	// ShootdownBase and ShootdownPerCPU model the sender-side cost of a
	// kernel TLB shootdown (IPI broadcast + wait for acks).
	ShootdownBase   uint64
	ShootdownPerCPU uint64
	// SyscallKernelPath is generic syscall-path bookkeeping (fdtable,
	// vfs dispatch) beyond the bare trap.
	SyscallKernelPath uint64
	// DirectIOPathCost is the O_DIRECT setup cost per request
	// (get_user_pages, bio mapping, dio bookkeeping).
	DirectIOPathCost uint64
	// ReclaimPerPage is direct reclaim's per-victim cost beyond the
	// structure updates (page_referenced, rmap walk in try_to_unmap).
	ReclaimPerPage uint64

	// ReadAroundPages is the mmap fault read-around window (128 KB).
	ReadAroundPages int
	// MmapLotsamiss is the miss count after which fault read-around is
	// abandoned (MMAP_LOTSAMISS).
	MmapLotsamiss int
	// ReclaimBatch is the number of pages direct reclaim evicts at once
	// (SWAP_CLUSTER_MAX).
	ReclaimBatch int
	// DirtyRatio is the fraction of cache pages that may be dirty before
	// writers are throttled into writeback.
	DirtyRatio float64
}

// DefaultParams returns the calibrated host parameter set.
func DefaultParams() Params {
	return Params{
		VMALookup:          180,
		RadixLookup:        160,
		RadixInsert:        250,
		LRUUpdate:          120,
		FaultEntry:         650,
		BlockLayerSubmit:   1400,
		BlockLayerComplete: 1200,
		PMemBlockOverhead:  240,
		CopyToUser:         2400,
		ShootdownBase:      2000,
		ShootdownPerCPU:    250,
		SyscallKernelPath:  400,
		DirectIOPathCost:   7000,
		ReclaimPerPage:     1800,
		ReadAroundPages:    32,
		MmapLotsamiss:      100,
		ReclaimBatch:       32,
		DirtyRatio:         0.10,
	}
}

// Disk couples device content with a timing model and a device class.
type Disk struct {
	Name    string
	Content *device.Store
	Timing  device.Timing
	PMem    bool // byte-addressable (kernel path is a memcpy, no interrupt)
}

// NewPMemDisk wraps a pmem device as a host block device.
func NewPMemDisk(name string, d *device.PMem) *Disk {
	return &Disk{Name: name, Content: d.Store, Timing: d, PMem: true}
}

// NewNVMeDisk wraps an NVMe device as a host block device.
func NewNVMeDisk(name string, d *device.NVMe) *Disk {
	return &Disk{Name: name, Content: d.Store, Timing: d, PMem: false}
}

// Process is one simulated process: its own page table (ASID-tagged in the
// shared hardware TLBs), VMA set under its own mmap_sem, and mm_cpumask.
// Shared file mappings from different processes meet in the one page cache —
// the sharing §2.1 builds on.
type Process struct {
	os *OS
	// ID is the process id (1-based; NewOS creates process 1).
	ID      int
	PT      *pagetable.Table
	mmapSem *engine.RWMutex
	vmas    detutil.RangeSet[*vma]
	// mmMask tracks CPUs that have touched this address space
	// (mm_cpumask): TLB shootdowns target only these.
	mmMask []bool
	// nextVA is the mmap area allocation cursor.
	nextVA uint64
}

// noteCPU records a CPU in the process's mm_cpumask.
func (pr *Process) noteCPU(cpu int) { pr.mmMask[cpu] = true }

// OS is one simulated Linux instance hosting one or more (multi-threaded)
// processes. All paper experiments use a single process; multi-process
// sharing of file mappings is exercised by tests.
type OS struct {
	E     *engine.Engine
	C     cpu.Costs
	P     Params
	FS    *FS
	Cache *PageCache
	TLBs  *cpu.TLBSet
	HV    *Hypervisor

	procs []*Process
	// PT aliases the default process's page table (compatibility for
	// single-process callers and tests).
	PT *pagetable.Table

	// Reg is the metrics registry (never nil; private unless AttachObs is
	// called). Break attributes kernel fault-path cycles to components,
	// interned as "linux_fault_cycles".
	Reg   *obs.Registry
	Break *obs.Breakdown
}

// AttachObs points the OS at a shared metrics registry. label (may be empty)
// distinguishes this OS's series when several share a registry. Call right
// after NewOS, before the simulation runs: breakdowns accumulated so far stay
// in the previous registry.
func (os *OS) AttachObs(reg *obs.Registry, label string) {
	if reg == nil {
		return
	}
	os.Reg = reg
	var labels []obs.Label
	if label != "" {
		labels = append(labels, obs.L("world", label))
	}
	os.Break = reg.Breakdown("linux_fault_cycles", labels...)
}

// charge advances p by cyc system cycles and attributes them to a breakdown
// category. The advance is identical to a bare AdvanceSystem, so attribution
// never alters simulated timing.
func (os *OS) charge(p *engine.Proc, cat string, cyc uint64) {
	p.AdvanceSystem(cyc)
	os.Break.Add(cat, cyc)
}

// NewProcess forks a fresh address space sharing this OS's page cache.
func (os *OS) NewProcess() *Process {
	pr := &Process{
		os:      os,
		ID:      len(os.procs) + 1,
		PT:      pagetable.New(uint32(len(os.procs) + 1)),
		mmapSem: engine.NewRWMutex(os.E, fmt.Sprintf("mmap_sem.%d", len(os.procs)+1)),
		mmMask:  make([]bool, os.E.NumCPUs()),
		nextVA:  0x7f00_0000_0000,
	}
	os.procs = append(os.procs, pr)
	return pr
}

// DefaultProcess returns process 1, the one single-process callers use.
func (os *OS) DefaultProcess() *Process { return os.procs[0] }

// NewOS boots a host with the given disk and page-cache capacity (the
// cgroup memory limit of §5).
func NewOS(e *engine.Engine, disk *Disk, cacheBytes uint64) *OS {
	os := &OS{
		E:    e,
		C:    cpu.Default(),
		P:    DefaultParams(),
		TLBs: cpu.NewTLBSet(e.NumCPUs(), 1536, 17),
		Reg:  obs.NewRegistry(),
	}
	os.Break = os.Reg.Breakdown("linux_fault_cycles")
	os.FS = newFS(os, disk)
	os.Cache = newPageCache(os, cacheBytes)
	os.HV = newHypervisor(os)
	os.PT = os.NewProcess().PT
	return os
}

// Disk returns the block device the filesystem lives on.
func (os *OS) Disk() *Disk { return os.FS.disk }

// blockRead moves bytes from the disk into a kernel buffer, charging the
// full kernel block-layer path.
func (os *OS) blockRead(p *engine.Proc, off uint64, buf []byte) {
	os.blockIO(p, "lx.block_io", "block-io", off, len(buf), false)
	os.FS.disk.Content.ReadAt(off, buf)
}

// blockWrite moves bytes from a kernel buffer to the disk. The staged
// content becomes durable at the device completion cycle, not at submission.
func (os *OS) blockWrite(p *engine.Proc, off uint64, buf []byte) {
	os.FS.disk.Content.WriteAt(off, buf)
	os.blockIO(p, "lx.block_io", "block-io", off, len(buf), true)
}

// blockIO is the block layer's one timed path: every kernel read and write of
// n bytes at device offset off pays it, whoever moves the content — syscalls,
// write-back, and the cache's window fills (fillWindow). For pmem the transfer
// is a kernel memcpy; for NVMe the bio goes through the block layer and the
// process sleeps until the interrupt-driven completion. span names the I/O in
// the profile, cat is the breakdown category its software cycles land in.
// A write's content must already be staged (Store.WriteAt): staging is where
// crash plans cut and tears are drawn, so it stays at the caller's program
// point, ahead of the span. Here the staged range gets its durability point —
// the device completion cycle, not submission — and callers return only after
// the wait below, so what they acknowledge is on durable media.
func (os *OS) blockIO(p *engine.Proc, span, cat string, off uint64, n int, write bool) {
	disk := os.FS.disk
	p.BeginSpan(span)
	defer p.EndSpan()
	if disk.PMem {
		os.charge(p, cat, os.P.PMemBlockOverhead+os.C.MemcpyNoSIMD(n))
	} else {
		os.charge(p, cat, os.P.BlockLayerSubmit)
	}
	done := disk.Timing.Submit(p.Now(), n, write)
	if write {
		disk.Content.Persist(off, n, done)
	}
	p.WaitUntil(done, engine.KindIOWait)
	if !disk.PMem {
		os.charge(p, cat, os.P.BlockLayerComplete+os.C.InterruptDelivery+os.C.ContextSwitch)
	}
}

// shootdown models a kernel TLB shootdown for a batch of already-unmapped
// pages, however many: the sender broadcasts IPIs and waits for acks; every
// other CPU absorbs an invalidation interrupt and flushes. Batched per reclaim
// cycle, like the kernel's reclaim-time TLB batching.
func (pr *Process) shootdown(p *engine.Proc) {
	os := pr.os
	p.BeginSpan("lx.shootdown")
	defer p.EndSpan()
	targets := 0
	for c, used := range pr.mmMask {
		if used && c != p.CPU() {
			targets++
		}
	}
	os.charge(p, "shootdown", os.P.ShootdownBase+os.P.ShootdownPerCPU*uint64(targets))
	recv := os.C.IPIReceive + os.C.TLBFlushAll
	for c, used := range pr.mmMask {
		if !used || c == p.CPU() {
			continue
		}
		os.E.PostIRQ(c, recv)
		os.TLBs.CPU(c).FlushAll()
	}
	os.TLBs.CPU(p.CPU()).FlushAll()
	os.charge(p, "shootdown", os.C.TLBFlushAll)
}

// procSet is the set of processes whose PTEs one batch of pages changed, as
// flags indexed by process ID. Not a map: each shootdown advances the sender's
// clock and posts IRQs, so the order they go out in has to be a function of
// the batch — shootdownAll walks os.procs — and not of a map's iteration.
type procSet []bool

func (s procSet) add(pr *Process) procSet {
	for len(s) < pr.ID {
		s = append(s, false)
	}
	s[pr.ID-1] = true
	return s
}

// shootdownAll is the one fan-out of write-back, reclaim and truncate: a
// batched shootdown in every process of the set, in process-ID order.
func (os *OS) shootdownAll(p *engine.Proc, set procSet) {
	for i, hit := range set {
		if hit {
			os.procs[i].shootdown(p)
		}
	}
}
