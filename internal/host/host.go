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

// The host kernel's software-path costs, in cycles: Linux 4.14 on the
// paper's Xeon testbed.
const (
	// costVMALookup is an rb-tree VMA lookup under mmap_sem.
	costVMALookup uint64 = 180
	// costRadixLookup is a page-cache radix-tree lookup (excluding the lock).
	costRadixLookup uint64 = 160
	// costRadixInsert is a radix-tree insertion.
	costRadixInsert uint64 = 250
	// costLRUUpdate is moving a page on the LRU lists.
	costLRUUpdate uint64 = 120
	// costFaultEntry is page-fault bookkeeping beyond the bare trap.
	costFaultEntry uint64 = 650
	// costBlockLayerSubmit is bio allocation + submission through the block
	// layer and NVMe driver.
	costBlockLayerSubmit uint64 = 1400
	// costBlockLayerComplete is completion processing (softirq).
	costBlockLayerComplete uint64 = 1200
	// PMemBlockOverhead is the pmem block driver's per-request overhead
	// (exported for the harness's split of a read into device and kernel
	// shares).
	PMemBlockOverhead uint64 = 240
	// costCopyToUser is charged per 4 KB moved between kernel and user
	// buffers for buffered syscalls (non-SIMD copy, §3.3).
	costCopyToUser uint64 = 2400
	// costShootdownBase and costShootdownPerCPU model the sender-side cost
	// of a kernel TLB shootdown (IPI broadcast + wait for acks).
	costShootdownBase   uint64 = 2000
	costShootdownPerCPU uint64 = 250
	// costSyscallKernelPath is generic syscall-path bookkeeping (fdtable,
	// vfs dispatch) beyond the bare trap.
	costSyscallKernelPath uint64 = 400
	// costDirectIOPath is the O_DIRECT setup cost per request
	// (get_user_pages, bio mapping, dio bookkeeping).
	costDirectIOPath uint64 = 7000
	// costReclaimPerPage is direct reclaim's per-victim cost beyond the
	// structure updates (page_referenced, rmap walk in try_to_unmap).
	costReclaimPerPage uint64 = 1800
	// costGrantHandler and costReclaimHandler are the hypervisor's root-mode
	// bookkeeping (VMCall handler cycles) to grow and shrink the DRAM grant.
	costGrantHandler   uint64 = 3000
	costReclaimHandler uint64 = 3000
	// costPostedIRQWrite is a shootdown's posted-interrupt descriptor write per target.
	costPostedIRQWrite uint64 = 100
)

const (
	// readAroundPages is the mmap fault read-around window (128 KB).
	readAroundPages = 32
	// mmapLotsamiss is the miss count after which fault read-around is
	// abandoned (MMAP_LOTSAMISS).
	mmapLotsamiss = 100
	// reclaimBatch is the number of pages direct reclaim evicts at once
	// (SWAP_CLUSTER_MAX).
	reclaimBatch = 32
)

// Params are the host kernel's policy knobs.
type Params struct {
	// DirtyRatio is the fraction of cache pages that may be dirty before
	// writers are throttled into writeback.
	DirtyRatio float64
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
	P     Params
	FS    *FS
	Cache *PageCache
	TLBs  *cpu.TLBSet
	HV    *Hypervisor

	procs []*Process

	// Break attributes kernel fault-path cycles to components, interned in
	// the engine's registry as "linux_fault_cycles".
	Break *obs.Breakdown
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
		P:    Params{DirtyRatio: 0.10},
		TLBs: cpu.NewTLBSet(e.NumCPUs(), 1536, 17),
	}
	reg, labels := e.Metrics()
	os.Break = reg.Breakdown("linux_fault_cycles", labels...)
	os.FS = newFS(os, disk)
	os.Cache = newPageCache(os, cacheBytes)
	os.HV = newHypervisor(os)
	os.NewProcess() // the default process
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
		os.charge(p, cat, PMemBlockOverhead+cpu.MemcpyNoSIMD(n))
	} else {
		os.charge(p, cat, costBlockLayerSubmit)
	}
	done := disk.Timing.Submit(p.Now(), n, write)
	if write {
		disk.Content.Persist(off, n, done)
	}
	p.WaitUntil(done, engine.KindIOWait)
	if !disk.PMem {
		os.charge(p, cat, costBlockLayerComplete+cpu.InterruptDelivery+cpu.ContextSwitch)
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
	os.charge(p, "shootdown", costShootdownBase+costShootdownPerCPU*uint64(targets))
	recv := cpu.IPIReceive + cpu.TLBFlushAll
	for c, used := range pr.mmMask {
		if !used || c == p.CPU() {
			continue
		}
		os.E.PostIRQ(c, recv)
		os.TLBs.CPU(c).FlushAll()
	}
	os.TLBs.CPU(p.CPU()).FlushAll()
	os.charge(p, "shootdown", cpu.TLBFlushAll)
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
