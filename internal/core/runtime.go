package core

import (
	"cmp"
	"errors"
	"fmt"
	"iter"
	"slices"

	"aquila/internal/detutil"
	"aquila/internal/host"
	"aquila/internal/iface"
	"aquila/internal/obs"
	"aquila/internal/sim/cpu"
	"aquila/internal/sim/device"
	"aquila/internal/sim/engine"
	"aquila/internal/sim/mem"
	"aquila/internal/sim/pagetable"
)

// Stats are Aquila's operation counters.
type Stats struct {
	MajorFaults      uint64
	MinorFaults      uint64
	WPFaults         uint64
	Evictions        uint64
	WrittenBack      uint64
	ShootdownBatches uint64
	ReadaheadPages   uint64
	// DirectReclaimPages and BgReclaimPages split Evictions by who did the
	// work: the faulting proc inline vs the background evictor daemons.
	DirectReclaimPages uint64
	BgReclaimPages     uint64
	// EvictStalls counts rounds in which an allocation found every reclaim
	// candidate busy and had to yield or throttle-wait.
	EvictStalls uint64
	// IORetries counts transient device errors absorbed by the bounded
	// retry/backoff policy (ioRetryLimit / ioRetryBackoff).
	IORetries uint64
	// PoisonedPages counts pages whose fill I/O failed permanently; any
	// access to them delivers SIGBUS.
	PoisonedPages uint64
	// QuarantinedPages counts dirty pages whose writeback failed permanently
	// and that are now pinned in DRAM (never dropped, never re-selected).
	QuarantinedPages uint64
	// RequeuedPages counts pages whose writeback failed transiently even
	// after retries and that were put back on the dirty list for a later
	// writeback pass.
	RequeuedPages uint64
	// SyncWritebackFallbacks counts background-evict batches that fell back
	// from overlapped to synchronous writeback after repeated failures.
	SyncWritebackFallbacks uint64
	// HugeFaults counts faults served by a 2 MB unit: promotions, minor
	// faults mapping an existing unit, and write upgrades on units.
	HugeFaults uint64
	// HugePromotions counts extents collapsed into one 2 MB unit.
	HugePromotions uint64
	// HugeDemotions counts units split back into 4 KB pages (first dirtying
	// store on a clean unit, failed merged fill, boundary operations).
	HugeDemotions uint64
	// HugeEvictions counts whole-unit evictions: one shootdown slot and one
	// merged 2 MB writeback per unit.
	HugeEvictions uint64
	// RestoredWBErrors counts files whose writeback error sequence was
	// re-seeded from a crash image at create, so a pre-crash unreported
	// error still surfaces exactly once after recovery.
	RestoredWBErrors uint64
}

// Eviction stall handling: an empty selection round means every cached page
// is pinned or under I/O. The first evictStallYields rounds yield for free
// (letting the I/O owners progress — historical behavior); past that the
// allocation burns a bounded throttled-wait budget in quanta of simulated
// time, and only then gives up with ErrEvictionStalled instead of the former
// hard panic.
const (
	// evictStallYields matches the threshold at which the runtime formerly
	// panicked, so runs that completed before behave identically.
	evictStallYields = 10000
	// evictStallQuantum is one throttled wait (~8 µs at 2.4 GHz).
	evictStallQuantum = 20000
	// evictThrottleQuantum paces a faulter waiting on the background
	// evictor: short enough to notice a freelist refill quickly (a daemon
	// batch lands every few thousand cycles), long enough not to spin.
	evictThrottleQuantum = 4000
	// evictStallBudget (~17 µs) bounds throttled waiting per allocation
	// before the runtime gives up with ErrEvictionStalled: a daemon refill
	// batch lands within a few thousand cycles when reclaim is keeping up,
	// so waiting longer than roughly one inline batch reclaim costs means
	// the daemons are behind — fall back to direct reclaim rather than
	// queue behind the backlog (tail latency stays near the synchronous
	// design's).
	evictStallBudget = 40_000
	// writingPollQuantum paces an msync waiting out a write-back another
	// path started on a page in its range.
	writingPollQuantum = 2000
)

// ErrEvictionStalled reports that an allocation exhausted its throttled-wait
// budget with every reclaim candidate pinned or in flight: the cache is too
// small for the in-flight windows of its users. Mappings surface it as a
// SIGBUS-style panic; code calling the runtime directly can handle it.
var ErrEvictionStalled = errors.New("core: eviction stalled — cache too small for in-flight windows")

// VictimPolicy selects pages to evict; the default is the built-in LRU
// approximation. Applications may install their own (cache customization,
// contribution 1 of the paper). The batch it returns is the runtime's from
// then on: it ends up as scratch for later batches.
type VictimPolicy func(p *engine.Proc, n int) []*Page

// Config parameterizes a Runtime.
type Config struct {
	// CacheBytes is the initial DRAM I/O cache size.
	CacheBytes uint64
	// MaxCacheBytes bounds dynamic growth (default: CacheBytes).
	MaxCacheBytes uint64
	// Params overrides the policy (nil: DefaultParams).
	Params *Params
	// RestoredWBErrors carries per-file writeback errors out of a crash
	// image into a recovered runtime: the first create of a named file
	// seeds its errseq with the error, unseen, so the first sync caller in
	// the new incarnation reports it — exactly-once reporting survives
	// restart (see errseq.sample).
	RestoredWBErrors map[string]error
}

// Runtime is one Aquila instance: the library OS state of a single process
// running in non-root ring 0.
type Runtime struct {
	e      *engine.Engine
	P      Params
	Host   *host.OS
	Engine IOEngine

	PT   *pagetable.Table
	TLBs *cpu.TLBSet
	vs   detutil.RangeSet[*Region]

	// The lock-free hash table of all cached pages (§3.2) is, on the host,
	// each file's page index (fileState.pages); its per-operation costs are
	// charged explicitly, with no lock queueing. leaves is where an emptied
	// index leaf waits for the next file.
	leaves detutil.LeafPool[Page]
	// The per-core dirty red-black trees (§3.2) are, on the host, the pages'
	// dirty states and dirtyCore plus the index's own order; dirtyOn counts
	// each core's dirty cached pages so an msync skips the cores that have none.
	dirtyOn []int
	fl      *freelist
	lru     *lruApprox
	// framePool is the granted guest-physical memory.
	framePool  *mem.Allocator
	limitPages uint64
	gpaBase    uint64

	files  map[string]*fileState
	nextID uint64
	nextVA uint64
	// poisoned holds the fault each poisoned page's fill failed with for good
	// (poison; state PgPoisoned): its frame holds no valid content, and any
	// access delivers SIGBUS carrying it. Off the record because almost no
	// page is ever poisoned; move drops a page's entry when it leaves the
	// state. Nil until the first poisoning; nothing ranges over it.
	poisoned map[*Page]*IOFault
	// restoredWBErr holds crash-image writeback errors not yet claimed by an
	// create (consumed entries are deleted; see Config.RestoredWBErrors).
	restoredWBErr map[string]error

	// evictSel serializes victim selection only (never held across I/O).
	evictSel    *engine.Mutex
	evictStalls int
	// bg holds the per-NUMA-node background evictor daemons (nil unless
	// Params.AsyncEvict); lowWater/highWater are the reclaim watermarks in
	// pages, configured or derived from the cache size.
	bg        []*bgEvictor
	lowWater  int
	highWater int
	// stallCtr is the "aquila_evict_stall" metric.
	stallCtr *obs.Counter
	// mmMask tracks CPUs that have faulted in this address space; batched
	// shootdowns target only these.
	mmMask []bool
	// pageBufs and frameBufs lend the fault, reclaim and write-back paths
	// their scratch: the pages a fault claimed, a victim batch and its dirty
	// subset, one run's frames. deleteBuf is DeleteFile's, apart because it
	// is a whole file long: in the common stack every round's delete would
	// find a fault-sized slice on top and grow it again.
	pageBufs  detutil.Scratch[*Page]
	frameBufs detutil.Scratch[*mem.Frame]
	deleteBuf []*Page

	// Victims is the customization hook. Prefer, when set, biases the
	// default LRU victim selection toward pages it returns true for (scan
	// resistance, file priorities, ...). Readahead follows the madvise
	// hints (AqMapping.Advise).
	Victims VictimPolicy
	Prefer  func(*Page) bool

	// Break attributes fault-path cycles to components (Figs 7, 8). It is
	// interned in the engine's registry as "aquila_fault_cycles".
	Break *obs.Breakdown
	Stats Stats
}

// NewRuntime boots Aquila: enters non-root ring 0 (Dune-style), obtains the
// initial DRAM cache grant from the hypervisor and initializes all
// common-path structures. hostOS provides the hypervisor and, for the DAX
// and HOST-* engines, the backing filesystem.
func NewRuntime(p *engine.Proc, hostOS *host.OS, eng IOEngine, cfg Config) *Runtime {
	if cfg.MaxCacheBytes < cfg.CacheBytes {
		cfg.MaxCacheBytes = cfg.CacheBytes
	}
	params := DefaultParams()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	reg, labels := hostOS.E.Metrics()
	rt := &Runtime{
		e:        hostOS.E,
		P:        params,
		Host:     hostOS,
		Engine:   eng,
		PT:       pagetable.New(2),
		TLBs:     cpu.NewTLBSet(hostOS.E.NumCPUs(), 1536, 41),
		files:    make(map[string]*fileState),
		nextVA:   0x6000_0000_0000,
		gpaBase:  16 << 30,
		evictSel: engine.NewMutex(hostOS.E, "aquila_evict_select"),
		Break:    reg.Breakdown("aquila_fault_cycles", labels...),
	}
	if len(cfg.RestoredWBErrors) > 0 {
		rt.restoredWBErr = make(map[string]error, len(cfg.RestoredWBErrors))
		//aqlint:sorted -- host-side map copy, no simulated state
		for name, err := range cfg.RestoredWBErrors {
			rt.restoredWBErr[name] = err
		}
	}
	rt.stallCtr = reg.Counter("aquila_evict_stall", labels...)
	if rt.hugeEnabled() {
		// The huge path needs physically contiguous 2 MB blocks: grant the
		// guest-physical pool as a per-node buddy system (the TLBs' split 2 MB
		// arrays are always there, cpu.Default2MEntries each). Disabled mode
		// keeps the classic allocator so the 4 KB-only runtime stays
		// bit-identical.
		rt.framePool = mem.NewBuddyAllocator(cfg.MaxCacheBytes, hostOS.E.NumNUMANodes())
	} else {
		rt.framePool = mem.NewAllocator(cfg.MaxCacheBytes, hostOS.E.NumNUMANodes())
	}
	rt.fl = newFreelist(rt)
	rt.lru = newLRU(rt)
	rt.dirtyOn = make([]int, hostOS.E.NumCPUs())
	rt.Victims = rt.lru.selectVictims
	rt.mmMask = make([]bool, hostOS.E.NumCPUs())

	// Entering Aquila: one vmcall to set up VMCS/EPT state (Dune enter).
	hostOS.HV.VMCall(p, costDuneEnter)
	rt.grow(p, cfg.CacheBytes)
	if params.AsyncEvict {
		rt.startEvictors(p)
	}
	return rt
}

// CacheLimitPages returns the current cache size in pages.
func (rt *Runtime) CacheLimitPages() uint64 { return rt.limitPages }

// ResidentPages returns the number of cached base pages (a 2 MB unit counts
// its 512 frames).
func (rt *Runtime) ResidentPages() int {
	n := 0
	for pg := range rt.cached() {
		n += pg.pages()
	}
	return n
}

// cached walks every cached page for the audits and the test counters: each
// file's pages in index order, the files in no order at all — nothing that
// advances a clock or moves a frame may be driven from it.
func (rt *Runtime) cached() iter.Seq[*Page] {
	return func(yield func(*Page) bool) {
		//aqlint:sorted -- audits and order-independent counts only; which violation an audit reports first may vary, no simulated state is touched
		for _, f := range rt.files {
			for _, pg := range f.pages.All() {
				if !yield(pg) {
					return
				}
			}
		}
	}
}

// newFile takes the next file id and makes the bookkeeping of a file of size
// bytes; the caller files it under its name.
func (rt *Runtime) newFile(name string, size uint64) *fileState {
	rt.nextID++
	return &fileState{id: rt.nextID, name: name, size: size,
		pages: detutil.NewPageIndex(&rt.leaves, pagesOf(size))}
}

// pagesOf returns how many pages bytes occupy.
func pagesOf(bytes uint64) uint64 { return (bytes + pageSize - 1) / pageSize }

// FreePages returns the free-list population.
func (rt *Runtime) FreePages() int { return rt.fl.Free() }

// charge advances p by cyc system cycles and attributes them to a breakdown
// category.
func (rt *Runtime) charge(p *engine.Proc, cat string, cyc uint64) {
	p.AdvanceSystem(cyc)
	rt.Break.Add(cat, cyc)
}

// grow grants more DRAM from the hypervisor in 1 GB units (§3.5) and feeds
// the freelist.
func (rt *Runtime) grow(p *engine.Proc, bytes uint64) {
	const gig = 1 << 30
	granted := (bytes + gig - 1) / gig * gig
	wantPages := bytes / pageSize
	if rt.limitPages+wantPages > rt.framePool.Capacity() {
		wantPages = rt.framePool.Capacity() - rt.limitPages
	}
	rt.Host.HV.GrantRegion(p, rt.gpaBase, granted)
	rt.gpaBase += granted
	added := 0
	var blocks []*mem.Frame
	perNode := int(wantPages) / rt.e.NumNUMANodes()
	for n := 0; n < rt.e.NumNUMANodes(); n++ {
		want := perNode
		if n == 0 {
			want = int(wantPages) - perNode*(rt.e.NumNUMANodes()-1)
		}
		if rt.hugeEnabled() && !rt.P.SingleQueueFreelist {
			// Carve contiguous 2 MB blocks into the huge tier first; the
			// remainder fills the base queues. pop() splits blocks back into
			// singles on demand (fall-back demotion), so no memory strands.
			for want >= hugePages {
				blk := rt.framePool.AllocBlock(n)
				if blk == nil {
					break
				}
				blocks = append(blocks, blk)
				want -= hugePages
			}
		}
		frames := rt.framePool.AllocN(n, want)
		rt.fl.fill(frames)
		added += len(frames)
	}
	rt.fl.fillHuge(blocks)
	rt.limitPages += uint64(added) + uint64(len(blocks))*hugePages
	if rt.bg != nil {
		rt.setWatermarks()
	}
}

// ResizeCache dynamically grows or shrinks the DRAM cache (§3.5). Shrinking
// evicts down to the new size and returns memory to the hypervisor.
func (rt *Runtime) ResizeCache(p *engine.Proc, newBytes uint64) {
	newPages := newBytes / pageSize
	if newPages > rt.limitPages {
		rt.grow(p, (newPages-rt.limitPages)*pageSize)
		return
	}
	toRemove := int(rt.limitPages - newPages)
	for rt.fl.Free() < toRemove {
		if err := rt.evict(p); err != nil {
			// Shrinking below the live working set is a caller bug, not a
			// transient condition a resize can wait out.
			panic(err)
		}
	}
	const gig = 1 << 30
	frames := rt.fl.drain(toRemove)
	for _, f := range frames {
		rt.framePool.Release(f)
	}
	rt.limitPages -= uint64(len(frames))
	reclaim := uint64(len(frames)) * pageSize / gig * gig
	if reclaim > 0 {
		rt.gpaBase -= reclaim
		rt.Host.HV.ReclaimRegion(p, rt.gpaBase, reclaim)
	}
	if rt.bg != nil {
		rt.setWatermarks()
	}
}

// CreateFile creates a file through the configured I/O engine.
func (rt *Runtime) CreateFile(p *engine.Proc, name string, size uint64) *fileState {
	if _, ok := rt.files[name]; ok {
		panic(fmt.Sprintf("core: create of existing file %q", name))
	}
	f := rt.newFile(name, size)
	f.backing = rt.Engine.Create(p, name, size)
	rt.files[name] = f
	rt.restoreWBErr(f)
	return f
}

// restoreWBErr seeds a freshly created file's error sequence from the crash
// image (Config.RestoredWBErrors): the error enters unseen at sequence 1, so
// cursors sampled from here start at 0 and the first Msync/Fsync in the
// recovered incarnation reports it — once.
func (rt *Runtime) restoreWBErr(f *fileState) {
	err, ok := rt.restoredWBErr[f.name]
	if !ok {
		return
	}
	delete(rt.restoredWBErr, f.name)
	f.wbErr = errseq{err: err, seq: 1}
	rt.Stats.RestoredWBErrors++
}

// DeleteFile removes a file: its cached pages are dropped (frames recycled),
// its dirty entries discarded, and the backing object released.
func (rt *Runtime) DeleteFile(p *engine.Proc, name string) {
	f, ok := rt.files[name]
	if !ok {
		rt.Engine.Delete(p, name)
		return
	}
	// Drop cached pages in index order, the order the file's index walks in:
	// the waits below advance the clock and the later freelist pushes recycle
	// frames in drop order. The walk is taken once, into the runtime's scratch
	// slice: the waits and charges yield, and the pages to drop are the ones
	// cached now. (A second delete running meanwhile finds the scratch taken
	// and grows its own.) Pages under I/O wait their owners, until a pass finds
	// none busy — a wait yields, and an eviction may claim a page waited out
	// before; mapped pages must have been unmapped by Munmap already.
	drop := rt.deleteBuf[:0]
	rt.deleteBuf = nil
	for _, pg := range f.pages.All() {
		drop = append(drop, pg)
	}
	for settled := false; !settled; {
		settled = true
		for _, pg := range drop {
			for pg.busy() {
				pg.ev.Wait(p)
				settled = false
			}
		}
	}
	// Every page leaves before the first charge yields; one an eviction took
	// while it was waited on is gone already.
	for _, pg := range drop {
		if len(pg.vas.S) > 0 {
			panic(fmt.Sprintf("core: delete of %q with live mappings", name))
		}
		if pg.state != detutil.PgGone {
			rt.move(pg, detutil.PgGone)
		}
	}
	for _, pg := range drop {
		rt.charge(p, "cache-lookup", costHashRemove)
		if pg.huge {
			rt.fl.pushHuge(p, pg.frame)
			pg.frame = nil
		} else if pg.frame != nil {
			rt.fl.push(p, pg.frame)
			pg.frame = nil
		}
	}
	clear(drop) // the scratch must not keep the dropped pages alive
	rt.deleteBuf = drop
	delete(rt.files, name)
	rt.Engine.Delete(p, name)
}

// Mmap maps the first size bytes of f. Virtual address range updates are the
// uncommon-path operation ④: they interact with root ring 0 via vmcall.
func (rt *Runtime) Mmap(p *engine.Proc, f *fileState, size uint64) *AqMapping {
	rt.Host.HV.VMCall(p, costVspaceVMCall)
	pages := pagesOf(size)
	start := rt.nextVA
	if rt.hugeEnabled() {
		// 2 MB-align region bases so every 2 MB file extent lands on a huge-
		// page-capable VA boundary.
		start = (start + hugeBytes - 1) &^ uint64(hugeBytes-1)
	}
	rt.nextVA = start + (pages+16)*pageSize
	r := &Region{Start: start, End: start + pages*pageSize, File: f}
	f.pages.Reserve(pages)
	rt.vs.Insert(r)
	rt.charge(p, "vspace", 4*costRadixLookup)
	// Sample the error sequence at map time: earlier errors belong to
	// earlier callers.
	return &AqMapping{rt: rt, r: r, size: size, errCursor: f.wbErr.sample()}
}

// munmapRegion tears a region down: vmcall, radix removal, batched unmap +
// shootdown, and write-back of the file's dirty pages.
func (rt *Runtime) munmapRegion(p *engine.Proc, r *Region) {
	rt.Host.HV.VMCall(p, costVspaceVMCall)
	if unmapped := rt.unmapSpan(p, r, r.Start, r.End); unmapped > 0 {
		rt.shootdown(p)
	}
	rt.vs.Remove(r)
	rt.charge(p, "vspace", 4*costRadixLookup)
	rt.msyncFile(p, r.File)
}

// unmapSpan removes every PTE covering region r's VAs in [lo, hi), stepping
// by the mapped page size (a huge entry costs one PTE update and one
// reverse-map fix for the whole extent) and maintaining the rmap bookkeeping.
// A huge extent straddling a boundary must have been split by the caller.
// The table pages the span emptied are freed at no simulated cost, as
// munmap's free_pgtables.
func (rt *Runtime) unmapSpan(p *engine.Proc, r *Region, lo, hi uint64) int {
	unmapped := 0
	for va := lo; va < hi; {
		step := uint64(pageSize)
		if e, ok := rt.PT.Lookup(va); ok {
			rt.PT.Unmap(va)
			rt.charge(p, "unmap", cpu.PTEUpdate)
			unmapped++
			idx := (va - r.Start) / pageSize
			if pg := rt.lookupPage(r.File, idx); pg != nil {
				pg.vas.Remove(va)
			}
			if e.PageSize == pagetable.Size2M {
				step = pagetable.Size2M
			}
		}
		va += step
	}
	rt.PT.Release(lo, hi)
	return unmapped
}

// resolve returns the frame currently backing va with the required
// permission, re-validating the translation after each access attempt: a
// concurrent eviction between the fault path returning and the caller's
// copy may have recycled the frame. The only possible error is
// ErrEvictionStalled, propagated up from a starved allocation.
func (rt *Runtime) resolve(p *engine.Proc, va uint64, write bool) (*mem.Frame, error) {
	for {
		frame, err := rt.access(p, va, write)
		if err != nil {
			return nil, err
		}
		if e, ok := rt.PT.Lookup(va); ok && entryFrameID(e, va) == frame.ID &&
			(!write || e.Flags.Has(pagetable.FlagWritable)) {
			return frame, nil
		}
	}
}

// access resolves a virtual address: TLB hit (free), TLB refill (2-D walk
// under virtualization), or the ring-0 fault path.
func (rt *Runtime) access(p *engine.Proc, va uint64, write bool) (*mem.Frame, error) {
	vpn := va >> mem.PageShift
	tlb := rt.TLBs.CPU(p.CPU())
	asid := rt.PT.ASID()
	if tlb.LookupVA(asid, va) {
		if e, ok := rt.PT.Lookup(va); ok {
			if !write || e.Flags.Has(pagetable.FlagWritable) {
				return rt.framePool.Frame(entryFrameID(e, va)), nil
			}
			return rt.wpFault(p, va)
		}
		tlb.InvalidatePage(asid, vpn)
		tlb.Invalidate2M(asid, va>>21)
	}
	if e, ok := rt.PT.Lookup(va); ok {
		// TLB refill: guest-PT x EPT two-dimensional walk. A 2 MB leaf ends
		// the walk one level early and fills the split 2 MB array.
		if e.PageSize == pagetable.Size2M {
			p.AdvanceUser(cpu.TLBRefill2M + cpu.EPTWalkExtra)
			tlb.Insert2M(asid, va>>21)
		} else {
			p.AdvanceUser(cpu.TLBRefill + cpu.EPTWalkExtra)
			tlb.Insert(asid, vpn)
		}
		if !write || e.Flags.Has(pagetable.FlagWritable) {
			return rt.framePool.Frame(entryFrameID(e, va)), nil
		}
		return rt.wpFault(p, va)
	}
	return rt.fault(p, va, write)
}

// wpFault handles the first store to a read-only-mapped page: a ring-0
// exception that only marks the page dirty (§3.2 dirty tracking).
func (rt *Runtime) wpFault(p *engine.Proc, va uint64) (*mem.Frame, error) {
	p.BeginSpan("aq.wp_fault")
	defer p.EndSpan()
	va &^= uint64(pageSize - 1)
	rt.mmMask[p.CPU()] = true
	rt.Stats.WPFaults++
	p.SpanEvent("fault.wp", 1)
	rt.charge(p, "exception", cpu.ExceptionRing0+costExceptionEntry)
	rt.charge(p, "vspace", costRadixLookup)
	r := rt.vs.Find(va)
	if r == nil {
		panic(&SigSegv{VA: va, Reason: "wp fault outside mapping"})
	}
	idx := (va - r.Start) / pageSize
	rt.charge(p, "cache-lookup", costHashLookup)
	pg := rt.lookupPage(r.File, idx)
	if pg == nil || pg.busy() {
		return rt.fault(p, va, true) // raced with eviction
	}
	if pg.huge {
		return rt.hugeWP(p, r, pg, va)
	}
	pg.pins++
	defer func() { pg.pins-- }()
	rt.markDirty(p, pg)
	rt.PT.Protect(va, pagetable.FlagUser|pagetable.FlagWritable|pagetable.FlagAccessed|pagetable.FlagDirty)
	rt.charge(p, "map-pte", cpu.PTEUpdate+cpu.TLBInvalidatePage)
	tlb := rt.TLBs.CPU(p.CPU())
	tlb.InvalidatePage(rt.PT.ASID(), va>>mem.PageShift)
	tlb.Insert(rt.PT.ASID(), va>>mem.PageShift)
	return pg.frame, nil
}

// markDirty puts a page that is not dirty in the calling core's dirty set: an
// insert into that core's red-black tree, charged as one. The charge yields,
// and an msync that runs meanwhile cleans the page again; every caller makes
// a PTE writable next, so the page must still be dirty when markDirty returns.
func (rt *Runtime) markDirty(p *engine.Proc, pg *Page) {
	for !pg.state.Dirty() {
		pg.dirtyCore = int32(p.CPU())
		rt.move(pg, pg.state.Dirtied())
		rt.charge(p, "dirty-track", costDirtyTreeOp)
	}
}

// dirtyKey is device order, the order write-back merges runs in.
func dirtyKey(pg *Page) uint64 { return pg.file.id<<40 | pg.idx }

// readahead honors madvise hints: sequential and willneed regions
// read ahead, everything else reads exactly the faulting page. This is the
// deliberate contrast to the kernel's always-on read-around (§6.1).
func readahead(r *Region) int {
	switch r.Advice {
	case iface.AdviceSequential, iface.AdviceWillNeed:
		return readAheadPages - 1
	default:
		return 0
	}
}

// fault is Aquila's page-fault handler: a ring-0 exception, a lock-free
// lookup, and — on a miss — allocation (with batched eviction, synchronous
// or delegated to the background evictor), device I/O through the configured
// engine, and PTE installation.
func (rt *Runtime) fault(p *engine.Proc, va uint64, write bool) (*mem.Frame, error) {
	p.BeginSpan("aq.fault")
	defer p.EndSpan()
	va &^= uint64(pageSize - 1)
	rt.mmMask[p.CPU()] = true
	rt.charge(p, "exception", cpu.ExceptionRing0+costExceptionEntry)
	rt.charge(p, "vspace", costRadixLookup+costEntryLock)
	r := rt.vs.Find(va)
	if r == nil {
		panic(&SigSegv{VA: va, Reason: "page fault outside mapping"})
	}
	f := r.File
	idx := (va - r.Start) / pageSize

	var pg *Page
	promoteTried := false
	for {
		rt.charge(p, "cache-lookup", costHashLookup)
		if existing := rt.lookupPage(f, idx); existing != nil {
			if existing.busy() {
				existing.ev.Wait(p)
				continue // re-check: may have been evicted meanwhile
			}
			pg = existing
			rt.Stats.MinorFaults++
			p.SpanEvent("fault.minor", 1)
			// Pin across the LRU-record charge: it yields, and an eviction or
			// a promotion claiming the page meanwhile must see it in use
			// rather than recycle its frame under us.
			pg.pins++
			rt.lru.record(p, pg)
			pg.pins--
			break
		}
		if !promoteTried && rt.shouldPromote(r, f, idx) {
			promoteTried = true
			hp, herr := rt.hugeFault(p, r, f, idx)
			if herr != nil {
				return nil, herr
			}
			if hp != nil {
				pg = hp
				break
			}
			// Promotion aborted (no contiguous block, extent busy, writeback
			// failure): fall back to the 4 KB path, at most one attempt per
			// fault. The attempt yielded, so re-probe from the top.
			continue
		}
		var err error
		if pg, err = rt.majorFault(p, r, f, idx); err != nil {
			return nil, err
		}
		break
	}
	if pg.huge {
		return rt.hugeMap(p, r, pg, va, write)
	}
	if pg.state == detutil.PgPoisoned {
		// The page's backing I/O failed permanently: deliver the recorded
		// fault instead of mapping garbage. Mappings turn it into SIGBUS.
		return nil, rt.poisoned[pg]
	}
	// Pin across PTE installation: the remaining handler work yields, and
	// eviction recycling this frame mid-fault would map a stale frame.
	pg.pins++
	defer func() { pg.pins-- }()

	flags := pagetable.FlagUser | pagetable.FlagAccessed
	if write {
		flags |= pagetable.FlagWritable | pagetable.FlagDirty
		rt.markDirty(p, pg)
	}
	if _, mapped := rt.PT.Lookup(va); !mapped {
		rt.PT.Map(va, pg.frame.ID, flags, pagetable.Size4K)
		pg.vas.Add(va)
	} else {
		rt.PT.Protect(va, flags)
	}
	rt.charge(p, "map-pte", cpu.PTEUpdate)
	rt.TLBs.CPU(p.CPU()).Insert(rt.PT.ASID(), va>>mem.PageShift)
	rt.charge(p, "accounting", costFaultAccounting)
	return pg.frame, nil
}

// majorFault claims (f, idx) plus any readahead window, reads the owned
// pages through the I/O engine and returns the target page.
func (rt *Runtime) majorFault(p *engine.Proc, r *Region, f *fileState, idx uint64) (*Page, error) {
	p.BeginSpan("aq.major_fault")
	defer p.EndSpan()
	rt.Stats.MajorFaults++
	p.SpanEvent("fault.major", 1)
	filePages := pagesOf(f.size)
	if filePages == 0 {
		filePages = r.Pages()
	}
	// The window below stays inside the file and the faulting page inside
	// its region (Mmap reserved that): the two sizes bound every insert.
	f.pages.Reserve(filePages)
	hi := idx + 1 + uint64(readahead(r))
	if hi > filePages {
		hi = filePages
	}
	if hi <= idx {
		hi = idx + 1
	}
	// The pages this fault claims and the frames of the run it is reading.
	mine, frames := rt.pageBufs.Borrow(), rt.frameBufs.Borrow()
	var target *Page
	var allocErr error
	for i := idx; i < hi; i++ {
		if existing := rt.lookupPage(f, i); existing != nil {
			if i == idx {
				target = existing
			}
			continue
		}
		pg := &Page{file: f, idx: i}
		rt.charge(p, "cache-insert", costHashInsert)
		// The insert charge yields: another thread faulting the same page,
		// or a promotion claiming its extent, may have published an entry
		// meanwhile. Re-probe before publishing (no simulated cost) so
		// (file, idx) never has two owners — stores through the orphaned
		// Page's mapping would be lost when it is evicted.
		if raced := rt.lookupPage(f, i); raced != nil {
			if i == idx {
				target = raced
			}
			continue
		}
		rt.move(pg, detutil.PgFilling)
		fr, err := rt.allocFrame(p)
		if err != nil {
			// Unwind this page's claim: it was published but never read.
			// Waiters re-probe on the fired event, miss, and fault it in
			// themselves (taking the same stall error if it persists).
			rt.move(pg, detutil.PgGone)
			pg.ev.Fire(p.Now())
			allocErr = err
			break
		}
		pg.frame = fr
		if i == idx {
			target = pg
		} else {
			rt.Stats.ReadaheadPages++
		}
		mine = append(mine, pg)
		rt.lru.record(p, pg)
	}
	// Read owned pages in contiguous runs.
	for i := 0; i < len(mine); {
		j := i + 1
		for j < len(mine) && mine[j].idx == mine[j-1].idx+1 {
			j++
		}
		run := mine[i:j]
		frames = frames[:0]
		for _, pg := range run {
			frames = append(frames, pg.frame)
		}
		if rerr := rt.readRun(p, f, run[0].idx, frames); rerr != nil {
			// The merged read failed after retries: re-issue page by page so
			// one bad LBA poisons only its own page, not the whole window.
			rt.isolateReadRun(p, run)
		}
		i = j
	}
	doneAt := p.Now()
	for _, pg := range mine {
		rt.filled(pg, doneAt)
	}
	rt.pageBufs.GiveBack(mine) // before the retry below recurses
	rt.frameBufs.GiveBack(frames)
	if allocErr != nil {
		return nil, allocErr
	}
	if target.busy() {
		target.ev.Wait(p)
		// The page may have been evicted while we waited; retry path.
		if !target.state.Indexed() || target.busy() {
			return rt.majorFault(p, r, f, idx)
		}
	}
	return target, nil
}

// filled ends pg's fill at time at: it is clean, or poisoned if its read
// failed for good, and its waiters wake.
func (rt *Runtime) filled(pg *Page, at uint64) {
	if rt.poisoned[pg] != nil {
		rt.move(pg, detutil.PgPoisoned)
	} else {
		rt.move(pg, detutil.PgClean)
	}
	pg.ev.Fire(at)
}

// entryFrameID returns the frame backing va under PTE e: for a 2 MB leaf the
// base frame plus the 4 KB offset within the extent (the unit's frames are
// physically contiguous, so frame IDs are consecutive).
func entryFrameID(e pagetable.Entry, va uint64) uint64 {
	if e.PageSize == pagetable.Size2M {
		return e.Frame + ((va >> mem.PageShift) & (hugePages - 1))
	}
	return e.Frame
}

// allocFrame pops a frame from the freelist. With the background evictor
// disabled it reclaims synchronously in batches when every queue is empty
// (§3.2). With AsyncEvict the allocation instead kicks the evictor daemons
// and gives them a bounded head start (throttled waits), falling back to
// synchronous direct reclaim only when the freelist is still empty and the
// evictor is behind.
func (rt *Runtime) allocFrame(p *engine.Proc) (*mem.Frame, error) {
	var throttled uint64
	for {
		if fr := rt.fl.pop(p); fr != nil {
			rt.kickEvictors(p)
			return fr, nil
		}
		if rt.bg != nil {
			rt.wakeEvictors(p)
			if rt.evictorActive() && throttled < evictStallBudget {
				rt.Stats.EvictStalls++
				rt.stallCtr.Inc()
				p.WaitUntil(p.Now()+evictThrottleQuantum, engine.KindIOWait)
				throttled += evictThrottleQuantum
				continue
			}
		}
		// Inline reclaim on the allocation path — the direct-reclaim share
		// of the transition-cost surface, profiled separately from the
		// background daemons' aq.bg_evict.
		p.BeginSpan("aq.direct_reclaim")
		err := rt.evict(p)
		p.EndSpan()
		if err != nil {
			// Frames parked on other cores' private queues are invisible
			// to pop; steal one before reporting starvation.
			if fr := rt.fl.steal(p); fr != nil {
				return fr, nil
			}
			return nil, err
		}
	}
}

// evictStall handles a selection round that found every candidate busy: free
// yields up to the historical threshold, then throttled waits consuming the
// stall budget, then ErrEvictionStalled.
func (rt *Runtime) evictStall(p *engine.Proc) error {
	rt.evictStalls++
	rt.Stats.EvictStalls++
	rt.stallCtr.Inc()
	if rt.evictStalls <= evictStallYields {
		p.Yield()
		return nil
	}
	waited := uint64(rt.evictStalls-evictStallYields) * evictStallQuantum
	if waited <= evictStallBudget {
		p.WaitUntil(p.Now()+evictStallQuantum, engine.KindIOWait)
		return nil
	}
	return ErrEvictionStalled
}

// claimVictims is the first half of a reclaim round (§3.2): select a batch
// under evictSel, charge the per-victim selection cost (lock-free CAS pops +
// hash removal) outside that section so it does not serialize, unmap the
// batch with one TLB shootdown, and take the dirty victims out of the dirty set.
// It returns the batch and its dirty subset, both borrowed scratch that
// releaseVictims gives back; an empty batch (nil) means every candidate is
// pinned or in flight.
func (rt *Runtime) claimVictims(p *engine.Proc) (victims, dirty []*Page) {
	rt.evictSel.Lock(p)
	victims = rt.Victims(p, rt.P.EvictBatch)
	rt.evictSel.Unlock(p)
	rt.charge(p, "evict-select", costHashRemove*uint64(len(victims)))
	if len(victims) == 0 {
		rt.pageBufs.GiveBack(victims)
		return nil, nil
	}
	unmapped := 0
	for _, v := range victims {
		for _, va := range v.vas.S {
			if rt.PT.Unmap(va) {
				rt.charge(p, "unmap", cpu.PTEUpdate)
				unmapped++
			}
		}
		v.vas.S = nil
	}
	if unmapped > 0 {
		rt.shootdown(p)
	}
	dirty = rt.pageBufs.Borrow()
	for _, v := range victims {
		if v.state.Dirty() {
			rt.move(v, v.state.Cleaned())
			v.writebacks++
			rt.charge(p, "dirty-track", costDirtyTreeOp)
			dirty = append(dirty, v)
		}
	}
	return victims, dirty
}

// releaseVictims is the second half, after the dirty victims' write-back:
// wake the faulters parked on each victim, drop it from the hash and recycle
// its frames. A victim whose write-back failed was revived (quarantined or
// requeued): it keeps its frame, and the waiters re-probe and find it. Whole
// 2 MB blocks go back to the huge tier so their contiguity survives; 4 KB
// frames go to the calling core's queue one by one, or — batched, the
// daemons' refill — straight to the NUMA queues where every core sees them.
// The batch and its dirty subset go back to the scratch they came from. It
// returns the number of base pages recycled.
func (rt *Runtime) releaseVictims(p *engine.Proc, victims, dirty []*Page, batched bool) int {
	doneAt := p.Now()
	var frames []*mem.Frame
	if batched {
		frames = rt.frameBufs.Borrow()
	}
	recycled := 0
	for _, v := range dirty {
		v.writebacks--
	}
	for _, v := range victims {
		v.ev.Fire(doneAt)
		if v.state != detutil.PgClaimed {
			rt.move(v, v.state.Settled()) // revived by the write-back failure path
			continue
		}
		rt.move(v, detutil.PgGone)
		switch {
		case v.huge:
			rt.fl.pushHuge(p, v.frame)
			rt.Stats.HugeEvictions++
		case batched:
			frames = append(frames, v.frame)
		default:
			rt.fl.push(p, v.frame)
		}
		v.frame = nil
		recycled += v.pages()
	}
	rt.fl.pushBatch(p, frames)
	rt.frameBufs.GiveBack(frames)
	rt.pageBufs.GiveBack(dirty)
	rt.pageBufs.GiveBack(victims)
	rt.Stats.Evictions += uint64(recycled)
	return recycled
}

// evict is direct reclaim, one round inline on the allocation path, with
// synchronous write-back. It returns ErrEvictionStalled only after the
// throttled-wait budget expires with every candidate busy.
func (rt *Runtime) evict(p *engine.Proc) error {
	p.BeginSpan("aq.evict")
	defer p.EndSpan()
	t0 := p.Now()
	victims, dirty := rt.claimVictims(p)
	if len(victims) == 0 {
		return rt.evictStall(p)
	}
	rt.evictStalls = 0
	rt.writeBack(p, dirty, "aq.writeback", false, false)
	recycled := rt.releaseVictims(p, victims, dirty, false)
	rt.Stats.DirectReclaimPages += uint64(recycled)
	p.SpanEvent("evict.pages", uint64(recycled))
	if rt.P.AsyncEvict {
		// Summary wall-clock category for the sync-fallback share of
		// reclaim; the fine-grained categories above still hold the parts.
		// Only recorded in async mode so sync-mode output stays identical.
		rt.Break.Add("direct_reclaim", p.Now()-t0)
	}
	return nil
}

// shootdown performs Aquila's batched TLB invalidation (§4.1): one
// rate-limited (vmexit) send covering the whole batch, posted IPIs to every
// other core, vmexit-less receive.
func (rt *Runtime) shootdown(p *engine.Proc) {
	p.BeginSpan("aq.shootdown")
	defer p.EndSpan()
	rt.Stats.ShootdownBatches++
	p.SpanEvent("shootdown", 1)
	// The send below yields and mmMask can grow meanwhile: flush the CPUs
	// that were sent to. Up to 64 of them the snapshot stays on the stack.
	var cpus [64]int
	targets := cpus[:0]
	for c := 0; c < rt.e.NumCPUs(); c++ {
		if rt.mmMask[c] {
			targets = append(targets, c)
		}
	}
	t0 := p.Now()
	rt.Host.HV.SendShootdownIPIs(p, targets, cpu.IPIReceive+cpu.TLBFlushAll)
	for _, c := range targets {
		rt.TLBs.CPU(c).FlushAll()
	}
	p.AdvanceSystem(cpu.TLBFlushAll)
	rt.Break.Add("tlb-shootdown", p.Now()-t0)
}

// writeBack is the one write-back loop (§3.2): sort the pages into device
// order, write-protect their live mappings (page_mkclean — post-write-back
// stores take a wp fault and re-dirty the page; eviction's victims are already
// unmapped, so for them the pass touches nothing and costs nothing), then
// form merged runs — a 2 MB unit alone, never split or capped; 4 KB pages of
// one file at adjacent indices, up to writebackMaxRun — and write each.
//
// Without async every run is written synchronously, with bounded retry and
// per-page recovery. With it, runs are submitted back to back and only
// their completions are left outstanding; a run whose submission is rejected
// (nothing queued) is recovered synchronously inline while the rest of the
// batch keeps overlapping. drain then waits once, for the deepest completion.
// Not draining is Params.UnsafeMsyncAtSubmit's planted bug and nothing else.
//
// span names the trace track ("aq.writeback" foreground, "aq.bg_writeback"
// daemon). The first final write failure is returned; every failure is also
// recorded in its file's error sequence, and the failing page's state says
// whether it is revived by its holder or stays where msync left it.
func (rt *Runtime) writeBack(p *engine.Proc, pages []*Page, span string, async, drain bool) error {
	if len(pages) == 0 {
		return nil
	}
	slices.SortFunc(pages, func(a, b *Page) int { return cmp.Compare(dirtyKey(a), dirtyKey(b)) })
	protected := 0
	for _, pg := range pages {
		for _, va := range pg.vas.S {
			if rt.PT.Protect(va, pagetable.FlagUser|pagetable.FlagAccessed) {
				rt.charge(p, "writeback", cpu.PTEUpdate)
				protected++
			}
		}
	}
	if protected > 0 {
		rt.shootdown(p)
	}
	var firstErr error
	var lastDone uint64
	for i := 0; i < len(pages); {
		// A run's frames — a unit's 512, or one per 4 KB page — are gathered
		// in borrowed scratch, given back as soon as the run is written or
		// submitted: no engine keeps the slice.
		j := i + 1
		for !pages[i].huge && j < len(pages) && j-i < writebackMaxRun && !pages[j].huge &&
			pages[j].file == pages[i].file && pages[j].idx == pages[j-1].idx+1 {
			j++
		}
		run, frames := pages[i:j], rt.frameBufs.Borrow()
		for _, pg := range run {
			frames = pg.appendFrames(frames)
		}
		i = j
		if async {
			t0 := p.Now()
			p.BeginSpan(span)
			done, err := rt.ioRun(p, ioSubmit, run[0].file, run[0].idx, frames)
			p.EndSpan()
			rt.Break.Add("writeback", p.Now()-t0)
			if err == nil {
				lastDone = max(lastDone, done)
				rt.Stats.WrittenBack += uint64(len(frames))
				p.SpanEvent("writeback.pages", uint64(len(frames)))
				rt.frameBufs.GiveBack(frames)
				continue
			}
			// Rejected: nothing of this run was queued.
		}
		if err := rt.writeRunOrRecover(p, span, run, frames); err != nil && firstErr == nil {
			firstErr = err
		}
		rt.frameBufs.GiveBack(frames)
	}
	if drain && lastDone > p.Now() {
		t0 := p.Now()
		p.BeginSpan(span)
		p.WaitUntil(lastDone, engine.KindIOWait)
		p.EndSpan()
		rt.Break.Add("writeback", p.Now()-t0)
	}
	return firstErr
}

// The transient-retry policy: a transient device error is retried ioRetryLimit
// times, waiting k*ioRetryBackoff cycles (~8 µs steps) before attempt k, and
// only then declared failed (poison on reads, requeue on write-back).
const (
	ioRetryLimit   = 3
	ioRetryBackoff = 20000
)

// readAheadPages is the madvise(SEQUENTIAL/WILLNEED)-driven readahead window,
// the faulting page included.
const readAheadPages = 16

// writebackMaxRun caps the size of one merged write-back I/O, in pages.
const writebackMaxRun = 128

// transientErr reports whether a device error is worth retrying in place.
func transientErr(err error) bool {
	var de *device.IOError
	return errors.As(err, &de) && de.Transient()
}

// ioRetryWait charges the linear backoff before retry attempt+1 as fully
// simulated I/O wait, so the degraded path stays cycle-accounted and
// deterministic.
func (rt *Runtime) ioRetryWait(p *engine.Proc, attempt int) {
	rt.Stats.IORetries++
	t0 := p.Now()
	p.BeginSpan("aq.io_retry")
	p.WaitUntil(p.Now()+ioRetryBackoff*uint64(attempt+1), engine.KindIOWait)
	p.EndSpan()
	rt.Break.Add("io-retry", p.Now()-t0)
}

// readRun issues one merged fill read through the engine with the bounded
// transient-retry policy. A final failure is returned as a typed *IOFault
// carrying device/LBA context.
func (rt *Runtime) readRun(p *engine.Proc, f *fileState, pageIdx uint64, frames []*mem.Frame) *IOFault {
	for attempt := 0; ; attempt++ {
		t0 := p.Now()
		p.BeginSpan("aq.io")
		_, err := rt.ioRun(p, ioRead, f, pageIdx, frames)
		p.EndSpan()
		rt.Break.Add("device-io", p.Now()-t0)
		if err == nil {
			return nil
		}
		if !transientErr(err) || attempt >= ioRetryLimit {
			return newIOFault("read", f.name, pageIdx, err)
		}
		rt.ioRetryWait(p, attempt)
	}
}

// writeRun is readRun's writeback twin; spanName distinguishes foreground
// ("aq.writeback") from background ("aq.bg_writeback") tracks.
func (rt *Runtime) writeRun(p *engine.Proc, spanName string, f *fileState, pageIdx uint64, frames []*mem.Frame) *IOFault {
	for attempt := 0; ; attempt++ {
		t0 := p.Now()
		p.BeginSpan(spanName)
		_, err := rt.ioRun(p, ioWrite, f, pageIdx, frames)
		p.EndSpan()
		rt.Break.Add("writeback", p.Now()-t0)
		if err == nil {
			return nil
		}
		if !transientErr(err) || attempt >= ioRetryLimit {
			return newIOFault("write", f.name, pageIdx, err)
		}
		rt.ioRetryWait(p, attempt)
	}
}

// isolateReadRun re-reads each page of a failed merged read individually,
// poisoning exactly the pages whose I/O keeps failing. Poisoned frames are
// zeroed: their content was never valid.
func (rt *Runtime) isolateReadRun(p *engine.Proc, run []*Page) {
	for _, pg := range run {
		if pe := rt.readRun(p, pg.file, pg.idx, []*mem.Frame{pg.frame}); pe != nil {
			rt.poison(pg, pe)
		}
	}
}

// poison records the fault a filling page's read failed with for good; its
// fill ends poisoned (filled) and every access delivers the fault as SIGBUS.
// The page stays in the hash (re-faults fail fast without re-issuing doomed
// I/O) but remains evictable.
func (rt *Runtime) poison(pg *Page, ferr *IOFault) {
	if rt.poisoned[pg] == nil {
		rt.Stats.PoisonedPages++
	}
	if rt.poisoned == nil {
		rt.poisoned = make(map[*Page]*IOFault)
	}
	rt.poisoned[pg] = ferr
	if pg.frame != nil {
		pg.frame.Reset()
	}
}

// writeRunOrRecover writes one merged run; on final failure it re-issues the
// run page by page so one bad LBA doesn't fail its siblings, then requeues
// (transient) or quarantines (permanent) exactly the failing pages, recording
// each final failure in the owning file's error sequence.
func (rt *Runtime) writeRunOrRecover(p *engine.Proc, spanName string, run []*Page, frames []*mem.Frame) error {
	ferr := rt.writeRun(p, spanName, run[0].file, run[0].idx, frames)
	if ferr == nil {
		rt.Stats.WrittenBack += uint64(len(frames))
		p.SpanEvent("writeback.pages", uint64(len(frames)))
		return nil
	}
	if len(run) == 1 {
		rt.failWritePage(p, run[0], ferr)
		return ferr
	}
	var firstErr error
	for k, pg := range run {
		pe := rt.writeRun(p, spanName, pg.file, pg.idx, frames[k:k+1])
		if pe == nil {
			rt.Stats.WrittenBack++
			p.SpanEvent("writeback.pages", 1)
			continue
		}
		if firstErr == nil {
			firstErr = pe
		}
		rt.failWritePage(p, pg, pe)
	}
	// firstErr nil here means the merged failure was transient and every page
	// succeeded in isolation: nothing was lost or left unwritten.
	return firstErr
}

// failWritePage handles one page whose writeback failed after retries: the
// error enters the file's errseq (each sync caller will see it once), and
// the page is either requeued for another pass (transient) or quarantined in
// DRAM (permanent) — never silently dropped.
func (rt *Runtime) failWritePage(p *engine.Proc, pg *Page, ferr *IOFault) {
	pg.file.wbErr.record(ferr)
	if ferr.Transient() {
		rt.requeueDirty(p, pg)
		return
	}
	rt.quarantine(pg)
}

// requeueDirty puts a transiently failed page back on the dirty list. A page
// an eviction or a promotion holds is revived dirty when its holder lets it
// go, and a later pass (or msync) retries the writeback. Revival records the
// page in the LRU: a victim here, a displaced page when the promotion's abort
// re-publishes it — its append is charged here all the same.
func (rt *Runtime) requeueDirty(p *engine.Proc, pg *Page) {
	rt.Stats.RequeuedPages++
	rt.markDirty(p, pg)
	switch pg.state {
	case detutil.PgClaimedDirty:
		rt.lru.record(p, pg)
	case detutil.PgDisplacedDirty:
		rt.charge(p, "lru", costLRUAppend)
	}
}

// quarantine pins a permanently unwritable dirty page in DRAM: it keeps its
// frame, eviction never selects it again, and DeleteFile is the only way it
// leaves the cache. The in-memory copy is the only good one left.
func (rt *Runtime) quarantine(pg *Page) {
	if q := pg.state.Quarantined(); q != pg.state {
		rt.move(pg, q)
		rt.Stats.QuarantinedPages++
	}
}

// QuarantinedLive and PoisonedLive return how many cached pages are
// quarantined or poisoned now (tests; Stats counts the events).
func (rt *Runtime) QuarantinedLive() int {
	return rt.countCached(detutil.PgQuarantined) + rt.countCached(detutil.PgQuarantinedDirty)
}
func (rt *Runtime) PoisonedLive() int { return rt.countCached(detutil.PgPoisoned) }

func (rt *Runtime) countCached(s detutil.PageState) (n int) {
	for pg := range rt.cached() {
		if pg.state == s {
			n++
		}
	}
	return n
}

// msyncFile writes back all dirty pages of one file. Intercepted in ring 0:
// costs a function call, not a protection-domain switch (§4.4).
func (rt *Runtime) msyncFile(p *engine.Proc, f *fileState) {
	rt.msyncFileRange(p, f, 0, ^uint64(0))
}

// msyncFileRange writes back dirty pages of f overlapping [off, off+length).
func (rt *Runtime) msyncFileRange(p *engine.Proc, f *fileState, off, length uint64) {
	p.BeginSpan("aq.msync")
	defer p.EndSpan()
	p.SpanEvent("msync", 1)
	rt.charge(p, "msync", costMsyncEntry)
	lo := off / pageSize
	hi := uint64(^uint64(0))
	if length < ^uint64(0)-off {
		hi = (off + length + pageSize - 1) / pageSize
	}
	dirtyPages := rt.pageBufs.Borrow()
	// One turn per core, in core order: the turn collects what that core's
	// red-black tree holds of the range — the file's pages that core dirtied,
	// in index order, which is the tree's — as it is when the turn comes. The
	// waits and the charge of earlier turns yield, and a page dirtied or
	// evicted meanwhile must be seen the way it then is. A 2 MB unit sits at
	// its extent's base, so the walk starts at lo's.
	for core := range rt.dirtyOn {
		if rt.dirtyOn[core] == 0 {
			continue
		}
		pgs := rt.pageBufs.Borrow()
		for _, pg := range f.pages.Range(lo&^(hugePages-1), hi) {
			if pg.state.Dirty() && int(pg.dirtyCore) == core && pg.idx+uint64(pg.pages()) > lo {
				pgs = append(pgs, pg)
			}
		}
		taken := 0
		for _, pg := range pgs {
			// A page claimed by a concurrent eviction (unfired io) is
			// already on its way to the device: wait for that write-back
			// instead of racing it — the evictor recycles the frame once
			// its write completes, whether or not we still hold a
			// reference. If the page was revived dirty (transient-failure
			// requeue) fall through and take it ourselves.
			for pg.busy() {
				pg.ev.Wait(p)
			}
			if !pg.state.Dirty() {
				continue // the evictor's write-back already made it durable
			}
			rt.move(pg, pg.state.Cleaned())
			// Pin the page for the duration of the write-back: it reads as
			// clean from here, and a newly started eviction would otherwise
			// free its frame before the write reaches the device.
			pg.pins++
			pg.writebacks++
			dirtyPages = append(dirtyPages, pg)
			taken++
		}
		rt.pageBufs.GiveBack(pgs)
		if taken > 0 {
			rt.charge(p, "dirty-track", costDirtyTreeOp*uint64(taken))
		}
	}
	// UnsafeMsyncAtSubmit is the planted bug the crash oracle must catch:
	// submit, don't drain, so msync returns before the durability point.
	// Engines that cannot overlap have no such window and write synchronously.
	rt.writeBack(p, dirtyPages, "aq.writeback", rt.P.UnsafeMsyncAtSubmit && rt.Engine.overlaps(), false)
	for _, pg := range dirtyPages {
		pg.pins--
		pg.writebacks--
	}
	rt.pageBufs.GiveBack(dirtyPages)
	// A page another msync or an eviction cleaned before this one looked is
	// still on its way to the device: wait its write out, as
	// filemap_fdatawait waits out PG_writeback.
	writing := rt.pageBufs.Borrow()
	for _, pg := range f.pages.Range(lo&^(hugePages-1), hi) {
		if pg.writebacks > 0 && pg.idx+uint64(pg.pages()) > lo {
			writing = append(writing, pg)
		}
	}
	for _, pg := range writing {
		for pg.writebacks > 0 {
			p.WaitUntil(p.Now()+writingPollQuantum, engine.KindIOWait)
		}
	}
	rt.pageBufs.GiveBack(writing)
}

// DirtyPages returns the number of dirty pages across all cores (tests).
func (rt *Runtime) DirtyPages() int {
	n := 0
	for _, on := range rt.dirtyOn {
		n += on
	}
	return n
}
