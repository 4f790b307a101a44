// Package core implements the Aquila library OS: the custom mmio path that
// runs, together with the application, in VMX non-root ring 0.
//
// Common-path operations (§3: page faults ①, DRAM cache replacement ②,
// device access ③) execute entirely in the guest: the fault handler costs a
// ring-0 exception instead of a ring-3 trap, cache lookups go through a
// lock-free hash table, frames come from a two-level (per-core/per-NUMA)
// freelist, dirty pages live in per-core red-black trees sorted by device
// offset, and evictions unmap in batches of 512 pages with a single
// rate-limited posted-IPI TLB shootdown. Uncommon operations (file-mapping
// management ④, cache resizing ⑤) interact with the hypervisor via vmcalls.
package core

// Aquila's software-path costs, in cycles at the testbed clock.
const (
	// costExceptionEntry is the handler-entry work beyond the bare ring-0
	// exception: switching to the dedicated exception stack and copying
	// the exception frame back to the application stack (§4.2).
	costExceptionEntry uint64 = 450
	// costRadixLookup is a vspace radix-tree lookup (RadixVM-style, §3.4).
	costRadixLookup uint64 = 220
	// costEntryLock is locking one radix entry against concurrent faults.
	costEntryLock uint64 = 75
	// costHashLookup is a lock-free hash table probe (ASCYLIB-style, §3.2).
	costHashLookup uint64 = 250
	// costHashInsert is a lock-free hash table insertion.
	costHashInsert uint64 = 280
	// costHashRemove is a lock-free hash table removal.
	costHashRemove uint64 = 220
	// costFreelistPop is popping a frame from the per-core freelist queue.
	costFreelistPop uint64 = 100
	// costFreelistMove is moving one page between freelist levels
	// (amortized over the 4096-page batches of §3.2).
	costFreelistMove uint64 = 25
	// costLRUAppend is recording the fault in the per-core LRU structure.
	costLRUAppend uint64 = 70
	// costDirtyTreeOp is an insert/remove on a per-core dirty red-black tree.
	costDirtyTreeOp uint64 = 260
	// costFaultAccounting is residual fault bookkeeping (statistics,
	// madvise checks, permission computation).
	costFaultAccounting uint64 = 500
	// costMsyncEntry is the intercepted msync entry cost: a plain function
	// call, not a protection-domain switch (§4.4).
	costMsyncEntry uint64 = 120
	// costDuneEnter is the one-time vmcall that builds VMCS/EPT state when
	// a process enters Aquila (Dune-style enter).
	costDuneEnter uint64 = 5000
	// costVspaceVMCall is the root-ring-0 handler cost of the uncommon-path
	// vmcalls that update virtual address ranges (operation ④:
	// mmap/munmap/mremap and direct-NVM mapping setup).
	costVspaceVMCall uint64 = 1500
	// costDirectMsync is the user-mode fence cost of msync on a direct NVM
	// mapping: stores already reached the media, so only the fence and the
	// errseq check remain.
	costDirectMsync uint64 = 30
	// costFlushLine is the write-back of one 64-byte line (clwb) a store to
	// a direct NVM mapping issues to reach the persistent domain, and
	// costStoreFence the sfence that orders those write-backs: literature
	// magnitudes for a cache-line flush and a store fence, like
	// costDirectMsync.
	costFlushLine  uint64 = 12
	costStoreFence uint64 = 30

	// Huge pages ship disabled (Params.HugeFaultDensity 0); these costs are
	// calibrated so enabling them only needs the density knob.

	// costHugePromote is the software cost of assembling a promotion:
	// collapsing the extent's PTE subtree into one 2 MB entry and merging
	// the cache metadata (charged once per promotion, on top of the per-PTE
	// work).
	costHugePromote uint64 = 1800
	// costHugeSplit is the software cost of demoting a huge mapping:
	// allocating a PTE table and re-pointing the 2 MB entry at it (charged
	// once per split; the surviving 4 KB pieces re-fault lazily).
	costHugeSplit uint64 = 1400
	// costBuddyOp is one operation on the buddy contiguous-frame tier
	// (block pop/push, including the split/coalesce bookkeeping).
	costBuddyOp uint64 = 120
)

// Params are Aquila's policy knobs: batch sizes, the ablations, the
// background evictor and the huge-page trigger.
type Params struct {
	// EvictBatch is the synchronous eviction batch size (§3.2: 512).
	EvictBatch int
	// FreelistBatch is the page count moved between freelist levels
	// (§3.2: 4096).
	FreelistBatch int
	// CoreQueueLimit is the per-core free-queue threshold above which
	// pages spill to the NUMA queue.
	CoreQueueLimit int
	// SingleQueueFreelist replaces the two-level per-core/per-NUMA
	// freelist with one lock-protected shared queue — the design §3.2
	// argues against. Ablation knob; default false.
	SingleQueueFreelist bool

	// AsyncEvict enables the per-NUMA-node background evictor: a ring-0
	// daemon that reclaims frames between the low and high freelist
	// watermarks with overlapped (submission-style) writeback, keeping
	// reclaim off the fault path. Default false: the paper's figures use
	// synchronous reclaim, and the false path is bit-identical to the
	// pre-evictor runtime.
	AsyncEvict bool
	// LowWatermark is the free-page count below which the background
	// evictor wakes. Zero derives 2*EvictBatch clamped to 1/16 of the
	// cache.
	LowWatermark int
	// HighWatermark is the free-page count the evictor restores before
	// going back to sleep. Zero derives 3*LowWatermark clamped to 1/4 of
	// the cache.
	HighWatermark int

	// HugeFaultDensity enables the 2 MB huge-page mmio path and sets the
	// promotion trigger: a major fault in a 2 MB-aligned extent promotes the
	// whole extent to one huge mapping once the fraction of its 512 pages
	// already resident (counting the faulting page) reaches this value.
	// Regions hinted with AdviseHuge promote on the first fault regardless.
	// Zero disables huge pages entirely; the runtime is then bit-identical
	// to the 4 KB-only path.
	HugeFaultDensity float64

	// UnsafeMsyncAtSubmit deliberately breaks msync's durability contract:
	// dirty runs are submitted to the device queue and msync returns without
	// waiting for the completion (the durability point). Validation-only —
	// the ablate-crash harness flips it to demonstrate that the crash oracle
	// catches acknowledged-but-volatile data when a crash lands inside the
	// device's completion window. Never set it for real measurements.
	UnsafeMsyncAtSubmit bool
}

// DefaultParams returns the policy the paper's Aquila runs with.
func DefaultParams() Params {
	return Params{
		EvictBatch:     512,
		FreelistBatch:  4096,
		CoreQueueLimit: 8192,
	}
}

// ParamsForCache returns DefaultParams with the batch sizes scaled to a small
// simulated cache, so the batching:cache ratios stay in the paper's regime.
// Every world the experiment and torture harnesses boot runs with these.
func ParamsForCache(cacheBytes uint64) *Params {
	p := DefaultParams()
	pages := int(cacheBytes / 4096)
	if n := pages / 16; p.EvictBatch > n {
		p.EvictBatch = max(32, n)
	}
	// Refill batches must stay small relative to the per-core share of the
	// cache: a batch that hoards a large cache fraction on one core
	// starves the others into spurious evictions (at the paper's scale,
	// 4096 pages against a 2M-page cache is 0.2%; keep the same regime).
	if n := pages / 128; p.FreelistBatch > n {
		p.FreelistBatch = max(64, n)
	}
	if n := pages / 32; p.CoreQueueLimit > n {
		p.CoreQueueLimit = max(2*p.FreelistBatch, n)
	}
	return &p
}
