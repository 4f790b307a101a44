package core

import (
	"fmt"

	"aquila/internal/sim/cpu"
	"aquila/internal/sim/engine"
	"aquila/internal/sim/mem"
)

// freelist is Aquila's hierarchical two-level page allocator (§3.2): a
// lock-free queue per core backed by a queue per NUMA node. A core looks, in
// order, at its own queue, its local NUMA queue, then remote NUMA queues.
// Movement between levels happens in large batches (FreelistBatch) so the
// shared queues are touched rarely; combined with lock-free queues this keeps
// contention negligible, which the model reflects by charging only per-op
// costs and no lock queueing.
type freelist struct {
	rt    *Runtime
	cores [][]*mem.Frame // per-core stacks
	nodes [][]*mem.Frame // per-NUMA stacks
	// hugeNodes is the huge tier: per-NUMA stacks of 2 MB blocks (512
	// contiguous frames) feeding huge-page promotion. Nil until the first
	// fillHuge/pushHuge, i.e. always nil with huge pages disabled.
	hugeNodes [][][]*mem.Frame
	// free counts pages across all queues (a 2 MB block counts 512).
	free int

	// single/singleLock implement the SingleQueueFreelist ablation: one
	// shared queue under a lock, the contended design §3.2 avoids.
	single     []*mem.Frame
	singleLock *engine.Mutex
}

func newFreelist(rt *Runtime) *freelist {
	fl := &freelist{rt: rt}
	fl.cores = make([][]*mem.Frame, rt.e.NumCPUs())
	fl.nodes = make([][]*mem.Frame, rt.e.NumNUMANodes())
	if rt.P.SingleQueueFreelist {
		fl.singleLock = engine.NewMutex(rt.e, "freelist_single")
	}
	return fl
}

// fill seeds the NUMA queues with freshly granted frames.
func (fl *freelist) fill(frames []*mem.Frame) {
	if fl.singleLock != nil {
		fl.single = append(fl.single, frames...)
	} else {
		for _, f := range frames {
			fl.nodes[f.Node()] = append(fl.nodes[f.Node()], f)
		}
	}
	fl.free += len(frames)
}

// Free returns the number of free pages across all queues.
func (fl *freelist) Free() int { return fl.free }

// pop allocates one frame for the calling core, or returns nil when every
// queue is empty (the caller must evict).
func (fl *freelist) pop(p *engine.Proc) *mem.Frame {
	if fl.singleLock != nil {
		return fl.popSingle(p)
	}
	core := p.CPU()
	fl.rt.charge(p, "alloc", costFreelistPop)
	if q := fl.cores[core]; len(q) > 0 {
		f := q[len(q)-1]
		fl.cores[core] = q[:len(q)-1]
		fl.free--
		return f
	}
	// Refill from the local NUMA queue in a batch.
	local := p.Node()
	if fl.refill(p, core, local) {
		q := fl.cores[core]
		f := q[len(q)-1]
		fl.cores[core] = q[:len(q)-1]
		fl.free--
		return f
	}
	// Remote NUMA queues.
	for d := 1; d < len(fl.nodes); d++ {
		nd := (local + d) % len(fl.nodes)
		fl.rt.charge(p, "alloc", cpu.NUMARemoteAccess)
		if fl.refill(p, core, nd) {
			q := fl.cores[core]
			f := q[len(q)-1]
			fl.cores[core] = q[:len(q)-1]
			fl.free--
			return f
		}
	}
	// Fall-back demotion: every 4 KB queue is empty, but the huge tier may
	// still hold contiguous blocks — sacrifice one block's contiguity rather
	// than forcing an eviction.
	if nd := fl.splitHuge(p, local); nd >= 0 && fl.refill(p, core, nd) {
		q := fl.cores[core]
		f := q[len(q)-1]
		fl.cores[core] = q[:len(q)-1]
		fl.free--
		return f
	}
	return nil
}

// splitHuge demotes one free 2 MB block (local node preferred) into 512 base
// frames on the block's NUMA queue. It returns that node, or -1 when the huge
// tier is empty everywhere. The total free count is unchanged: frames only
// move between tiers.
func (fl *freelist) splitHuge(p *engine.Proc, local int) int {
	for d := 0; d < len(fl.hugeNodes); d++ {
		nd := (local + d) % len(fl.hugeNodes)
		hq := fl.hugeNodes[nd]
		if len(hq) == 0 {
			continue
		}
		blk := hq[len(hq)-1]
		fl.hugeNodes[nd] = hq[:len(hq)-1]
		fl.nodes[nd] = append(fl.nodes[nd], blk...)
		fl.rt.charge(p, "alloc",
			costBuddyOp+costFreelistMove*uint64(len(blk)))
		return nd
	}
	return -1
}

// fillHuge seeds the huge tier with freshly carved 2 MB blocks.
func (fl *freelist) fillHuge(blocks [][]*mem.Frame) {
	if len(blocks) == 0 {
		return
	}
	if fl.hugeNodes == nil {
		fl.hugeNodes = make([][][]*mem.Frame, len(fl.nodes))
	}
	for _, b := range blocks {
		fl.hugeNodes[b[0].Node()] = append(fl.hugeNodes[b[0].Node()], b)
		fl.free += len(b)
	}
}

// popHuge takes one 2 MB block for the calling core, local node first. Huge
// allocation never dips into the 4 KB queues: when contiguity has run out the
// caller falls back to base-page faults instead.
func (fl *freelist) popHuge(p *engine.Proc) []*mem.Frame {
	if len(fl.hugeNodes) == 0 {
		return nil
	}
	local := p.Node()
	fl.rt.charge(p, "alloc", costBuddyOp)
	for d := 0; d < len(fl.hugeNodes); d++ {
		nd := (local + d) % len(fl.hugeNodes)
		if d > 0 {
			fl.rt.charge(p, "alloc", cpu.NUMARemoteAccess)
		}
		if hq := fl.hugeNodes[nd]; len(hq) > 0 {
			blk := hq[len(hq)-1]
			fl.hugeNodes[nd] = hq[:len(hq)-1]
			fl.free -= len(blk)
			return blk
		}
	}
	return nil
}

// popHugeIf is the promotion claim: it pops a block and asks ok — which runs
// after the pop's charges, so it sees the state the claim must be valid in —
// whether to keep it. A rejected block goes back to its node's huge tier here,
// so a caller holds either a validated block or nil and cannot leak one.
func (fl *freelist) popHugeIf(p *engine.Proc, ok func() bool) []*mem.Frame {
	blk := fl.popHuge(p)
	if blk == nil || ok() {
		return blk
	}
	fl.pushHuge(p, blk)
	return nil
}

// pushHuge returns a whole-unit block to its NUMA node's huge tier,
// preserving its contiguity for the next promotion.
func (fl *freelist) pushHuge(p *engine.Proc, blk []*mem.Frame) {
	if fl.hugeNodes == nil {
		fl.hugeNodes = make([][][]*mem.Frame, len(fl.nodes))
	}
	fl.hugeNodes[blk[0].Node()] = append(fl.hugeNodes[blk[0].Node()], blk)
	fl.free += len(blk)
	fl.rt.charge(p, "alloc", costBuddyOp)
}

// refill moves up to FreelistBatch pages from a NUMA queue to a core queue.
// The queue mutation happens before any cycle charging: charging yields, and
// two cores refilling from the same node queue across a yield would both
// take the same frames.
func (fl *freelist) refill(p *engine.Proc, core, node int) bool {
	nq := fl.nodes[node]
	if len(nq) == 0 {
		return false
	}
	n := fl.rt.P.FreelistBatch
	if n > len(nq) {
		n = len(nq)
	}
	fl.cores[core] = append(fl.cores[core], nq[len(nq)-n:]...)
	fl.nodes[node] = nq[:len(nq)-n]
	fl.rt.charge(p, "alloc", costFreelistMove*uint64(n))
	return true
}

// popSingle and pushSingle are the single-shared-queue ablation paths.
func (fl *freelist) popSingle(p *engine.Proc) *mem.Frame {
	fl.singleLock.Lock(p)
	fl.rt.charge(p, "alloc", costFreelistPop)
	var f *mem.Frame
	if n := len(fl.single); n > 0 {
		f = fl.single[n-1]
		fl.single = fl.single[:n-1]
		fl.free--
	}
	fl.singleLock.Unlock(p)
	return f
}

func (fl *freelist) pushSingle(p *engine.Proc, f *mem.Frame) {
	fl.singleLock.Lock(p)
	fl.rt.charge(p, "alloc", costFreelistPop)
	fl.single = append(fl.single, f)
	fl.free++
	fl.singleLock.Unlock(p)
}

// push returns an evicted frame to the evicting core's queue, spilling a
// batch to the NUMA queue when the core queue exceeds its threshold (§3.2).
func (fl *freelist) push(p *engine.Proc, f *mem.Frame) {
	if fl.singleLock != nil {
		fl.pushSingle(p, f)
		return
	}
	core := p.CPU()
	fl.cores[core] = append(fl.cores[core], f)
	fl.free++
	if len(fl.cores[core]) > fl.rt.P.CoreQueueLimit {
		n := fl.rt.P.FreelistBatch
		if n > len(fl.cores[core]) {
			n = len(fl.cores[core])
		}
		q := fl.cores[core]
		for _, fr := range q[len(q)-n:] {
			fl.nodes[fr.Node()] = append(fl.nodes[fr.Node()], fr)
		}
		fl.cores[core] = q[:len(q)-n]
		fl.rt.charge(p, "alloc", costFreelistMove*uint64(n))
	}
}

// pushBatch returns a batch of reclaimed frames straight to their NUMA
// queues (background-evictor refill): unlike push, the frames bypass the
// evicting core's private queue so every core can allocate them immediately
// instead of waiting for a spill.
func (fl *freelist) pushBatch(p *engine.Proc, frames []*mem.Frame) {
	if len(frames) == 0 {
		return
	}
	if fl.singleLock != nil {
		fl.singleLock.Lock(p)
		fl.rt.charge(p, "alloc", costFreelistPop)
		fl.single = append(fl.single, frames...)
		fl.free += len(frames)
		fl.singleLock.Unlock(p)
		return
	}
	for _, f := range frames {
		fl.nodes[f.Node()] = append(fl.nodes[f.Node()], f)
	}
	fl.free += len(frames)
	fl.rt.charge(p, "alloc", costFreelistMove*uint64(len(frames)))
}

// steal takes one frame from any core's private queue. Last resort on the
// direct-reclaim path: frames parked on other cores' queues are invisible to
// pop, and a starving allocation must not fail while they exist.
func (fl *freelist) steal(p *engine.Proc) *mem.Frame {
	if fl.singleLock != nil {
		return nil // the single queue has no private levels to strand frames
	}
	fl.rt.charge(p, "alloc", cpu.NUMARemoteAccess)
	for c := range fl.cores {
		if q := fl.cores[c]; len(q) > 0 {
			f := q[len(q)-1]
			fl.cores[c] = q[:len(q)-1]
			fl.free--
			return f
		}
	}
	return nil
}

// freeQueue is one queue of free frames as the audits see it.
type freeQueue struct {
	name   string
	frames []*mem.Frame
}

// queues lists every queue of free frames, a huge block as its own.
func (fl *freelist) queues() []freeQueue {
	qs := []freeQueue{{"single queue", fl.single}}
	for c, q := range fl.cores {
		qs = append(qs, freeQueue{fmt.Sprintf("core queue %d", c), q})
	}
	for n, q := range fl.nodes {
		qs = append(qs, freeQueue{fmt.Sprintf("numa queue %d", n), q})
	}
	for n, blocks := range fl.hugeNodes {
		for _, blk := range blocks {
			qs = append(qs, freeQueue{fmt.Sprintf("huge queue %d", n), blk})
		}
	}
	return qs
}

// audit recounts frames across every queue; tests assert it equals Free().
func (fl *freelist) audit() (n int) {
	for _, q := range fl.queues() {
		n += len(q.frames)
	}
	return n
}

// drain removes up to n frames from the queues (cache shrink), preferring
// NUMA queues.
func (fl *freelist) drain(n int) []*mem.Frame {
	var out []*mem.Frame
	for n > len(out) && len(fl.single) > 0 {
		out = append(out, fl.single[len(fl.single)-1])
		fl.single = fl.single[:len(fl.single)-1]
	}
	for node := range fl.nodes {
		for n > len(out) && len(fl.nodes[node]) > 0 {
			q := fl.nodes[node]
			out = append(out, q[len(q)-1])
			fl.nodes[node] = q[:len(q)-1]
		}
	}
	for core := range fl.cores {
		for n > len(out) && len(fl.cores[core]) > 0 {
			q := fl.cores[core]
			out = append(out, q[len(q)-1])
			fl.cores[core] = q[:len(q)-1]
		}
	}
	// Huge blocks drain last and whole (block granularity may overshoot n
	// slightly; the caller sizes the shrink by what actually drained).
	for node := range fl.hugeNodes {
		for n > len(out) && len(fl.hugeNodes[node]) > 0 {
			hq := fl.hugeNodes[node]
			out = append(out, hq[len(hq)-1]...)
			fl.hugeNodes[node] = hq[:len(hq)-1]
		}
	}
	fl.free -= len(out)
	return out
}
