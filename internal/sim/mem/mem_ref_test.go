package mem

import "fmt"

// refAllocator is the allocator as it was before the flat frame table: a heap
// Frame per frame behind a map keyed by frame ID, an explicit free stack per
// node filled at boot, and the buddy tier's free blocks in a map from base
// frame to order. It is the reference model the differential test holds
// Allocator to — every golden was generated on it — and is kept verbatim but
// for the block calls, which name a block by its base frame as Allocator's do.
// refAllocator hands out frames from per-NUMA-node pools. With the optional
// buddy tier (newRefBuddyAllocator) the per-node pools are buddy systems that can
// additionally hand out 2 MB-contiguous blocks; see buddy.go.
type refAllocator struct {
	numNodes  int
	freeLists [][]uint64 // stacks of free frame IDs per node (non-buddy mode)
	buddy     []*refBuddyNode
	frames    map[uint64]*Frame
	allocated uint64
	capacity  uint64
}

// newRefAllocator creates an allocator managing `totalBytes` of DRAM split
// evenly across `numNodes` NUMA nodes.
func newRefAllocator(totalBytes uint64, numNodes int) *refAllocator {
	if numNodes <= 0 {
		numNodes = 1
	}
	totalFrames := totalBytes / PageSize
	perNode := totalFrames / uint64(numNodes)
	if perNode == 0 {
		perNode = 1
	}
	a := &refAllocator{
		numNodes: numNodes,
		frames:   make(map[uint64]*Frame),
		capacity: perNode * uint64(numNodes),
	}
	for n := 0; n < numNodes; n++ {
		free := make([]uint64, 0, perNode)
		base := uint64(n) * perNode
		// Push in reverse so low IDs pop first (determinism & readability).
		for i := perNode; i > 0; i-- {
			free = append(free, base+i-1)
		}
		a.freeLists = append(a.freeLists, free)
	}
	return a
}

// Capacity returns the total number of frames managed.
func (a *refAllocator) Capacity() uint64 { return a.capacity }

// Allocated returns the number of frames currently handed out.
func (a *refAllocator) Allocated() uint64 { return a.allocated }

// Free returns the number of free frames across all nodes.
func (a *refAllocator) Free() uint64 { return a.capacity - a.allocated }

// FreeOnNode returns the number of free frames on one node.
func (a *refAllocator) FreeOnNode(node int) uint64 {
	if a.buddy != nil {
		return a.buddy[node].freeFrames
	}
	return uint64(len(a.freeLists[node]))
}

// Alloc allocates one frame, preferring the given NUMA node and falling back
// to other nodes. Returns nil when out of memory.
func (a *refAllocator) Alloc(preferNode int) *Frame {
	if a.buddy != nil {
		return a.buddyAlloc(preferNode)
	}
	if preferNode < 0 || preferNode >= a.numNodes {
		preferNode = 0
	}
	for d := 0; d < a.numNodes; d++ {
		node := (preferNode + d) % a.numNodes
		fl := a.freeLists[node]
		if len(fl) == 0 {
			continue
		}
		id := fl[len(fl)-1]
		a.freeLists[node] = fl[:len(fl)-1]
		f := a.frames[id]
		if f == nil {
			f = &Frame{ID: id, home: &home{node: node}}
			a.frames[id] = f
		}
		a.allocated++
		return f
	}
	return nil
}

// AllocN allocates up to n frames on the preferred node, returning what it got.
func (a *refAllocator) AllocN(preferNode, n int) []*Frame {
	out := make([]*Frame, 0, n)
	for i := 0; i < n; i++ {
		f := a.Alloc(preferNode)
		if f == nil {
			break
		}
		out = append(out, f)
	}
	return out
}

// Release returns a frame to its node's pool. The payload is kept (zeroing is
// the consumer's policy via Frame.Reset).
func (a *refAllocator) Release(f *Frame) {
	if f == nil {
		panic("mem: release of nil frame")
	}
	if a.allocated == 0 {
		panic(fmt.Sprintf("mem: double release of frame %d", f.ID))
	}
	if a.buddy != nil {
		a.buddy[f.Node()].freeBlock(f.ID, 0)
		a.allocated--
		return
	}
	a.freeLists[f.Node()] = append(a.freeLists[f.Node()], f.ID)
	a.allocated--
}

// Frame returns the frame with the given id if it was ever allocated.
func (a *refAllocator) Frame(id uint64) *Frame { return a.frames[id] }

// refBuddyNode is one NUMA node's buddy state. Free blocks are tracked in
// freeAt (base frame ID -> order, the source of truth) plus per-order stacks
// used for deterministic LIFO selection. Stack entries are lazily deleted:
// coalescing removes a buddy from freeAt without searching its stack, and
// pops validate against freeAt, skipping stale entries.
type refBuddyNode struct {
	lo, hi     uint64 // frame-ID range [lo, hi) owned by this node
	stacks     [MaxOrder + 1][]uint64
	freeAt     map[uint64]int
	freeFrames uint64
	freeMax    int // live free blocks of exactly MaxOrder
}

// carve splits [lo, hi) into maximal size-aligned blocks of order <= MaxOrder
// and registers them free. Blocks are pushed in reverse so low IDs pop first,
// matching the plain allocator's preference.
func (n *refBuddyNode) carve() {
	type blk struct {
		base  uint64
		order int
	}
	var blocks []blk
	for base := n.lo; base < n.hi; {
		o := MaxOrder
		for o > 0 && (base&(1<<o-1) != 0 || base+1<<o > n.hi) {
			o--
		}
		blocks = append(blocks, blk{base, o})
		base += 1 << o
	}
	for i := len(blocks) - 1; i >= 0; i-- {
		b := blocks[i]
		n.freeAt[b.base] = b.order
		n.stacks[b.order] = append(n.stacks[b.order], b.base)
		n.freeFrames += 1 << b.order
		if b.order == MaxOrder {
			n.freeMax++
		}
	}
}

// popOrder pops the most recently freed valid block of exactly this order.
func (n *refBuddyNode) popOrder(o int) (uint64, bool) {
	s := n.stacks[o]
	for len(s) > 0 {
		base := s[len(s)-1]
		s = s[:len(s)-1]
		if bo, ok := n.freeAt[base]; ok && bo == o {
			delete(n.freeAt, base)
			n.stacks[o] = s
			n.freeFrames -= 1 << o
			if o == MaxOrder {
				n.freeMax--
			}
			return base, true
		}
	}
	n.stacks[o] = s
	return 0, false
}

// allocOrder allocates one block of the requested order, splitting a larger
// block when none of that size is free. Returns false when the node has no
// block of order >= want.
func (n *refBuddyNode) allocOrder(want int) (uint64, bool) {
	for o := want; o <= MaxOrder; o++ {
		base, ok := n.popOrder(o)
		if !ok {
			continue
		}
		// Split back down, freeing each upper half.
		for ; o > want; o-- {
			upper := base + 1<<(o-1)
			n.freeAt[upper] = o - 1
			n.stacks[o-1] = append(n.stacks[o-1], upper)
			n.freeFrames += 1 << (o - 1)
		}
		return base, true
	}
	return 0, false
}

// freeBlock returns a block of the given order, coalescing with free buddies
// up to MaxOrder. The XOR-buddy rule keeps merges aligned automatically, and
// per-node freeAt maps make cross-node merges impossible.
func (n *refBuddyNode) freeBlock(base uint64, order int) {
	if prev, ok := n.freeAt[base]; ok {
		panic(fmt.Sprintf("mem: buddy double free of block %d (order %d, already free at order %d)", base, order, prev))
	}
	o := order
	for o < MaxOrder {
		bud := base ^ (1 << o)
		if bo, ok := n.freeAt[bud]; !ok || bo != o {
			break
		}
		delete(n.freeAt, bud) // stale stack entry skipped by popOrder
		if bud < base {
			base = bud
		}
		o++
	}
	n.freeAt[base] = o
	n.stacks[o] = append(n.stacks[o], base)
	n.freeFrames += 1 << order
	if o == MaxOrder {
		n.freeMax++
	}
	if len(n.stacks[o]) > 4*len(n.freeAt)+64 {
		n.compact(o)
	}
}

// compact drops stale (lazily deleted) entries from one order's stack,
// preserving relative order for determinism.
func (n *refBuddyNode) compact(o int) {
	live := n.stacks[o][:0]
	for _, base := range n.stacks[o] {
		if bo, ok := n.freeAt[base]; ok && bo == o {
			live = append(live, base)
		}
	}
	n.stacks[o] = live
}

// newRefBuddyAllocator creates an allocator with the same capacity layout as
// newRefAllocator but with every node's range managed by a buddy system, so
// 2 MB-contiguous blocks can be allocated and reclaimed.
func newRefBuddyAllocator(totalBytes uint64, numNodes int) *refAllocator {
	if numNodes <= 0 {
		numNodes = 1
	}
	totalFrames := totalBytes / PageSize
	perNode := totalFrames / uint64(numNodes)
	if perNode == 0 {
		perNode = 1
	}
	a := &refAllocator{
		numNodes: numNodes,
		frames:   make(map[uint64]*Frame),
		capacity: perNode * uint64(numNodes),
	}
	for n := 0; n < numNodes; n++ {
		bn := &refBuddyNode{
			lo:     uint64(n) * perNode,
			hi:     uint64(n+1) * perNode,
			freeAt: make(map[uint64]int),
		}
		bn.carve()
		a.buddy = append(a.buddy, bn)
	}
	return a
}

// Buddy reports whether this allocator manages frames with the buddy tier.
func (a *refAllocator) Buddy() bool { return a.buddy != nil }

// frameAt returns (creating lazily) the frame with the given id on a node.
func (a *refAllocator) frameAt(id uint64, node int) *Frame {
	f := a.frames[id]
	if f == nil {
		f = &Frame{ID: id, home: &home{node: node}}
		a.frames[id] = f
	}
	return f
}

// buddyAlloc allocates one order-0 frame from the buddy tier, preferring the
// given node.
func (a *refAllocator) buddyAlloc(preferNode int) *Frame {
	if preferNode < 0 || preferNode >= a.numNodes {
		preferNode = 0
	}
	for d := 0; d < a.numNodes; d++ {
		node := (preferNode + d) % a.numNodes
		if base, ok := a.buddy[node].allocOrder(0); ok {
			a.allocated++
			return a.frameAt(base, node)
		}
	}
	return nil
}

// AllocBlock allocates one 2 MB-aligned run of BlockFrames consecutive frames,
// preferring the given NUMA node, and returns its base frame (blockFrame
// gives the others). Returns nil when no node has a contiguous block left
// (the caller falls back to base-page allocation).
func (a *refAllocator) AllocBlock(preferNode int) *Frame {
	if a.buddy == nil {
		return nil
	}
	if preferNode < 0 || preferNode >= a.numNodes {
		preferNode = 0
	}
	for d := 0; d < a.numNodes; d++ {
		node := (preferNode + d) % a.numNodes
		base, ok := a.buddy[node].allocOrder(MaxOrder)
		if !ok {
			continue
		}
		for i := uint64(0); i < BlockFrames; i++ {
			a.frameAt(base+i, node)
		}
		a.allocated += BlockFrames
		return a.frames[base]
	}
	return nil
}

// blockFrame returns frame i of the block based at base.
func (a *refAllocator) blockFrame(base *Frame, i int) *Frame { return a.frames[base.ID+uint64(i)] }

// ReleaseBlock returns a full 2 MB block, given by its base frame, to the
// buddy tier in one operation.
func (a *refAllocator) ReleaseBlock(base *Frame) {
	if a.buddy == nil {
		panic("mem: ReleaseBlock on non-buddy allocator")
	}
	if base.ID%BlockFrames != 0 {
		panic(fmt.Sprintf("mem: ReleaseBlock of frame %d, not a block's base frame", base.ID))
	}
	if a.frames[base.ID] != base {
		panic(fmt.Sprintf("mem: ReleaseBlock of frame %d, not this allocator's", base.ID))
	}
	a.buddy[base.Node()].freeBlock(base.ID, MaxOrder)
	if a.allocated < BlockFrames {
		panic("mem: ReleaseBlock without matching allocation")
	}
	a.allocated -= BlockFrames
}

// FreeBlocksOnNode returns the number of free max-order (2 MB) blocks a node
// could hand out right now, counting coalesced contiguity only.
func (a *refAllocator) FreeBlocksOnNode(node int) int {
	if a.buddy == nil {
		return 0
	}
	return a.buddy[node].freeMax
}
