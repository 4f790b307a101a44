package mem

import "fmt"

// Buddy-allocation tier: the huge-page path needs physically contiguous,
// 2 MB-aligned runs of 512 frames, so contiguity must be a first-class
// allocator concern rather than an afterthought. Each NUMA node's frame range
// is carved into maximal size-aligned blocks of at most MaxOrder, and blocks
// split on allocation / coalesce with their XOR-buddy on free, exactly like
// the classic binary buddy system.
//
// The buddy tier is optional: NewAllocator keeps the plain per-node stacks
// (and their exact allocation order), NewBuddyAllocator routes every
// Alloc/Release through the buddy structures. The two modes never mix, so the
// 4 KB-only configuration stays bit-identical to the pre-huge-page code.

// MaxOrder is the largest block order: 2^9 frames = 512 * 4 KB = 2 MB.
const MaxOrder = 9

// BlockFrames is the number of base frames in one max-order (2 MB) block.
const BlockFrames = 1 << MaxOrder

// Free blocks are tracked in node.meta (per frame, 1+order while a free block
// starts there: the source of truth) plus per-order stacks used for
// deterministic LIFO selection. Stack entries are lazily deleted: coalescing
// clears a buddy's order without searching its stack, and pops validate
// against meta, skipping stale entries.
const (
	metaHandedOut = 0x80 // the frame has been allocated at least once
	metaOrder     = 0x7f // 1+order of the free block based at the frame, 0: none
)

// freeOrder returns the order of the free block based at frame id, -1 when
// there is none or the frame is another node's.
func (n *node) freeOrder(id uint64) int {
	if i := id - n.lo; i < uint64(len(n.meta)) { // id < lo wraps past the end
		return int(n.meta[i]&metaOrder) - 1
	}
	return -1
}

// markFree registers the block at base free at order o and pushes it.
func (n *node) markFree(base uint64, o int) {
	n.meta[base-n.lo] |= uint8(o + 1)
	n.freeBlocks++
	n.stacks[o] = append(n.stacks[o], base)
}

// unmarkFree clears the free block based at base (its stack entry goes stale).
func (n *node) unmarkFree(base uint64) {
	n.meta[base-n.lo] &^= metaOrder
	n.freeBlocks--
}

// carve splits the node's range into maximal size-aligned blocks of order <=
// MaxOrder and registers them free, from the top down so low IDs pop first,
// matching the plain allocator's preference.
func (n *node) carve() {
	for end := n.lo + uint64(len(n.meta)); end > n.lo; {
		o := MaxOrder
		for o > 0 && (end&(1<<o-1) != 0 || end-n.lo < 1<<o) {
			o--
		}
		end -= 1 << o
		n.markFree(end, o)
		n.freeFrames += 1 << o
		if o == MaxOrder {
			n.freeMax++
		}
	}
}

// popOrder pops the most recently freed valid block of exactly this order.
func (n *node) popOrder(o int) (uint64, bool) {
	s := n.stacks[o]
	for len(s) > 0 {
		base := s[len(s)-1]
		s = s[:len(s)-1]
		if n.freeOrder(base) == o {
			n.unmarkFree(base)
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
func (n *node) allocOrder(want int) (uint64, bool) {
	for o := want; o <= MaxOrder; o++ {
		base, ok := n.popOrder(o)
		if !ok {
			continue
		}
		// Split back down, freeing each upper half.
		for ; o > want; o-- {
			n.markFree(base+1<<(o-1), o-1)
			n.freeFrames += 1 << (o - 1)
		}
		return base, true
	}
	return 0, false
}

// freeBlock returns a block of the given order, coalescing with free buddies
// up to MaxOrder. The XOR-buddy rule keeps merges aligned automatically, and
// freeOrder sees only this node's frames, so merges never cross nodes.
func (n *node) freeBlock(base uint64, order int) {
	if prev := n.freeOrder(base); prev >= 0 {
		panic(fmt.Sprintf("mem: buddy double free of block %d (order %d, already free at order %d)", base, order, prev))
	}
	o := order
	for o < MaxOrder {
		bud := base ^ (1 << o)
		if n.freeOrder(bud) != o {
			break
		}
		n.unmarkFree(bud) // stale stack entry skipped by popOrder
		if bud < base {
			base = bud
		}
		o++
	}
	n.markFree(base, o)
	n.freeFrames += 1 << order
	if o == MaxOrder {
		n.freeMax++
	}
	if len(n.stacks[o]) > 4*n.freeBlocks+64 {
		n.compact(o)
	}
}

// compact drops stale (lazily deleted) entries from one order's stack,
// preserving relative order for determinism.
func (n *node) compact(o int) {
	live := n.stacks[o][:0]
	for _, base := range n.stacks[o] {
		if n.freeOrder(base) == o {
			live = append(live, base)
		}
	}
	n.stacks[o] = live
}

// NewBuddyAllocator creates an allocator with the same capacity layout as
// NewAllocator but with every node's range managed by a buddy system, so
// 2 MB-contiguous blocks can be allocated and reclaimed.
func NewBuddyAllocator(totalBytes uint64, numNodes int) *Allocator {
	a := NewAllocator(totalBytes, numNodes)
	a.buddy = true
	for n := range a.nodes {
		a.nodes[n].meta = make([]uint8, a.perNode)
		a.nodes[n].carve()
	}
	return a
}

// Buddy reports whether this allocator manages frames with the buddy tier.
func (a *Allocator) Buddy() bool { return a.buddy }

// AllocBlock allocates one 2 MB-aligned run of BlockFrames consecutive frames,
// preferring the given NUMA node, and returns its base frame: frame i of the
// block is base.BlockFrame(i). Returns nil when no node has a contiguous block
// left (the caller falls back to base-page allocation).
func (a *Allocator) AllocBlock(preferNode int) *Frame {
	if !a.buddy {
		return nil
	}
	if preferNode < 0 || preferNode >= len(a.nodes) {
		preferNode = 0
	}
	for d := range a.nodes {
		ni := (preferNode + d) % len(a.nodes)
		base, ok := a.nodes[ni].allocOrder(MaxOrder)
		if !ok {
			continue
		}
		f := a.handOut(ni, base)
		for i := uint64(1); i < BlockFrames; i++ {
			a.handOut(ni, base+i)
		}
		a.allocated += BlockFrames
		return f
	}
	return nil
}

// ReleaseBlock returns a full 2 MB block, given by its base frame as
// AllocBlock returned it, to the buddy tier in one operation.
func (a *Allocator) ReleaseBlock(base *Frame) {
	if !a.buddy {
		panic("mem: ReleaseBlock on non-buddy allocator")
	}
	if base.ID%BlockFrames != 0 {
		panic(fmt.Sprintf("mem: ReleaseBlock of frame %d, not a block's base frame", base.ID))
	}
	if a.Frame(base.ID) != base {
		panic(fmt.Sprintf("mem: ReleaseBlock of frame %d, not this allocator's", base.ID))
	}
	a.nodes[base.Node()].freeBlock(base.ID, MaxOrder)
	if a.allocated < BlockFrames {
		panic("mem: ReleaseBlock without matching allocation")
	}
	a.allocated -= BlockFrames
}

// FreeBlocksOnNode returns the number of free max-order (2 MB) blocks a node
// could hand out right now, counting coalesced contiguity only.
func (a *Allocator) FreeBlocksOnNode(node int) int { return a.nodes[node].freeMax }
