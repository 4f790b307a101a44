// Package mem models NUMA-aware simulated physical memory: frames of 4 KB
// handed out by a per-node allocator. A frame carries the real bytes of its
// page for the applications that read and write actual data, held the way a
// device block is (buffers.go): up to its last nonzero 64-byte line, in a
// buffer of its allocator's class lists. A frame nothing ever stored to or
// filled holds no payload, and one of 8-byte stamps holds one line.
package mem

import "fmt"

// PageSize is the base page size of the simulated machine.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Frame is one physical page of simulated DRAM: 40 bytes a frame.
type Frame struct {
	ID uint64
	// data is the payload: nil until the frame is first stored to or filled,
	// then the page up to its last nonzero line (buffers.go), in a buffer of
	// its home's class lists.
	data []byte
	home *home
}

// home is what the frames of one NUMA node share: the node's index, the
// class lists of the allocator that hands them out, and the node's frame
// table, in which a 2 MB block's frames follow its base frame.
type home struct {
	node int
	bufs *Buffers
	lo   uint64 // the node's first frame ID
	// frames holds frame lo+i at index i. It is made at the node's first
	// allocation, so a pool nobody allocates from costs no table.
	frames []Frame
}

// Node returns the NUMA node the frame belongs to.
func (f *Frame) Node() int { return f.home.node }

// BlockFrame returns frame i of the 2 MB block whose base frame is f
// (Allocator.AllocBlock): the record of frame f.ID+i, from the node's table.
func (f *Frame) BlockFrame(i int) *Frame { return &f.home.frames[f.ID-f.home.lo+uint64(i)] }

// HasData reports whether a payload has been materialized.
func (f *Frame) HasData() bool { return f.data != nil }

// Held returns the payload's held bytes — the page up to its last nonzero
// line, zeros past it — for a write-back to copy. The frame keeps it.
func (f *Frame) Held() []byte { return f.data }

// ReadAt copies the page's bytes at off into dst.
func (f *Frame) ReadAt(dst []byte, off int) {
	k := 0
	if off < len(f.data) {
		k = copy(dst, f.data[off:])
	}
	clear(dst[k:])
}

// WriteAt stores src into the page at off, materializing the payload. The
// held bytes grow only when nonzero bytes land past their end.
func (f *Frame) WriteAt(off int, src []byte) {
	f.data = f.home.bufs.Put(f.data, off, src, off+len(src))
}

// Load sets the whole page to held, then zeros: the fill from a device block.
// held is a block's view (device.Store.ReadPage), which ends at its last
// nonzero line, so it is taken as it is (Buffers.SetHeld).
func (f *Frame) Load(held []byte) { f.data = f.home.bufs.SetHeld(f.data, held) }

// SetPage sets the whole page to src, at most a page of any bytes, then
// zeros: a whole-page write. The frame holds src up to its last nonzero line.
func (f *Frame) SetPage(src []byte) { f.data = f.home.bufs.Set(f.data, src) }

// Reset zeroes the payload if materialized (page reuse between files); the
// frame keeps its buffer.
func (f *Frame) Reset() { f.data = f.data[:0] }

// Allocator hands out frames from per-NUMA-node pools. Simulated DRAM is flat
// (DESIGN.md §3): a node's frames are records in one table indexed by frame
// ID, so handing a frame out allocates nothing. With the optional buddy tier
// (NewBuddyAllocator) the pools are buddy systems that can additionally hand
// out 2 MB-contiguous blocks; see buddy.go.
type Allocator struct {
	perNode   uint64
	nodes     []node
	buddy     bool
	allocated uint64
	bufs      Buffers // the frames' payload buffers
}

// node is one NUMA node's pool: frame IDs [lo, lo+perNode).
type node struct {
	home // what the node's frames point to
	// Plain tier. The free stack pops the most recently released frame, then
	// low IDs first: its top is released, its bottom — the frames never handed
	// out, in descending order — is kept as the count of those that have been.
	fresh    uint64
	released []*Frame
	// Buddy tier (buddy.go). meta holds, per frame, metaHandedOut and
	// 1+order while a free block starts at the frame.
	meta       []uint8
	stacks     [MaxOrder + 1][]uint64
	freeBlocks int
	freeFrames uint64
	freeMax    int // live free blocks of exactly MaxOrder
}

// NewAllocator creates an allocator managing `totalBytes` of DRAM split
// evenly across `numNodes` NUMA nodes.
func NewAllocator(totalBytes uint64, numNodes int) *Allocator {
	if numNodes <= 0 {
		numNodes = 1
	}
	perNode := totalBytes / PageSize / uint64(numNodes)
	if perNode == 0 {
		perNode = 1
	}
	a := &Allocator{perNode: perNode, nodes: make([]node, numNodes)}
	for n := range a.nodes {
		a.nodes[n].home = home{node: n, bufs: &a.bufs, lo: uint64(n) * perNode}
	}
	return a
}

// Capacity returns the total number of frames managed.
func (a *Allocator) Capacity() uint64 { return a.perNode * uint64(len(a.nodes)) }

// Allocated returns the number of frames currently handed out.
func (a *Allocator) Allocated() uint64 { return a.allocated }

// Free returns the number of free frames across all nodes.
func (a *Allocator) Free() uint64 { return a.Capacity() - a.allocated }

// FreeOnNode returns the number of free frames on one node.
func (a *Allocator) FreeOnNode(node int) uint64 {
	n := &a.nodes[node]
	if a.buddy {
		return n.freeFrames
	}
	return a.perNode - n.fresh + uint64(len(n.released))
}

// handOut returns the record of a frame the caller took off a free structure
// of node ni.
func (a *Allocator) handOut(ni int, id uint64) *Frame {
	n := &a.nodes[ni]
	if n.frames == nil {
		n.frames = make([]Frame, a.perNode)
	}
	if a.buddy {
		n.meta[id-n.lo] |= metaHandedOut
	}
	f := &n.frames[id-n.lo]
	f.ID, f.home = id, &n.home
	return f
}

// Alloc allocates one frame, preferring the given NUMA node and falling back
// to other nodes. Returns nil when out of memory.
func (a *Allocator) Alloc(preferNode int) *Frame {
	if preferNode < 0 || preferNode >= len(a.nodes) {
		preferNode = 0
	}
	for d := range a.nodes {
		ni := preferNode + d
		if ni >= len(a.nodes) { // (preferNode+d) % nodes without the divide
			ni -= len(a.nodes)
		}
		n := &a.nodes[ni]
		var f *Frame
		if top := len(n.released) - 1; top >= 0 { // plain tier only
			f, n.released = n.released[top], n.released[:top]
		} else if a.buddy {
			base, ok := n.allocOrder(0)
			if !ok {
				continue
			}
			f = a.handOut(ni, base)
		} else if n.fresh < a.perNode {
			n.fresh++
			f = a.handOut(ni, n.lo+n.fresh-1)
		} else {
			continue
		}
		a.allocated++
		return f
	}
	return nil
}

// AllocN allocates up to n frames on the preferred node, returning what it got.
func (a *Allocator) AllocN(preferNode, n int) []*Frame {
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

// Release returns a frame to its node's pool. The payload is kept, buffer and
// all (zeroing is the consumer's policy via Frame.Reset).
func (a *Allocator) Release(f *Frame) {
	if f == nil {
		panic("mem: release of nil frame")
	}
	if a.allocated == 0 {
		panic(fmt.Sprintf("mem: double release of frame %d", f.ID))
	}
	n := &a.nodes[f.Node()]
	if a.buddy {
		n.freeBlock(f.ID, 0)
	} else {
		n.released = append(n.released, f)
	}
	a.allocated--
}

// Frame returns the frame with the given id if it was ever allocated.
func (a *Allocator) Frame(id uint64) *Frame {
	if id >= a.Capacity() {
		return nil
	}
	n := &a.nodes[id/a.perNode]
	i := id - n.lo
	if n.frames == nil || (a.buddy && n.meta[i]&metaHandedOut == 0) || (!a.buddy && i >= n.fresh) {
		return nil
	}
	return &n.frames[i]
}
