// Package mem models NUMA-aware simulated physical memory: frames of 4 KB
// handed out by a per-node allocator. Frames optionally carry real byte
// payloads for experiments whose applications read and write actual data
// (key-value stores, graph processing); microbenchmarks that only exercise
// metadata paths leave payloads unallocated.
package mem

import "fmt"

// PageSize is the base page size of the simulated machine.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Frame is one physical page of simulated DRAM.
type Frame struct {
	ID   uint64
	Node int
	data []byte
}

// Data returns the frame's payload, allocating it on first use.
func (f *Frame) Data() []byte {
	if f.data == nil {
		f.data = make([]byte, PageSize)
	}
	return f.data
}

// HasData reports whether a payload has been materialized.
func (f *Frame) HasData() bool { return f.data != nil }

// Reset zeroes the payload if materialized (page reuse between files).
func (f *Frame) Reset() {
	for i := range f.data {
		f.data[i] = 0
	}
}

// Allocator hands out frames from per-NUMA-node pools. With the optional
// buddy tier (NewBuddyAllocator) the per-node pools are buddy systems that can
// additionally hand out 2 MB-contiguous blocks; see buddy.go.
type Allocator struct {
	numNodes  int
	freeLists [][]uint64 // stacks of free frame IDs per node (non-buddy mode)
	buddy     []*buddyNode
	frames    map[uint64]*Frame
	allocated uint64
	capacity  uint64
}

// NewAllocator creates an allocator managing `totalBytes` of DRAM split
// evenly across `numNodes` NUMA nodes.
func NewAllocator(totalBytes uint64, numNodes int) *Allocator {
	if numNodes <= 0 {
		numNodes = 1
	}
	totalFrames := totalBytes / PageSize
	perNode := totalFrames / uint64(numNodes)
	if perNode == 0 {
		perNode = 1
	}
	a := &Allocator{
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
func (a *Allocator) Capacity() uint64 { return a.capacity }

// Allocated returns the number of frames currently handed out.
func (a *Allocator) Allocated() uint64 { return a.allocated }

// Free returns the number of free frames across all nodes.
func (a *Allocator) Free() uint64 { return a.capacity - a.allocated }

// FreeOnNode returns the number of free frames on one node.
func (a *Allocator) FreeOnNode(node int) uint64 {
	if a.buddy != nil {
		return a.buddy[node].freeFrames
	}
	return uint64(len(a.freeLists[node]))
}

// Alloc allocates one frame, preferring the given NUMA node and falling back
// to other nodes. Returns nil when out of memory.
func (a *Allocator) Alloc(preferNode int) *Frame {
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
			f = &Frame{ID: id, Node: node}
			a.frames[id] = f
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

// Release returns a frame to its node's pool. The payload is kept (zeroing is
// the consumer's policy via Frame.Reset).
func (a *Allocator) Release(f *Frame) {
	if f == nil {
		panic("mem: release of nil frame")
	}
	if a.allocated == 0 {
		panic(fmt.Sprintf("mem: double release of frame %d", f.ID))
	}
	if a.buddy != nil {
		a.buddy[f.Node].freeBlock(f.ID, 0)
		a.allocated--
		return
	}
	a.freeLists[f.Node] = append(a.freeLists[f.Node], f.ID)
	a.allocated--
}

// Frame returns the frame with the given id if it was ever allocated.
func (a *Allocator) Frame(id uint64) *Frame { return a.frames[id] }
