// Package device models the two storage devices of the paper's testbed:
//
//   - an Intel Optane P4800X-class NVMe SSD on PCIe (block-addressable,
//     ~10 us access latency, >500 K random IOPS), and
//   - a pmem block device backed by DRAM, used by the paper to stress the
//     software path as devices get faster.
//
// Devices separate *content* (a sparse store of 4 KB blocks holding real
// bytes, so applications above read back what they wrote; a block keeps only
// the prefix up to its last nonzero 64-byte line) from *timing* (queueing
// models that return completion times in simulated cycles). Software-path
// costs — syscalls, kernel block layer, SPDK submission, DAX memcpy — are
// charged by the I/O engines layered above, never here.
package device

import (
	"fmt"
	"iter"
	"slices"

	"aquila/internal/sim/mem"
)

// BlockSize is the content-store granularity.
const BlockSize = 4096

// Stats counts raw device operations.
type Stats struct {
	Reads        uint64
	Writes       uint64
	BytesRead    uint64
	BytesWritten uint64
}

// Store is a sparse byte store: the content of a device, split into durable
// media and a volatile write-cache tier — see crash.go. Blocks never written
// read back as zeros.
type Store struct {
	capacity uint64
	// tab is the block table: one entry per 4 KB block, both tiers in it, in
	// chunks of tabChunk blocks made at the first write into them. A read or
	// a write is one probe, every walk is in block order, and the directory
	// grows with the highest chunk written, never past capacity.
	tab []*[tabChunk]blockEntry
	// staged lists the blocks holding staged versions, in the order they first
	// got one; nextDue is the earliest durability point scheduled for any of
	// them (or earlier: Discard leaves it stale), notDurable when none is.
	staged  []uint64
	nextDue uint64
	// bufs takes back the content buffers no tier references any more (a
	// superseded media block or staged version, a discarded or crashed one)
	// for stage to reuse; spare holds the emptied per-block version lists,
	// and lists what is left of the slab new ones are carved from. A
	// rewrite-persist-settle cycle then allocates nothing. Both are bounded
	// by the peak number of blocks that were live at once.
	bufs  mem.Buffers
	spare [][]volVersion
	lists []volVersion
	stats Stats
	// obs is the device's instrumentation (Instrument), faults its fault
	// plan (InjectFaults); both nil when off.
	obs    *devObs
	faults *faultState
	// crashAtOp/crashHook implement CrashPlan.AtDeviceOp (crash.go).
	crashAtOp uint64
	crashHook func()
	crashRes  *CrashResult
}

// blockEntry is one block's content: media is what a crash leaves, versions
// the staged writes short of their durability point, oldest to newest — reads
// overlay the newest, Crash() discards them. versions is nil or non-empty: an
// emptied list goes to Store.spare. Each content buffer (media, a version's
// data) holds the block up to its last nonzero 64-byte line and reads as
// zeros past its length: a block of zeros is a non-nil empty slice, nil is a
// block never written. 48 bytes a block.
type blockEntry struct {
	media    []byte
	versions []volVersion
}

// tabChunk is how many blocks one chunk of the table covers (2 MB of device).
const (
	tabShift = 9
	tabChunk = 1 << tabShift
)

// NewStore creates a content store with the given capacity in bytes.
func NewStore(capacity uint64) *Store {
	return &Store{capacity: capacity, nextDue: notDurable}
}

// entry returns blk's table entry, or nil when its chunk was never written.
func (s *Store) entry(blk uint64) *blockEntry {
	if c := blk >> tabShift; c < uint64(len(s.tab)) && s.tab[c] != nil {
		return &s.tab[c][blk&(tabChunk-1)]
	}
	return nil
}

// slot returns blk's table entry for a write, making its chunk if need be; a
// block past the capacity is refused the way an access to it is.
func (s *Store) slot(blk uint64) *blockEntry {
	if blk >= (s.capacity+BlockSize-1)/BlockSize {
		s.rangePanic(blk*BlockSize, BlockSize)
	}
	c := blk >> tabShift
	if n := uint64(len(s.tab)); c >= n {
		s.tab = append(s.tab, make([]*[tabChunk]blockEntry, c+1-n)...)
	}
	if s.tab[c] == nil {
		s.tab[c] = new([tabChunk]blockEntry)
	}
	return &s.tab[c][blk&(tabChunk-1)]
}

// entries walks the table entries of blocks [lo, hi) whose chunk exists, in
// block order.
func (s *Store) entries(lo, hi uint64) iter.Seq2[uint64, *blockEntry] {
	return func(yield func(uint64, *blockEntry) bool) {
		for blk := lo; blk < min(hi, uint64(len(s.tab))<<tabShift); blk++ {
			if chunk := s.tab[blk>>tabShift]; chunk == nil {
				blk |= tabChunk - 1 // on to the next chunk
			} else if !yield(blk, &chunk[blk&(tabChunk-1)]) {
				return
			}
		}
	}
}

// Capacity returns the device capacity in bytes.
func (s *Store) Capacity() uint64 { return s.capacity }

// Stats returns operation counters.
func (s *Store) Stats() Stats { return s.stats }

// ReadAt copies device content at off into buf.
func (s *Store) ReadAt(off uint64, buf []byte) {
	s.checkRange(off, len(buf))
	s.stats.Reads++
	s.stats.BytesRead += uint64(len(buf))
	for n := 0; n < len(buf); {
		blk := (off + uint64(n)) / BlockSize
		bo := int((off + uint64(n)) % BlockSize)
		chunk := BlockSize - bo
		if chunk > len(buf)-n {
			chunk = len(buf) - n
		}
		k := 0
		if b := s.view(blk); bo < len(b) {
			k = copy(buf[n:n+chunk], b[bo:])
		}
		clear(buf[n+k : n+chunk])
		n += chunk
	}
}

// ReadPage is the page-fill read, at a block-aligned off. When the block is
// materialized it hands its held prefix — the block up to its last nonzero
// line, zeros past it — to load, which must copy it, and counts one 4 KB
// read, as ReadAt does; a block written with zeros included. A hole (a block
// never written) is not a device read: ReadPage reports false, counts nothing
// and never calls load, so a caller whose frames materialize lazily keeps an
// all-zero page free. One probe of the store either way.
func (s *Store) ReadPage(off uint64, load func(held []byte)) bool {
	s.checkAligned(off)
	b := s.view(off / BlockSize)
	if b == nil {
		return false
	}
	s.stats.Reads++
	s.stats.BytesRead += BlockSize
	load(b)
	return true
}

// WriteAt stages buf into the device's volatile write-cache tier at off. The
// bytes are immediately visible to reads but become durable only when a
// Persist-scheduled durability point is reached (crash.go). The first block
// that needs a new page-sized buffer takes one array for the write's whole
// blocks left, and the rest carve from it: a dense multi-block write is one
// allocation, an all-zero one none.
func (s *Store) WriteAt(off uint64, buf []byte) {
	s.checkRange(off, len(buf))
	s.stats.Writes++
	s.stats.BytesWritten += uint64(len(buf))
	for n := 0; n < len(buf); {
		blk := (off + uint64(n)) / BlockSize
		bo := int((off + uint64(n)) % BlockSize)
		chunk := BlockSize - bo
		if chunk > len(buf)-n {
			chunk = len(buf) - n
		}
		s.bufs.ReserveRun((len(buf) - n) / BlockSize)
		s.stage(blk, bo, buf[n:n+chunk], bo+chunk)
		n += chunk
	}
	s.bufs.ReserveRun(0)
	s.wrote()
}

// WritePage is the page write-back, at a block-aligned off: it stages held,
// then zeros to the end of the block. It is the WriteAt of the whole 4 KB
// page — counted, numbered and crash-hooked as that one is — without the page
// spelled out.
func (s *Store) WritePage(off uint64, held []byte) {
	s.stagePage(off, held)
	s.wrote()
}

// WriteFrames is the write-back of a run of frames to the blocks from a
// block-aligned off on: each materialized frame is the WritePage of its held
// bytes — its own write, counted, numbered and crash-hooked — and a frame
// never materialized is skipped. The first page that needs a new page-sized
// buffer takes one array for the run's frames left, as a multi-block WriteAt
// does, so a dense run written back to fresh blocks is one allocation. The
// reservation ends before each crash hook can fire.
func (s *Store) WriteFrames(off uint64, frames []*mem.Frame) {
	for i, fr := range frames {
		if !fr.HasData() {
			continue
		}
		s.bufs.ReserveRun(len(frames) - i)
		s.stagePage(off+uint64(i)*BlockSize, fr.Held())
		s.bufs.ReserveRun(0)
		s.wrote()
	}
}

// stagePage stages a page write-back of held at off and counts it.
func (s *Store) stagePage(off uint64, held []byte) {
	s.checkAligned(off)
	s.checkRange(off, BlockSize)
	s.stats.Writes++
	s.stats.BytesWritten += BlockSize
	s.stage(off/BlockSize, 0, held, BlockSize)
}

// wrote fires the armed crash hook once the write it waits for is staged.
func (s *Store) wrote() {
	if s.crashHook != nil && s.stats.Writes >= s.crashAtOp {
		h := s.crashHook
		s.crashHook = nil
		h() // panics with the engine's crash sentinel
	}
}

// Discard drops content blocks fully inside [off, off+length) (TRIM), from
// both tiers.
func (s *Store) Discard(off, length uint64) {
	first := (off + BlockSize - 1) / BlockSize
	last := (off + length) / BlockSize
	for _, e := range s.entries(first, last) {
		s.bufs.Release(e.media)
		e.media = nil
		if e.versions != nil {
			for _, v := range e.versions {
				s.bufs.Release(v.data)
			}
			s.keep(e, len(e.versions))
		}
	}
	s.staged = slices.DeleteFunc(s.staged, func(blk uint64) bool { return s.entry(blk).versions == nil })
}

// ResidentBlocks returns how many content blocks are materialized across
// both tiers.
func (s *Store) ResidentBlocks() int {
	n := 0
	for _, e := range s.entries(0, ^uint64(0)) {
		if e.media != nil || e.versions != nil {
			n++
		}
	}
	return n
}

// checkRange refuses an access that does not lie inside the device, however
// large off and n are.
func (s *Store) checkRange(off uint64, n int) {
	if off > s.capacity || uint64(n) > s.capacity-off {
		s.rangePanic(off, n)
	}
}

func (s *Store) checkAligned(off uint64) {
	if off%BlockSize != 0 {
		panic(fmt.Sprintf("device: page access at unaligned offset %d", off))
	}
}

func (s *Store) rangePanic(off uint64, n int) {
	panic(fmt.Sprintf("device: access [%d, %d) beyond capacity %d",
		off, off+uint64(n), s.capacity))
}

// Timing is the queueing model interface: Submit reserves device service for
// an operation issued at simulated time `now` and returns its completion time.
type Timing interface {
	Submit(now uint64, bytes int, write bool) (completion uint64)
}
