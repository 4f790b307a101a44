// Package device models the two storage devices of the paper's testbed:
//
//   - an Intel Optane P4800X-class NVMe SSD on PCIe (block-addressable,
//     ~10 us access latency, >500 K random IOPS), and
//   - a pmem block device backed by DRAM, used by the paper to stress the
//     software path as devices get faster.
//
// Devices separate *content* (a sparse 4 KB-block store holding real bytes,
// so applications above read back what they wrote) from *timing* (queueing
// models that return completion times in simulated cycles). Software-path
// costs — syscalls, kernel block layer, SPDK submission, DAX memcpy — are
// charged by the I/O engines layered above, never here.
package device

import "fmt"

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
// media (blocks) and a volatile write-cache tier (volatile) — see crash.go.
// Blocks never written read back as zeros.
type Store struct {
	capacity uint64
	blocks   map[uint64][]byte
	// volatile holds staged writes that have not reached their durability
	// point; reads overlay it, Crash() discards it.
	volatile map[uint64][]volVersion
	// free holds blocks no tier references any more (a superseded media
	// block or staged version, a discarded block) for stage to reuse, and
	// spare the emptied per-block version lists: a rewrite-persist-settle
	// cycle then allocates nothing. Both are bounded by the peak number of
	// blocks that were live at once.
	free   [][]byte
	spare  [][]volVersion
	stats  Stats
	faults *faultState
	// crashAtOp/crashHook implement CrashPlan.AtDeviceOp (crash.go).
	crashAtOp uint64
	crashHook func()
	crashRes  *CrashResult
}

// NewStore creates a content store with the given capacity in bytes.
func NewStore(capacity uint64) *Store {
	return &Store{
		capacity: capacity,
		blocks:   make(map[uint64][]byte),
		volatile: make(map[uint64][]volVersion),
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
		if b := s.view(blk); b != nil {
			copy(buf[n:n+chunk], b[bo:bo+chunk])
		} else {
			for i := n; i < n+chunk; i++ {
				buf[i] = 0
			}
		}
		n += chunk
	}
}

// ReadPage is the page-fill read, at a block-aligned off. When the block is
// materialized it copies it into page() and counts one read, as ReadAt does.
// A hole is not a device read: ReadPage reports false, counts nothing and
// never calls page, so a caller whose frames materialize lazily keeps an
// all-zero page free. One probe of the store either way.
func (s *Store) ReadPage(off uint64, page func() []byte) bool {
	if off%BlockSize != 0 {
		panic(fmt.Sprintf("device: page read at unaligned offset %d", off))
	}
	b := s.view(off / BlockSize)
	if b == nil {
		return false
	}
	s.stats.Reads++
	s.stats.BytesRead += BlockSize
	copy(page(), b)
	return true
}

// WriteAt stages buf into the device's volatile write-cache tier at off. The
// bytes are immediately visible to reads but become durable only when a
// Persist-scheduled durability point is reached (crash.go).
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
		s.stage(blk, bo, buf[n:n+chunk])
		n += chunk
	}
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
	for b := first; b < last; b++ {
		if old, ok := s.blocks[b]; ok {
			s.free = append(s.free, old)
			delete(s.blocks, b)
		}
		if vs, ok := s.volatile[b]; ok {
			for _, v := range vs {
				s.free = append(s.free, v.data)
			}
			s.keep(b, vs, len(vs))
		}
	}
}

// ResidentBlocks returns how many content blocks are materialized across
// both tiers.
func (s *Store) ResidentBlocks() int {
	n := len(s.blocks)
	//aqlint:sorted -- order-independent count; no simulated state touched
	for blk := range s.volatile {
		if _, ok := s.blocks[blk]; !ok {
			n++
		}
	}
	return n
}

func (s *Store) checkRange(off uint64, n int) {
	if off+uint64(n) > s.capacity {
		panic(fmt.Sprintf("device: access [%d, %d) beyond capacity %d",
			off, off+uint64(n), s.capacity))
	}
}

// Timing is the queueing model interface: Submit reserves device service for
// an operation issued at simulated time `now` and returns its completion time.
type Timing interface {
	Submit(now uint64, bytes int, write bool) (completion uint64)
}
