// Package iface defines the storage interfaces shared by every application
// in this repository (key-value stores, graph processing, microbenchmarks)
// and implemented by both worlds under test: the simulated Linux host
// (internal/host) and the Aquila library OS (internal/core). Applications
// written against these interfaces run unmodified over either I/O path,
// mirroring the paper's "minimal application changes" property.
package iface

import "aquila/internal/sim/engine"

// File is explicit-I/O access to a named file (read/write syscalls on the
// host; blob access over SPDK under Aquila).
type File interface {
	// Name returns the file's name in its namespace.
	Name() string
	// Size returns the current file size in bytes.
	Size() uint64
	// Pread reads len(buf) bytes at offset off into buf, charging the
	// calling process the full software + device cost of the I/O path. It
	// returns the device error if the read failed (buf is then unspecified).
	Pread(p *engine.Proc, buf []byte, off uint64) error
	// Pwrite writes len(buf) bytes from buf at offset off; a non-nil error
	// means nothing was persisted.
	Pwrite(p *engine.Proc, buf []byte, off uint64) error
	// Fsync persists outstanding writes. It also reports, once per open
	// file, any writeback error recorded since the last check (Linux
	// errseq_t semantics).
	Fsync(p *engine.Proc) error
}

// Mapping is memory-mapped access to a file or device region. Loads and
// stores hit hardware address translation: cached pages cost nothing beyond
// the data movement itself; misses take the page-fault path of whichever
// world created the mapping.
type Mapping interface {
	// Size returns the length of the mapped region in bytes.
	Size() uint64
	// Load copies len(buf) bytes at mapping offset off into buf via
	// simulated load instructions.
	Load(p *engine.Proc, off uint64, buf []byte)
	// Store copies buf into the mapping at offset off via simulated store
	// instructions.
	Store(p *engine.Proc, off uint64, buf []byte)
	// Msync writes all dirty pages of the mapping back to the device. It
	// returns the first writeback error not yet reported to this mapping —
	// exactly once per caller, errseq-style; nil means every durable copy
	// this caller cares about is on the device.
	Msync(p *engine.Proc) error
	// MsyncRange writes back only the dirty pages overlapping
	// [off, off+length) — the ranged msync Kreon's custom path relies on.
	// Error semantics match Msync (the error check is per file, not per
	// range, as on Linux).
	MsyncRange(p *engine.Proc, off, length uint64) error
	// Munmap destroys the mapping, dropping clean pages and writing dirty
	// ones back.
	Munmap(p *engine.Proc)
	// Advise passes an access-pattern hint (madvise).
	Advise(p *engine.Proc, advice Advice)
}

// Advice is the madvise hint set used by the mmio paths.
type Advice uint8

// madvise hints.
const (
	AdviceNormal Advice = iota
	AdviceRandom
	AdviceSequential
	AdviceWillNeed
	AdviceDontNeed
	// AdviceHuge asks the mapping's world for 2 MB mappings (MADV_HUGEPAGE).
	// Under Aquila with huge pages enabled, extents of a hinted region are
	// promoted on first touch; the hint composes with (does not replace) the
	// access-pattern advice above. Worlds without huge-page support ignore it.
	AdviceHuge
)

// Namespace creates, deletes and maps files. Both worlds provide one.
type Namespace interface {
	// Create creates a file with the given maximum size (space is
	// preallocated; both worlds use extent-style allocation).
	Create(p *engine.Proc, name string, size uint64) File
	// Delete removes a file, releasing its storage. Mappings of the file
	// must be unmapped first.
	Delete(p *engine.Proc, name string)
	// Mmap maps the file's [0, size) shared into the caller's world.
	Mmap(p *engine.Proc, f File, size uint64) Mapping
}
