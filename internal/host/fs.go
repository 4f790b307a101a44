package host

import (
	"fmt"
	"sort"

	"aquila/internal/detutil"
	"aquila/internal/sim/cpu"
	"aquila/internal/sim/engine"
)

// FS is a flat-namespace, extent-based filesystem over one block device:
// every file occupies a single contiguous extent sized at creation. This
// matches how the evaluated systems use storage (RocksDB's fixed-size SSTs,
// Kreon's single file, Ligra's one heap file) while keeping block mapping
// trivial, as SPDK's Blobstore does on the other world.
type FS struct {
	os    *OS
	disk  *Disk
	files map[string]*FSFile
	// free extents, sorted by offset, first-fit allocation.
	free []extent
	ids  uint64
	// leaves is where the emptied leaves of a file's page index wait for the
	// next file.
	leaves detutil.LeafPool[cachedPage]
}

type extent struct {
	off, len uint64
}

// FSFile is one file: a contiguous extent on the disk.
type FSFile struct {
	id   uint64
	name string
	base uint64 // device offset of the extent
	cap  uint64 // extent length
	size uint64 // current logical size

	// Page-cache state: the file's radix tree — on the host a two-level page
	// index, bounded by the extent — and its tree_lock. What a tree operation
	// costs in simulated cycles is charged where it is made (costRadixLookup,
	// costRadixInsert), under the lock.
	treeLock *engine.Mutex
	pages    detutil.PageIndex[cachedPage]
	nrDirty  int

	// readahead state (struct file_ra_state).
	mmapMiss int
	lastRead uint64 // sequentiality detector for buffered reads

	majorFaults uint64
}

// MajorFaults returns the number of major faults served for this file.
func (f *FSFile) MajorFaults() uint64 { return f.majorFaults }

func newFS(os *OS, disk *Disk) *FS {
	return &FS{
		os:    os,
		disk:  disk,
		files: make(map[string]*FSFile),
		free:  []extent{{0, disk.Content.Capacity()}},
	}
}

// Create allocates a file with a fixed-capacity extent. The logical size
// starts at `size` (pre-sized files, as all evaluated applications use).
func (fs *FS) Create(p *engine.Proc, name string, size uint64) *FSFile {
	if _, ok := fs.files[name]; ok {
		panic(fmt.Sprintf("host: create of existing file %q", name))
	}
	p.AdvanceSystem(cpu.Syscall + costSyscallKernelPath)
	capBytes := (size + PageSize - 1) / PageSize * PageSize
	if capBytes == 0 {
		capBytes = PageSize
	}
	base, ok := fs.allocExtent(capBytes)
	if !ok {
		panic(fmt.Sprintf("host: filesystem full creating %q (%d bytes)", name, capBytes))
	}
	fs.ids++
	f := &FSFile{
		id:       fs.ids,
		name:     name,
		base:     base,
		cap:      capBytes,
		size:     size,
		treeLock: engine.NewMutex(fs.os.E, "tree_lock:"+name),
		pages:    detutil.NewPageIndex(&fs.leaves, capBytes/PageSize),
	}
	fs.files[name] = f
	return f
}

// Open returns an existing file. Outside the tests only Namespace.Open, which
// the frozen bench/ harness calls, opens a file by name.
func (fs *FS) Open(p *engine.Proc, name string) *FSFile {
	p.AdvanceSystem(cpu.Syscall + costSyscallKernelPath)
	f, ok := fs.files[name]
	if !ok {
		panic(fmt.Sprintf("host: open of missing file %q", name))
	}
	return f
}

// Delete removes a file, dropping its cached pages and freeing its extent.
func (fs *FS) Delete(p *engine.Proc, name string) {
	f, ok := fs.files[name]
	if !ok {
		return
	}
	p.AdvanceSystem(cpu.Syscall + costSyscallKernelPath)
	fs.os.Cache.truncate(p, f)
	delete(fs.files, name)
	fs.disk.Content.Discard(f.base, f.cap)
	fs.freeExtent(extent{f.base, f.cap})
}

func (fs *FS) allocExtent(n uint64) (uint64, bool) {
	for i, e := range fs.free {
		if e.len >= n {
			fs.free[i] = extent{e.off + n, e.len - n}
			if fs.free[i].len == 0 {
				fs.free = append(fs.free[:i], fs.free[i+1:]...)
			}
			return e.off, true
		}
	}
	return 0, false
}

func (fs *FS) freeExtent(e extent) {
	fs.free = append(fs.free, e)
	sort.Slice(fs.free, func(i, j int) bool { return fs.free[i].off < fs.free[j].off })
	// Coalesce adjacent extents.
	out := fs.free[:0]
	for _, x := range fs.free {
		if n := len(out); n > 0 && out[n-1].off+out[n-1].len == x.off {
			out[n-1].len += x.len
		} else {
			out = append(out, x)
		}
	}
	fs.free = out
}

// Name returns the file name.
func (f *FSFile) Name() string { return f.name }

// Size returns the logical size.
func (f *FSFile) Size() uint64 { return f.size }

// SetSize grows the logical size up to the extent capacity (append).
func (f *FSFile) SetSize(n uint64) {
	if n > f.cap {
		panic(fmt.Sprintf("host: file %q size %d beyond capacity %d", f.name, n, f.cap))
	}
	f.size = n
}

// devOff maps a file offset to a device offset.
func (f *FSFile) devOff(off uint64) uint64 { return f.base + off }

// DevOffset maps a file offset to a device offset. Exposed for Aquila's I/O
// engines, which access files on the host filesystem directly (DAX) or via
// host direct I/O.
func (f *FSFile) DevOffset(off uint64) uint64 { return f.devOff(off) }
