package host

import (
	"fmt"

	"aquila/internal/detutil"
	"aquila/internal/iface"
	"aquila/internal/sim/cpu"
	"aquila/internal/sim/engine"
)

// File is syscall-based access to a host file. Direct selects O_DIRECT
// (bypassing the page cache), the mode RocksDB's recommended configuration
// uses together with its user-space block cache.
type File struct {
	os     *OS
	f      *FSFile
	Direct bool
}

var _ iface.File = (*File)(nil)

// OpenFile wraps an FS file for syscall I/O.
func (os *OS) OpenFile(f *FSFile, direct bool) *File {
	return &File{os: os, f: f, Direct: direct}
}

// Name implements iface.File.
func (hf *File) Name() string { return hf.f.name }

// Size implements iface.File.
func (hf *File) Size() uint64 { return hf.f.size }

// Pread implements iface.File. The host path models fault injection only on
// the io_uring engine (see iouring.go); plain syscalls always succeed.
func (hf *File) Pread(p *engine.Proc, buf []byte, off uint64) error {
	hf.checkRange(off, len(buf))
	p.AdvanceSystem(cpu.Syscall + costSyscallKernelPath)
	if hf.Direct {
		p.AdvanceSystem(costDirectIOPath)
		hf.os.blockRead(p, hf.f.devOff(off), buf)
		return nil
	}
	hf.bufferedRead(p, buf, off)
	hf.f.lastRead = off + uint64(len(buf))
	return nil
}

// Pwrite implements iface.File.
func (hf *File) Pwrite(p *engine.Proc, buf []byte, off uint64) error {
	hf.checkRange(off, len(buf))
	p.AdvanceSystem(cpu.Syscall + costSyscallKernelPath)
	if off+uint64(len(buf)) > hf.f.size {
		hf.f.SetSize(off + uint64(len(buf)))
	}
	if hf.Direct {
		p.AdvanceSystem(costDirectIOPath)
		hf.os.blockWrite(p, hf.f.devOff(off), buf)
		return nil
	}
	hf.bufferedWrite(p, buf, off)
	return nil
}

// Fsync implements iface.File.
func (hf *File) Fsync(p *engine.Proc) error {
	p.BeginSpan("lx.fsync")
	defer p.EndSpan()
	p.AdvanceSystem(cpu.Syscall + costSyscallKernelPath)
	if !hf.Direct {
		hf.os.Cache.fsyncFileRange(p, hf.f, 0, hf.f.cap)
	}
	return nil
}

func (hf *File) checkRange(off uint64, n int) {
	if off+uint64(n) > hf.f.cap {
		panic(fmt.Sprintf("host: file %q access [%d,%d) beyond capacity %d",
			hf.f.name, off, off+uint64(n), hf.f.cap))
	}
}

// bufferedRead serves a read through the page cache: per-page lookup under
// tree_lock, copy_to_user on hits, device fill (with sequential readahead)
// on misses.
func (hf *File) bufferedRead(p *engine.Proc, buf []byte, off uint64) {
	os, f := hf.os, hf.f
	window := uint64(1)
	if off == f.lastRead {
		window = uint64(readAroundPages) // sequential
	}
	for n := 0; n < len(buf); {
		cur := off + uint64(n)
		idx := cur / PageSize
		po := int(cur % PageSize)
		chunk := min(PageSize-po, len(buf)-n)
		pg := hf.pageAt(p, idx, min(idx+window, (f.size+PageSize-1)/PageSize), nil)
		pg.pins++ // before touch yields: a reclaim must not take it meanwhile
		os.Cache.touch(p, pg)
		pg.frame.ReadAt(buf[n:n+chunk], po)
		p.AdvanceSystem(costCopyToUser * uint64(chunk) / PageSize)
		pg.pins--
		n += chunk
	}
}

// pageAt returns the settled cache page at idx for a buffered syscall: found,
// or filled from the device — [idx, hi), the caller's readahead window — or,
// when a write covers the whole page (whole is its data), published without
// a read (no read-modify-write needed). The frame takes whole before the page
// becomes visible: it is recycled as it was left, and every byte of it must be
// defined by then. A page met under I/O or reclaim is waited out and looked up
// again: it may be gone by wake-up.
func (hf *File) pageAt(p *engine.Proc, idx, hi uint64, whole []byte) *cachedPage {
	c, f := hf.os.Cache, hf.f
	for {
		pg := c.find(p, f, idx)
		switch {
		case pg != nil:
		case whole != nil:
			var owner bool
			if pg, owner = c.insertNew(p, f, idx); owner {
				pg.frame.SetPage(whole)
				c.move(pg, detutil.PgClean)
				pg.ev.Fire(p.Now())
			}
		default:
			pg = c.fillWindow(p, f, idx, hi, idx, false)
			c.waitPage(p, pg)
		}
		if !pg.busy() {
			return pg
		}
		c.waitPage(p, pg)
	}
}

// bufferedWrite copies user data into cache pages and marks them dirty.
func (hf *File) bufferedWrite(p *engine.Proc, buf []byte, off uint64) {
	os := hf.os
	for n := 0; n < len(buf); {
		cur := off + uint64(n)
		idx := cur / PageSize
		po := int(cur % PageSize)
		chunk := min(PageSize-po, len(buf)-n)
		var whole []byte
		if chunk == PageSize {
			whole = buf[n : n+chunk]
		}
		pg := hf.pageAt(p, idx, idx+1, whole)
		pg.pins++ // before touch yields: a reclaim must not take it meanwhile
		os.Cache.touch(p, pg)
		pg.frame.WriteAt(po, buf[n:n+chunk])
		p.AdvanceSystem(costCopyToUser * uint64(chunk) / PageSize)
		os.Cache.markDirty(p, pg)
		pg.pins--
		os.Cache.throttleDirty(p)
		n += chunk
	}
}

// Namespace adapts the host OS to iface.Namespace. Files are opened in the
// given I/O mode; mappings use the Linux mmio path.
type Namespace struct {
	OS     *OS
	Direct bool
}

var _ iface.Namespace = (*Namespace)(nil)

// Create implements iface.Namespace.
func (ns *Namespace) Create(p *engine.Proc, name string, size uint64) iface.File {
	return ns.OS.OpenFile(ns.OS.FS.Create(p, name, size), ns.Direct)
}

// Open opens an existing file. It is not part of iface.Namespace: the frozen
// bench/ harness calls it, to reopen a file for direct I/O.
func (ns *Namespace) Open(p *engine.Proc, name string) iface.File {
	return ns.OS.OpenFile(ns.OS.FS.Open(p, name), ns.Direct)
}

// Delete implements iface.Namespace.
func (ns *Namespace) Delete(p *engine.Proc, name string) { ns.OS.FS.Delete(p, name) }

// Mmap implements iface.Namespace.
func (ns *Namespace) Mmap(p *engine.Proc, f iface.File, size uint64) iface.Mapping {
	hf, ok := f.(*File)
	if !ok {
		panic("host: Mmap of non-host file")
	}
	return ns.OS.Mmap(p, hf.f, size)
}
