package core

import (
	"aquila/internal/host"
	"aquila/internal/sim/cpu"
	"aquila/internal/sim/device"
	"aquila/internal/sim/engine"
	"aquila/internal/sim/mem"
	"aquila/internal/spdk"
)

// IOEngine is Aquila's device-access layer (§3.3): how cache misses and
// write-backs reach storage, one of the four engines of Figure 8(c). For page
// runs an engine only describes where a file's pages live (extent) and what a
// command over them costs (transfer); Runtime.ioRun moves the content. The
// unexported methods keep the set of engines inside core.
//
// Every data-path operation returns an error when the device's fault plan
// fails it. On failure the engine still charges the full timing of the
// attempt (submission, device service, completion — failure is detected at
// completion, as on real hardware) but moves no content: a failed read
// leaves the frames untouched, a failed write persists nothing. Injected
// latency spikes delay the operation without failing it. Worlds without a
// fault plan never see an error and pay no extra cost.
type IOEngine interface {
	// Name identifies the engine ("DAX-pmem", "SPDK-NVMe", ...).
	Name() string
	// Create makes the backing object for a new file of the given size.
	Create(p *engine.Proc, name string, size uint64) any
	// Delete removes the backing object.
	Delete(p *engine.Proc, name string)
	// DirectRead and DirectWrite bypass the cache entirely (explicit file
	// I/O under Aquila, used e.g. by LSM compactions).
	DirectRead(p *engine.Proc, f *fileState, off uint64, buf []byte) error
	DirectWrite(p *engine.Proc, f *fileState, off uint64, buf []byte) error

	// size is the size f's backing object records.
	size(f *fileState) uint64
	// extent is the first device command's worth of pages [idx, idx+n) of
	// f: the longest device-contiguous prefix of them.
	extent(f *fileState, idx uint64, n int) extent
	// transfer charges one command over x once ioRun has probed it (ok: it
	// passed and the content moved), delay being a spike not yet waited out.
	// It returns the completion, a write's durability point; only a
	// submission leaves the wait to its caller, and a rejected one returns 0.
	transfer(p *engine.Proc, op ioOp, x extent, ok bool, delay uint64) uint64
	// overlaps reports whether the engine takes ioSubmit: writes queued
	// back to back and waited on once.
	overlaps() bool
}

// ioOp is what ioRun does with a run of frames.
type ioOp uint8

const (
	ioRead   ioOp = iota // fill the frames, wait for the completion
	ioWrite              // stage the frames, wait for the durability point
	ioSubmit             // stage the frames, return the durability point unwaited
)

// extent is a device-contiguous stretch of a file's pages, as one command
// covers it: pages [idx, idx+pages) of f at device offset off of st. A host
// file is one extent; a blob is one per 1 MB cluster.
type extent struct {
	f     *fileState
	idx   uint64
	pages int
	st    *device.Store
	off   uint64
	// stallFirst: a polled command (SPDK) waits out a latency spike before
	// the content moves; submitted, it carries the spike in its completion.
	stallFirst bool
}

// ioRun moves frames to or from pages [idx, idx+len(frames)) of f, one extent
// at a time, and is the cache's only fault-plan probe. Per extent: probe; a
// stallFirst command waits out a spike; the content moves unless the probe
// failed; the engine's transfer charges the command. The first failed extent
// ends the run with its error (extents before it stay moved and persisted);
// otherwise the result is the deepest completion.
func (rt *Runtime) ioRun(p *engine.Proc, op ioOp, f *fileState, idx uint64, frames []*mem.Frame) (uint64, error) {
	var done uint64
	for i := 0; i < len(frames); {
		x := rt.Engine.extent(f, idx+uint64(i), len(frames)-i)
		delay, err := x.st.Check(p.Now(), x.off, x.pages*pageSize, op != ioRead)
		if delay > 0 && x.stallFirst && op != ioSubmit {
			p.WaitUntil(p.Now()+delay, engine.KindIOWait)
			delay = 0
		}
		if err == nil && op == ioRead {
			for j, fr := range frames[i : i+x.pages] {
				fillFrame(x.st, x.off+uint64(j)*pageSize, fr)
			}
		} else if err == nil {
			x.st.WriteFrames(x.off, frames[i:i+x.pages])
		}
		d := rt.Engine.transfer(p, op, x, err == nil, delay)
		if err != nil {
			return 0, err
		}
		done = max(done, d)
		i += x.pages
	}
	return done, nil
}

// fillFrame moves a block's content into a frame with the zero-page fast
// path: a hole leaves an unmaterialized frame alone and zeroes a materialized
// one (it may be recycled), with one probe of the store either way. Both sides
// hold a page up to its last nonzero line, and that is all that moves. The
// write-back direction is the store's WriteFrames: only a materialized frame
// is written, and a run's fresh pages take one array.
func fillFrame(st *device.Store, off uint64, fr *mem.Frame) {
	if !st.ReadPage(off, fr.Load) {
		fr.Reset()
	}
}

// hostFiles is the file half of the engines whose files live in the host
// filesystem (DAX-pmem, HOST-*): the backing object is a host file, and every
// metadata operation is forwarded to the host OS with a vmcall.
type hostFiles struct{ OS *host.OS }

func (h hostFiles) Create(p *engine.Proc, name string, size uint64) any {
	h.OS.HV.VMCall(p, 0)
	return h.OS.FS.Create(p, name, size)
}

func (h hostFiles) Delete(p *engine.Proc, name string) {
	h.OS.HV.VMCall(p, 0)
	h.OS.FS.Delete(p, name)
}

func (hostFiles) file(f *fileState) *host.FSFile { return f.backing.(*host.FSFile) }

func (h hostFiles) size(f *fileState) uint64 { return h.file(f).Size() }

// extent: a host file is one contiguous device range, a run one command.
func (h hostFiles) extent(f *fileState, idx uint64, n int) extent {
	return extent{f: f, idx: idx, pages: n, st: h.OS.Disk().Content, off: h.file(f).DevOffset(idx * pageSize)}
}

// DAXEngine is direct access to byte-addressable NVM (§3.3): the device is
// DAX-mapped in non-root ring 0 and I/O is the AVX2-streaming memcpy with a
// single FPU state save/restore per fault.
type DAXEngine struct {
	hostFiles
}

// NewDAXEngine builds the DAX-pmem engine over a host whose disk is pmem.
func NewDAXEngine(os *host.OS) *DAXEngine {
	if !os.Disk().PMem {
		panic("core: DAX engine requires a pmem host disk")
	}
	return &DAXEngine{hostFiles: hostFiles{os}}
}

// Name implements IOEngine.
func (e *DAXEngine) Name() string { return "DAX-pmem" }

// overlaps: the caller pays the memcpy, the ADR drain can be left queued.
func (e *DAXEngine) overlaps() bool { return true }

// transfer is one optimized memcpy, then the drain. A submission the
// streaming stores machine-check has queued nothing.
func (e *DAXEngine) transfer(p *engine.Proc, op ioOp, x extent, ok bool, delay uint64) uint64 {
	bytes := x.pages * pageSize
	p.AdvanceSystem(cpu.MemcpyAVX2(bytes))
	if op == ioSubmit && !ok {
		return 0
	}
	done := e.OS.Disk().Timing.Submit(p.Now(), bytes, op != ioRead) + delay
	if ok && op != ioRead {
		// Durability point: the persistence-domain drain completes at done,
		// not when the streaming stores were issued.
		x.st.Persist(x.off, bytes, done)
	}
	if op != ioSubmit {
		p.WaitUntil(done, engine.KindIOWait)
	}
	return done
}

// DirectRead implements IOEngine: load/memcpy straight from the DAX mapping.
func (e *DAXEngine) DirectRead(p *engine.Proc, f *fileState, off uint64, buf []byte) error {
	st := e.OS.Disk().Content
	devOff := e.file(f).DevOffset(off)
	delay, ferr := st.CheckRead(p.Now(), devOff, len(buf))
	if ferr == nil {
		st.ReadAt(devOff, buf)
	}
	p.AdvanceSystem(cpu.MemcpyAVX2(len(buf)))
	if delay > 0 {
		p.WaitUntil(p.Now()+delay, engine.KindIOWait)
	}
	return ferr
}

// DirectWrite implements IOEngine.
func (e *DAXEngine) DirectWrite(p *engine.Proc, f *fileState, off uint64, buf []byte) error {
	hf := e.file(f)
	st := e.OS.Disk().Content
	devOff := hf.DevOffset(off)
	delay, ferr := st.CheckWrite(p.Now(), devOff, len(buf))
	if ferr == nil {
		st.WriteAt(devOff, buf)
		if off+uint64(len(buf)) > hf.Size() {
			hf.SetSize(off + uint64(len(buf)))
		}
	}
	p.AdvanceSystem(cpu.MemcpyAVX2(len(buf)))
	if ferr == nil {
		// The non-temporal stores have drained once the memcpy completes.
		st.Persist(devOff, len(buf), p.Now())
	}
	if delay > 0 {
		p.WaitUntil(p.Now()+delay, engine.KindIOWait)
	}
	return ferr
}

// SPDKEngine accesses a dedicated NVMe device from non-root ring 0 through
// the user-space SPDK driver and the Blobstore file abstraction (§3.3): no
// syscalls, no vmcalls, polled completions.
type SPDKEngine struct {
	FM *spdk.FileMap
}

// NewSPDKEngine builds the SPDK-NVMe engine over a blobstore file map.
func NewSPDKEngine(fm *spdk.FileMap) *SPDKEngine { return &SPDKEngine{FM: fm} }

// Name implements IOEngine.
func (e *SPDKEngine) Name() string { return "SPDK-NVMe" }

// Create implements IOEngine: files are blobs, created at runtime.
func (e *SPDKEngine) Create(p *engine.Proc, name string, size uint64) any {
	return e.FM.Create(p, name, size)
}

// Delete implements IOEngine.
func (e *SPDKEngine) Delete(p *engine.Proc, name string) { e.FM.Delete(p, name) }

func (e *SPDKEngine) blob(f *fileState) *spdk.Blob { return f.backing.(*spdk.Blob) }

func (e *SPDKEngine) size(f *fileState) uint64 { return e.blob(f).Size() }

// clusterRun clamps want bytes starting at file offset off to the 1 MB blob
// cluster holding off: bytes within one cluster are device-contiguous,
// across clusters they need not be.
func clusterRun(off uint64, want int) int {
	return min(want, int(spdk.ClusterSize-off%spdk.ClusterSize))
}

// extent: one polled NVMe command per blob cluster (clusters are 1 MB, so
// page runs rarely split).
func (e *SPDKEngine) extent(f *fileState, idx uint64, n int) extent {
	bs := e.FM.Blobstore()
	off := idx * pageSize
	return extent{f: f, idx: idx, pages: clusterRun(off, n*pageSize) / pageSize,
		st: bs.Drv().Device().Store, off: bs.DevOff(e.blob(f), off), stallFirst: true}
}

// overlaps: submitted commands are not busy-polled.
func (e *SPDKEngine) overlaps() bool { return true }

// transfer is one NVMe command, polled unless submitted. A submission the
// device rejects was never issued and costs nothing.
func (e *SPDKEngine) transfer(p *engine.Proc, op ioOp, x extent, ok bool, delay uint64) uint64 {
	drv := e.FM.Blobstore().Drv()
	bytes := x.pages * pageSize
	var done uint64
	switch {
	case op == ioRead:
		drv.ReadTimed(p, bytes)
		return p.Now()
	case op == ioWrite:
		done = drv.WriteTimed(p, bytes)
	case !ok:
		return 0
	default:
		done = drv.WriteAsync(p, bytes) + delay
	}
	if ok {
		// Durability point: this extent's own completion. A later extent
		// failing the run does not take it back.
		x.st.Persist(x.off, bytes, done)
	}
	return done
}

// DirectRead implements IOEngine: one polled command per blob cluster the
// range touches, each checked against the fault plan before it is issued.
// The first failed chunk is charged as its own command and ends the call.
func (e *SPDKEngine) DirectRead(p *engine.Proc, f *fileState, off uint64, buf []byte) error {
	b := e.blob(f)
	bs := e.FM.Blobstore()
	st := bs.Drv().Device().Store
	for i := 0; i < len(buf); {
		at := off + uint64(i)
		n := clusterRun(at, len(buf)-i)
		delay, ferr := st.CheckRead(p.Now(), bs.DevOff(b, at), n)
		if delay > 0 {
			p.WaitUntil(p.Now()+delay, engine.KindIOWait)
		}
		if ferr != nil {
			bs.Drv().ReadTimed(p, n)
			return ferr
		}
		bs.ReadBlob(p, b, at, buf[i:i+n])
		i += n
	}
	return nil
}

// DirectWrite implements IOEngine, chunked and checked as DirectRead. The
// chunks written before a failed one stay written; the size grows only when
// the whole call succeeds.
func (e *SPDKEngine) DirectWrite(p *engine.Proc, f *fileState, off uint64, buf []byte) error {
	b := e.blob(f)
	bs := e.FM.Blobstore()
	st := bs.Drv().Device().Store
	for i := 0; i < len(buf); {
		at := off + uint64(i)
		n := clusterRun(at, len(buf)-i)
		delay, ferr := st.CheckWrite(p.Now(), bs.DevOff(b, at), n)
		if delay > 0 {
			p.WaitUntil(p.Now()+delay, engine.KindIOWait)
		}
		if ferr != nil {
			bs.Drv().WriteTimed(p, n)
			return ferr
		}
		bs.WriteBlob(p, b, at, buf[i:i+n])
		i += n
	}
	if off+uint64(len(buf)) > b.Size() {
		bs.SetSize(b, off+uint64(len(buf)))
	}
	return nil
}

// HostEngine issues Aquila's device I/O through the host kernel with direct
// I/O syscalls — the HOST-pmem / HOST-NVMe baselines of Fig 8(c), each I/O
// paying a vmcall on top of the syscall.
type HostEngine struct {
	hostFiles
}

// NewHostEngine builds the HOST-* engine for whatever disk the host has.
func NewHostEngine(os *host.OS) *HostEngine { return &HostEngine{hostFiles{os}} }

// Name implements IOEngine.
func (e *HostEngine) Name() string {
	if e.OS.Disk().PMem {
		return "HOST-pmem"
	}
	return "HOST-NVMe"
}

// overlaps: each I/O is a blocking syscall, so a submission is a write.
func (e *HostEngine) overlaps() bool { return false }

// transfer is one direct-I/O syscall; a latency spike is waited out after it.
func (e *HostEngine) transfer(p *engine.Proc, op ioOp, x extent, ok bool, delay uint64) uint64 {
	bytes := x.pages * pageSize
	done := e.OS.DirectIOTimed(p, bytes, op != ioRead)
	if ok && op != ioRead {
		x.st.Persist(x.off, bytes, done)
	}
	if delay > 0 {
		p.WaitUntil(p.Now()+delay, engine.KindIOWait)
	}
	return done
}

// DirectRead implements IOEngine.
func (e *HostEngine) DirectRead(p *engine.Proc, f *fileState, off uint64, buf []byte) error {
	hf := e.file(f)
	st := e.OS.Disk().Content
	delay, ferr := st.CheckRead(p.Now(), hf.DevOffset(off), len(buf))
	if ferr != nil {
		e.OS.DirectIOTimed(p, len(buf), false)
		if delay > 0 {
			p.WaitUntil(p.Now()+delay, engine.KindIOWait)
		}
		return ferr
	}
	e.OS.DirectReadHost(p, hf, off, buf)
	if delay > 0 {
		p.WaitUntil(p.Now()+delay, engine.KindIOWait)
	}
	return nil
}

// DirectWrite implements IOEngine.
func (e *HostEngine) DirectWrite(p *engine.Proc, f *fileState, off uint64, buf []byte) error {
	hf := e.file(f)
	st := e.OS.Disk().Content
	delay, ferr := st.CheckWrite(p.Now(), hf.DevOffset(off), len(buf))
	if ferr != nil {
		e.OS.DirectIOTimed(p, len(buf), true)
		if delay > 0 {
			p.WaitUntil(p.Now()+delay, engine.KindIOWait)
		}
		return ferr
	}
	e.OS.DirectWriteHost(p, hf, off, buf)
	if off+uint64(len(buf)) > hf.Size() {
		hf.SetSize(off + uint64(len(buf)))
	}
	if delay > 0 {
		p.WaitUntil(p.Now()+delay, engine.KindIOWait)
	}
	return nil
}
