package core

import (
	"fmt"

	"aquila/internal/host"
	"aquila/internal/sim/cpu"
	"aquila/internal/sim/device"
	"aquila/internal/sim/engine"
	"aquila/internal/sim/mem"
	"aquila/internal/spdk"
)

// IOEngine is Aquila's pluggable device-access layer (§3.3): applications
// choose how cache misses and write-backs reach storage. The four engines of
// Figure 8(c) are provided; custom engines implement this interface.
//
// Every data-path method returns an error when the device's fault plan fails
// the operation. On failure the engine still charges the full timing of the
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
	// Open resolves an existing name.
	Open(p *engine.Proc, name string) (any, uint64)
	// Delete removes the backing object.
	Delete(p *engine.Proc, name string)
	// ReadRun fills frames with the content of pages [pageIdx,
	// pageIdx+len(frames)) of f, charging the engine's full access cost.
	ReadRun(p *engine.Proc, f *fileState, pageIdx uint64, frames []*mem.Frame) error
	// WriteRun persists frames to pages starting at pageIdx.
	WriteRun(p *engine.Proc, f *fileState, pageIdx uint64, frames []*mem.Frame) error
	// DirectRead and DirectWrite bypass the cache entirely (explicit file
	// I/O under Aquila, used e.g. by LSM compactions).
	DirectRead(p *engine.Proc, f *fileState, off uint64, buf []byte) error
	DirectWrite(p *engine.Proc, f *fileState, off uint64, buf []byte) error
}

// AsyncWriter is the optional overlapped-writeback extension used by the
// background evictor: SubmitWriteRun persists the frames like WriteRun but
// does not wait for the device — it returns the completion cycle, so the
// caller can queue many runs back to back and drain once. A submission error
// reports the run failed without queueing anything (completion 0). Engines
// that cannot overlap (e.g. HOST-*, where each I/O is a blocking syscall)
// simply don't implement it and the evictor falls back to WriteRun.
type AsyncWriter interface {
	SubmitWriteRun(p *engine.Proc, f *fileState, pageIdx uint64, frames []*mem.Frame) (uint64, error)
}

// readFrames / writeFrames helpers: move content between device store and
// frames with the zero-page fast path: a hole leaves an unmaterialized frame
// alone and zeroes a materialized one (it may be recycled), with one probe of
// the store either way; only a materialized frame is written back. Both sides
// hold a page up to its last nonzero line, and that is all that moves.
func fillFrame(st *device.Store, off uint64, fr *mem.Frame) {
	if !st.ReadPage(off, fr.Load) {
		fr.Reset()
	}
}

func flushFrame(st *device.Store, off uint64, fr *mem.Frame) {
	if fr.HasData() {
		st.WritePage(off, fr.Held())
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

func (h hostFiles) Open(p *engine.Proc, name string) (any, uint64) {
	h.OS.HV.VMCall(p, 0)
	f := h.OS.FS.Open(p, name)
	return f, f.Size()
}

func (h hostFiles) Delete(p *engine.Proc, name string) {
	h.OS.HV.VMCall(p, 0)
	h.OS.FS.Delete(p, name)
}

func (hostFiles) file(f *fileState) *host.FSFile { return f.backing.(*host.FSFile) }

// DAXEngine is direct access to byte-addressable NVM (§3.3): the device is
// DAX-mapped in non-root ring 0 and I/O is the AVX2-streaming memcpy with a
// single FPU state save/restore per fault.
type DAXEngine struct {
	hostFiles
	costs cpu.Costs
}

// NewDAXEngine builds the DAX-pmem engine over a host whose disk is pmem.
func NewDAXEngine(os *host.OS) *DAXEngine {
	if !os.Disk().PMem {
		panic("core: DAX engine requires a pmem host disk")
	}
	return &DAXEngine{hostFiles: hostFiles{os}, costs: cpu.Default()}
}

// Name implements IOEngine.
func (e *DAXEngine) Name() string { return "DAX-pmem" }

// ReadRun implements IOEngine: one optimized memcpy per run. Host files are
// single contiguous extents, so the whole run is one device range and the
// fault plan is consulted once per run.
func (e *DAXEngine) ReadRun(p *engine.Proc, f *fileState, pageIdx uint64, frames []*mem.Frame) error {
	hf := e.file(f)
	st := e.OS.Disk().Content
	bytes := len(frames) * pageSize
	delay, ferr := st.CheckRead(p.Now(), hf.DevOffset(pageIdx*pageSize), bytes)
	if ferr == nil {
		for i, fr := range frames {
			fillFrame(st, hf.DevOffset((pageIdx+uint64(i))*pageSize), fr)
		}
	}
	p.AdvanceSystem(e.costs.MemcpyAVX2(bytes))
	done := e.OS.Disk().Timing.Submit(p.Now(), bytes, false)
	p.WaitUntil(done+delay, engine.KindIOWait)
	return ferr
}

// WriteRun implements IOEngine.
func (e *DAXEngine) WriteRun(p *engine.Proc, f *fileState, pageIdx uint64, frames []*mem.Frame) error {
	hf := e.file(f)
	st := e.OS.Disk().Content
	bytes := len(frames) * pageSize
	delay, ferr := st.CheckWrite(p.Now(), hf.DevOffset(pageIdx*pageSize), bytes)
	if ferr == nil {
		for i, fr := range frames {
			flushFrame(st, hf.DevOffset((pageIdx+uint64(i))*pageSize), fr)
		}
	}
	p.AdvanceSystem(e.costs.MemcpyAVX2(bytes))
	done := e.OS.Disk().Timing.Submit(p.Now(), bytes, true)
	if ferr == nil {
		// Durability point: the persistence-domain drain completes at done
		// (+ any injected delay), not when the streaming stores were issued.
		st.Persist(hf.DevOffset(pageIdx*pageSize), bytes, done+delay)
	}
	p.WaitUntil(done+delay, engine.KindIOWait)
	return ferr
}

// SubmitWriteRun implements AsyncWriter: the streaming memcpy is still paid
// by the caller, but the persistence-domain drain (Timing.Submit models the
// ADR flush latency) is left queued for a later single wait, so consecutive
// runs overlap their drains.
func (e *DAXEngine) SubmitWriteRun(p *engine.Proc, f *fileState, pageIdx uint64, frames []*mem.Frame) (uint64, error) {
	hf := e.file(f)
	st := e.OS.Disk().Content
	bytes := len(frames) * pageSize
	delay, ferr := st.CheckWrite(p.Now(), hf.DevOffset(pageIdx*pageSize), bytes)
	if ferr != nil {
		// The streaming stores machine-check immediately; nothing queued.
		p.AdvanceSystem(e.costs.MemcpyAVX2(bytes))
		return 0, ferr
	}
	for i, fr := range frames {
		flushFrame(st, hf.DevOffset((pageIdx+uint64(i))*pageSize), fr)
	}
	p.AdvanceSystem(e.costs.MemcpyAVX2(bytes))
	done := e.OS.Disk().Timing.Submit(p.Now(), bytes, true) + delay
	st.Persist(hf.DevOffset(pageIdx*pageSize), bytes, done)
	return done, nil
}

// DirectRead implements IOEngine: load/memcpy straight from the DAX mapping.
func (e *DAXEngine) DirectRead(p *engine.Proc, f *fileState, off uint64, buf []byte) error {
	st := e.OS.Disk().Content
	devOff := e.file(f).DevOffset(off)
	delay, ferr := st.CheckRead(p.Now(), devOff, len(buf))
	if ferr == nil {
		st.ReadAt(devOff, buf)
	}
	p.AdvanceSystem(e.costs.MemcpyAVX2(len(buf)))
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
	p.AdvanceSystem(e.costs.MemcpyAVX2(len(buf)))
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

// Open implements IOEngine.
func (e *SPDKEngine) Open(p *engine.Proc, name string) (any, uint64) {
	b := e.FM.Open(p, name)
	return b, b.Size()
}

// Delete implements IOEngine.
func (e *SPDKEngine) Delete(p *engine.Proc, name string) { e.FM.Delete(p, name) }

func (e *SPDKEngine) blob(f *fileState) *spdk.Blob { return f.backing.(*spdk.Blob) }

// clusterRun clamps a run of want pages starting at file offset off to the
// 1 MB blob cluster holding off: pages within one cluster are
// device-contiguous, across clusters they need not be.
func clusterRun(off uint64, want int) int {
	return min(want, int((spdk.ClusterSize-off%spdk.ClusterSize)/pageSize))
}

// ReadRun implements IOEngine: one polled NVMe I/O per device-contiguous
// extent (blob clusters are 1 MB, so page runs rarely split). Each extent is
// one NVMe command, so the fault plan is consulted per extent; the first
// failed extent aborts the run (the runtime re-issues per page to isolate).
func (e *SPDKEngine) ReadRun(p *engine.Proc, f *fileState, pageIdx uint64, frames []*mem.Frame) error {
	b := e.blob(f)
	bs := e.FM.Blobstore()
	drv := bs.Drv()
	st := drv.Device().Store
	for i := 0; i < len(frames); {
		off := (pageIdx + uint64(i)) * pageSize
		n := clusterRun(off, len(frames)-i)
		delay, ferr := st.CheckRead(p.Now(), bs.DevOff(b, off), n*pageSize)
		if delay > 0 {
			p.WaitUntil(p.Now()+delay, engine.KindIOWait)
		}
		if ferr != nil {
			drv.ReadTimed(p, n*pageSize)
			return ferr
		}
		for j := 0; j < n; j++ {
			fillFrame(st, bs.DevOff(b, off+uint64(j)*pageSize), frames[i+j])
		}
		drv.ReadTimed(p, n*pageSize)
		i += n
	}
	return nil
}

// WriteRun implements IOEngine.
func (e *SPDKEngine) WriteRun(p *engine.Proc, f *fileState, pageIdx uint64, frames []*mem.Frame) error {
	b := e.blob(f)
	bs := e.FM.Blobstore()
	drv := bs.Drv()
	st := drv.Device().Store
	for i := 0; i < len(frames); {
		off := (pageIdx + uint64(i)) * pageSize
		n := clusterRun(off, len(frames)-i)
		delay, ferr := st.CheckWrite(p.Now(), bs.DevOff(b, off), n*pageSize)
		if delay > 0 {
			p.WaitUntil(p.Now()+delay, engine.KindIOWait)
		}
		if ferr != nil {
			drv.WriteTimed(p, n*pageSize)
			return ferr
		}
		for j := 0; j < n; j++ {
			flushFrame(st, bs.DevOff(b, off+uint64(j)*pageSize), frames[i+j])
		}
		done := drv.WriteTimed(p, n*pageSize)
		// Durability point: this extent's polled completion. A later extent
		// failing the run does not take it back.
		st.Persist(bs.DevOff(b, off), n*pageSize, done)
		i += n
	}
	return nil
}

// SubmitWriteRun implements AsyncWriter: per-cluster extents enter the NVMe
// submission queue without busy-polling each completion; the returned cycle
// is the last extent's completion.
func (e *SPDKEngine) SubmitWriteRun(p *engine.Proc, f *fileState, pageIdx uint64, frames []*mem.Frame) (uint64, error) {
	b := e.blob(f)
	bs := e.FM.Blobstore()
	drv := bs.Drv()
	st := drv.Device().Store
	var done uint64
	for i := 0; i < len(frames); {
		off := (pageIdx + uint64(i)) * pageSize
		n := clusterRun(off, len(frames)-i)
		delay, ferr := st.CheckWrite(p.Now(), bs.DevOff(b, off), n*pageSize)
		if ferr != nil {
			// Submission-time rejection: the caller re-issues the whole run
			// synchronously. Extents of it already queued above are simply
			// written twice.
			return 0, ferr
		}
		for j := 0; j < n; j++ {
			flushFrame(st, bs.DevOff(b, off+uint64(j)*pageSize), frames[i+j])
		}
		d := drv.WriteAsync(p, n*pageSize) + delay
		// Durability point: each extent's own completion (plus any injected
		// delay), not the run's last.
		st.Persist(bs.DevOff(b, off), n*pageSize, d)
		if d > done {
			done = d
		}
		i += n
	}
	return done, nil
}

// DirectRead implements IOEngine. The fault check covers the first
// device-contiguous chunk (blob clusters may scatter a long read).
func (e *SPDKEngine) DirectRead(p *engine.Proc, f *fileState, off uint64, buf []byte) error {
	b := e.blob(f)
	bs := e.FM.Blobstore()
	st := bs.Drv().Device().Store
	n := min(len(buf), int(spdk.ClusterSize-off%spdk.ClusterSize))
	delay, ferr := st.CheckRead(p.Now(), bs.DevOff(b, off), n)
	if delay > 0 {
		p.WaitUntil(p.Now()+delay, engine.KindIOWait)
	}
	if ferr != nil {
		bs.Drv().ReadTimed(p, len(buf))
		return ferr
	}
	bs.ReadBlob(p, b, off, buf)
	return nil
}

// DirectWrite implements IOEngine.
func (e *SPDKEngine) DirectWrite(p *engine.Proc, f *fileState, off uint64, buf []byte) error {
	b := e.blob(f)
	bs := e.FM.Blobstore()
	st := bs.Drv().Device().Store
	n := min(len(buf), int(spdk.ClusterSize-off%spdk.ClusterSize))
	delay, ferr := st.CheckWrite(p.Now(), bs.DevOff(b, off), n)
	if delay > 0 {
		p.WaitUntil(p.Now()+delay, engine.KindIOWait)
	}
	if ferr != nil {
		bs.Drv().WriteTimed(p, len(buf))
		return ferr
	}
	bs.WriteBlob(p, b, off, buf)
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

// ReadRun implements IOEngine.
func (e *HostEngine) ReadRun(p *engine.Proc, f *fileState, pageIdx uint64, frames []*mem.Frame) error {
	hf := e.file(f)
	st := e.OS.Disk().Content
	bytes := len(frames) * pageSize
	delay, ferr := st.CheckRead(p.Now(), hf.DevOffset(pageIdx*pageSize), bytes)
	if ferr == nil {
		for i, fr := range frames {
			fillFrame(st, hf.DevOffset((pageIdx+uint64(i))*pageSize), fr)
		}
	}
	e.OS.DirectIOTimed(p, bytes, false)
	if delay > 0 {
		p.WaitUntil(p.Now()+delay, engine.KindIOWait)
	}
	return ferr
}

// WriteRun implements IOEngine.
func (e *HostEngine) WriteRun(p *engine.Proc, f *fileState, pageIdx uint64, frames []*mem.Frame) error {
	hf := e.file(f)
	st := e.OS.Disk().Content
	bytes := len(frames) * pageSize
	delay, ferr := st.CheckWrite(p.Now(), hf.DevOffset(pageIdx*pageSize), bytes)
	if ferr == nil {
		for i, fr := range frames {
			flushFrame(st, hf.DevOffset((pageIdx+uint64(i))*pageSize), fr)
		}
	}
	done := e.OS.DirectIOTimed(p, bytes, true)
	if ferr == nil {
		st.Persist(hf.DevOffset(pageIdx*pageSize), bytes, done)
	}
	if delay > 0 {
		p.WaitUntil(p.Now()+delay, engine.KindIOWait)
	}
	return ferr
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

// backingSize returns the size recorded by the engine backing.
func backingSize(b any) uint64 {
	switch x := b.(type) {
	case *host.FSFile:
		return x.Size()
	case *spdk.Blob:
		return x.Size()
	}
	panic(fmt.Sprintf("core: unknown backing %T", b))
}
