package host

import (
	"fmt"
	"sort"

	"aquila/internal/sim/cpu"
	"aquila/internal/sim/engine"
)

// IOURing models io_uring (§7.1), the paper's point of comparison for
// asynchronous explicit I/O: submissions are batched behind a single syscall
// and completions are reaped from shared memory with no syscall at all.
// The paper's discussion — async I/O raises throughput via batching but
// inflates tail latency — falls out of the queueing model.
//
// Aquila's §3.3 leaves "libaio or io_uring" device access as future work;
// this implementation provides it on the host side and the harness's
// `iouring` experiment evaluates it against synchronous direct I/O.
type IOURing struct {
	os    *OS
	f     *FSFile
	depth int

	// sq is the submission queue (filled without syscalls).
	sq []Sqe
	// cq holds completions ordered by completion time.
	cq []Cqe
	// inflight counts submitted-but-unreaped operations.
	inflight int

	// Stats.
	Submitted  uint64
	SyscallOps uint64 // io_uring_enter calls
}

// Sqe is one submission-queue entry.
type Sqe struct {
	Write    bool
	Off      uint64 // file offset
	Buf      []byte
	UserData uint64
}

// Cqe is one completion-queue entry.
type Cqe struct {
	UserData uint64
	DoneAt   uint64 // simulated completion time
	// Err is the device error for this operation (io_uring reports errors as
	// a negative cqe->res; here it is the typed device error). The operation
	// still occupied the device — timing is charged — but moved no data.
	Err error
}

// NewIOURing sets up a ring of the given depth over one file.
func NewIOURing(os *OS, f *FSFile, depth int) *IOURing {
	if depth <= 0 {
		depth = 128
	}
	return &IOURing{os: os, f: f, depth: depth}
}

// Prep queues an operation into the submission ring (shared memory: free).
func (r *IOURing) Prep(e Sqe) {
	if len(r.sq)+r.inflight >= r.depth {
		panic(fmt.Sprintf("host: io_uring depth %d exceeded", r.depth))
	}
	r.sq = append(r.sq, e)
}

// Enter submits the whole batch with one syscall (io_uring_enter) and
// returns immediately; device service times are computed per entry through
// the same queueing model as synchronous I/O.
func (r *IOURing) Enter(p *engine.Proc) {
	if len(r.sq) == 0 {
		return
	}
	r.SyscallOps++
	p.AdvanceSystem(cpu.Syscall + costSyscallKernelPath)
	disk := r.os.FS.disk
	for _, e := range r.sq {
		// Per-entry kernel work: sqe fetch, validation, bio setup —
		// cheaper than a full syscall per op, which is the point.
		p.AdvanceSystem(costBlockLayerSubmit / 2)
		delay, ferr := disk.Content.Check(p.Now(), r.f.devOff(e.Off), len(e.Buf), e.Write)
		if e.Write && ferr == nil {
			disk.Content.WriteAt(r.f.devOff(e.Off), e.Buf)
		}
		done := disk.Timing.Submit(p.Now(), len(e.Buf), e.Write)
		if disk.PMem {
			// pmem "devices" still move bytes with CPU copies; async
			// submission defers the copy to the kernel worker, which
			// the timing model folds into the completion time.
			done += cpu.MemcpyNoSIMD(len(e.Buf))
		}
		// A latency spike pushes the completion out; a failed operation
		// still holds the device for its full service time.
		done += delay
		if e.Write && ferr == nil {
			// Each SQE becomes durable (whole) at its own completion: a
			// crash before then discards it from the volatile tier, never
			// half-applies it.
			disk.Content.Persist(r.f.devOff(e.Off), len(e.Buf), done)
		}
		r.cq = append(r.cq, Cqe{UserData: e.UserData, DoneAt: done, Err: ferr})
		if !e.Write && ferr == nil {
			// The read lands in the caller's buffer by completion
			// time; content is copied now (simulation-safe: the
			// caller must not touch Buf before reaping the cqe).
			disk.Content.ReadAt(r.f.devOff(e.Off), e.Buf)
		}
		r.Submitted++
	}
	r.inflight += len(r.sq)
	r.sq = r.sq[:0]
	sort.Slice(r.cq, func(i, j int) bool { return r.cq[i].DoneAt < r.cq[j].DoneAt })
}

// PeekCqes reaps completions that have already finished — pure shared-memory
// polling, no syscall (the completion-path property of io_uring).
func (r *IOURing) PeekCqes(p *engine.Proc) []Cqe {
	p.AdvanceSystem(cpu.AtomicOp) // head/tail load
	n := 0
	for n < len(r.cq) && r.cq[n].DoneAt <= p.Now() {
		n++
	}
	out := append([]Cqe(nil), r.cq[:n]...)
	r.cq = r.cq[n:]
	r.inflight -= n
	return out
}

// WaitCqes blocks until at least n completions are available, then reaps
// everything completed.
func (r *IOURing) WaitCqes(p *engine.Proc, n int) []Cqe {
	if n > r.inflight {
		n = r.inflight
	}
	if n > 0 && len(r.cq) >= n {
		target := r.cq[n-1].DoneAt
		p.WaitUntil(target, engine.KindIOWait)
	}
	return r.PeekCqes(p)
}

// Inflight returns the number of unreaped operations.
func (r *IOURing) Inflight() int { return r.inflight }
