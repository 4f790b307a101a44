package engine

import "fmt"

// Proc is a simulated thread. Its methods must only be called from its own
// body function while the process is running; the engine guarantees that at
// most one process executes at a time, so simulated code may freely share Go
// data structures and model contention exclusively through simulated locks.
type Proc struct {
	e    *Engine
	id   int
	name string
	cpu  int
	now  uint64
	// skey is the schedule tie-break key among equal-cycle runnable procs:
	// the spawn id by default, a per-seed hash under Config.SchedPerturb
	// (see schedBefore in heap.go). Fixed at spawn time.
	skey uint64

	fn func(*Proc)
	// next and stop resume and cancel the coroutine the body runs on (set at
	// first dispatch, when started turns true); yield is the body's way back
	// to Engine.Run.
	next    func() (struct{}, bool)
	stop    func()
	yield   func(struct{}) bool
	started bool
	done    bool
	// daemon marks background service processes (SpawnDaemon): blocked
	// daemons neither hold Run open nor count as deadlocked.
	daemon bool

	// blockedOn and blockedPrim identify the primitive the process is
	// suspended on (onNothing and nil when runnable); on an Event, which holds
	// no name, eventOwner names the wait instead. Only the deadlock diagnostic
	// reads them, so the name is built there, not on every block. Waking
	// clears all three: a woken waiter keeps no owner reachable.
	blockedOn   primitive
	blockedPrim primitiveNamer
	eventOwner  EventNamer
	// waitNext links the process into the waitq of the primitive it is
	// blocked on.
	waitNext *Proc

	acct [numKinds]uint64

	// irqAbsorbed counts interrupt-handler cycles this process absorbed.
	irqAbsorbed uint64

	// spanStack holds the open BeginSpan frames (nil unless tracing or
	// profiling); track caches the profiler track id.
	spanStack []spanFrame
	track     string
}

// ID returns the process id (spawn order).
func (p *Proc) ID() int { return p.id }

// Name returns the process name given at spawn.
func (p *Proc) Name() string { return p.name }

// CPU returns the simulated CPU this process is pinned to.
func (p *Proc) CPU() int { return p.cpu }

// Node returns the NUMA node of the process's CPU.
func (p *Proc) Node() int { return p.e.NodeOf(p.cpu) }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.e }

// Daemon reports whether this is a background service process.
func (p *Proc) Daemon() bool { return p.daemon }

// Now returns the process's local simulated clock in cycles.
func (p *Proc) Now() uint64 { return p.now }

// Accounted returns cycles attributed to the given kind so far.
func (p *Proc) Accounted(k Kind) uint64 { return p.acct[k] }

// IRQAbsorbed returns interrupt-handler cycles absorbed by this process.
func (p *Proc) IRQAbsorbed() uint64 { return p.irqAbsorbed }

// primitive is the kind of wait a process can be suspended in.
type primitive uint8

const (
	onNothing primitive = iota
	onMutex
	onRWMutexRead
	onRWMutexWrite
	onWaitGroup
	onSignal
	onEvent
)

// primitiveNamer is a synchronization object a process can block on; it
// names itself for the deadlock diagnostic.
type primitiveNamer interface{ primitiveName() string }

// run is the coroutine body (an iter.Seq): the process body, then the
// bookkeeping of its last segment. It returns to Engine.Run through yield
// while the process lives and by returning when it is over.
func (p *Proc) run(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		cp, ok := r.(*crashPanic)
		if !ok {
			panic(r) // not a crash: surfaces on Run's caller (simulated bugs must stay loud)
		}
		// The machine died under this process, or the engine was closed: no
		// user-space cleanup runs. After a crash Run drains the others.
		p.done = true
		if cp != closeUnwind {
			p.e.noteCrash(p, cp)
		}
	}()
	p.fn(p)
	p.done = true
	p.e.traceSegment(p, batonDone)
}

// park gives the thread back to Engine.Run, which resumes the successor, and
// returns when Run resumes this process.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(closeUnwind)
	}
	p.checkCrash()
}

// advance moves the local clock forward by `cycles`, attributing them to
// kind k, absorbing any pending interrupt work queued on this CPU and
// serializing against other compute on the same CPU.
func (p *Proc) advance(k Kind, cycles uint64) {
	cpu := p.e.cpus[p.cpu]
	if cpu.busyUntil > p.now {
		// Another process occupied the CPU past our clock: we were
		// effectively descheduled.
		p.acct[KindLockWait] += cpu.busyUntil - p.now
		p.now = cpu.busyUntil
	}
	if cpu.pendingIRQ > 0 {
		// Interrupts preempt the segment; their cost lands on this
		// process as system time.
		irq := cpu.pendingIRQ
		cpu.pendingIRQ = 0
		p.acct[KindSystem] += irq
		p.irqAbsorbed += irq
		p.now += irq
	}
	p.acct[k] += cycles
	p.now += cycles
	cpu.busyUntil = p.now
	// Conservative causality: if advancing moved us past another runnable
	// process, let it run before we next observe shared state.
	p.Sync()
	p.checkCrash()
}

// AdvanceUser charges application-processing cycles.
func (p *Proc) AdvanceUser(cycles uint64) { p.advance(KindUser, cycles) }

// AdvanceSystem charges privileged/handler/kernel cycles.
func (p *Proc) AdvanceSystem(cycles uint64) { p.advance(KindSystem, cycles) }

// Yield lets any process with an earlier clock run first. It does not
// consume simulated time. When the caller itself is first in schedule order
// it simply keeps running (the scheduler segment still breaks here).
func (p *Proc) Yield() {
	e := p.e
	if head := e.runq.Peek(); head != nil && schedBefore(head, p) {
		p.yieldToHead()
		return
	}
	e.traceSegment(p, batonYield)
	e.segStart = p.now
	p.checkCrash()
}

// Sync yields only if some other runnable process is scheduled before this
// one (earlier clock, or an equal clock with a winning tie-break key).
// Simulated code calls this before touching shared structures that are not
// guarded by a simulated lock, to keep cross-process causality. The ordering
// must be exactly the run queue's (schedBefore), or a perturbed schedule
// would let a process observe state ahead of a proc the queue runs first.
func (p *Proc) Sync() {
	if head := p.e.runq.Peek(); head != nil && schedBefore(head, p) {
		p.yieldToHead()
	}
}

// yieldToHead hands the CPU to the head of the run queue, which the caller
// has checked is scheduled before p, and takes the head's place in the queue.
func (p *Proc) yieldToHead() {
	e := p.e
	e.traceSegment(p, batonYield)
	e.handoff = e.runq.ReplaceTop(p)
	p.park()
}

// WaitUntil blocks the process until the given absolute simulated time,
// attributing the gap to kind k. If t is in the past it is a no-op.
func (p *Proc) WaitUntil(t uint64, k Kind) {
	if t <= p.now {
		p.Sync()
		return
	}
	p.acct[k] += t - p.now
	p.now = t
	p.Yield()
}

// SleepIO blocks for `cycles`, attributing them to I/O wait.
func (p *Proc) SleepIO(cycles uint64) { p.WaitUntil(p.now+cycles, KindIOWait) }

// block suspends the process on a primitive until another process calls
// engine.unblock.
func (p *Proc) block(on primitive, prim primitiveNamer) {
	e := p.e
	p.blockedOn, p.blockedPrim = on, prim
	e.blocked++
	if p.daemon {
		e.blockedDaemons++
	}
	e.traceSegment(p, batonBlock)
	p.park()
}

// String implements fmt.Stringer for diagnostics.
func (p *Proc) String() string {
	return fmt.Sprintf("proc %d %q cpu=%d now=%d", p.id, p.name, p.cpu, p.now)
}
