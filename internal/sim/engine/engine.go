// Package engine implements the deterministic discrete-event simulation core
// that every other subsystem of this repository runs on.
//
// A simulation consists of processes (simulated threads) pinned to simulated
// CPUs. Exactly one process executes at any real instant, and a process that
// leaves the CPU always resumes the runnable process with the smallest local
// cycle clock, so causal order between processes interacting through
// simulated synchronization primitives is preserved and the whole run is
// deterministic for a given spawn order.
//
// Processes advance their clocks explicitly via Advance* calls, attributing
// cycles to an accounting kind (user, system, I/O-wait, lock-wait). Blocking
// operations (simulated mutexes, waiting on device completions) suspend the
// process and later resume it at the simulated time at which the awaited
// condition holds.
package engine

import (
	"fmt"
	"iter"

	"aquila/internal/obs"
)

// Kind attributes simulated cycles to an execution category. The categories
// feed the execution-time breakdowns of the paper's Figure 6(c).
type Kind uint8

const (
	// KindUser is application-level processing time.
	KindUser Kind = iota
	// KindSystem is time spent in fault handlers, kernel paths, cache
	// management and other privileged-domain work.
	KindSystem
	// KindIOWait is time spent blocked on device I/O completions.
	KindIOWait
	// KindLockWait is time spent queued on contended simulated locks.
	KindLockWait
	numKinds
)

// Config parameterizes a simulation engine.
type Config struct {
	// NumCPUs is the number of simulated CPUs (hyperthreads). The paper's
	// testbed has 32. Zero defaults to 32.
	NumCPUs int
	// Seed is read by nothing: the engine draws no random numbers (its one
	// source of variation is SchedPerturb) and simulated code makes its own
	// rand.New from the seed its owner was given. The field stays because the
	// frozen bench/ names it in its Config literals.
	Seed int64
	// Trace captures per-process execution segments for WriteChromeTrace.
	Trace bool
	// Spans, when non-nil, receives named cycle-attributed spans and
	// scheduler segments (see obs.go). Instrumentation is free when nil and
	// never alters simulated timing either way.
	Spans *obs.Tracer
	// Profile, when non-nil, receives every span closed via EndSpan with
	// its full open-span path — the lossless feed the hierarchical cycle
	// profiler aggregates (the tracer's rings drop oldest spans on long
	// runs; this hook never does). Independent of Spans: either, both, or
	// neither may be set; neither alters simulated timing.
	Profile obs.SpanSink
	// TraceLabel prefixes the engine's track-group names in a shared span
	// tracer (e.g. "aquila", "linux"). Empty defaults to "sim".
	TraceLabel string
	// SchedPerturb perturbs the scheduler's tie-breaking among processes
	// runnable at the same simulated cycle: each process gets a per-seed
	// hashed schedule key instead of its spawn id. Every value yields a
	// fully deterministic run; 0 (the default) is the canonical spawn-order
	// tie-break, bit-identical to the engine before this knob existed. The
	// torture harness sweeps this seed to explore interleavings.
	SchedPerturb uint64
}

// CPU is the per-CPU simulated state tracked by the engine.
type CPU struct {
	ID   int
	Node int // NUMA node

	// busyUntil is the simulated cycle at which the CPU becomes free.
	// With one process per CPU it trails that process's clock; with
	// oversubscription it serializes compute segments.
	busyUntil uint64
	// pendingIRQ accumulates cycles of interrupt work (e.g. TLB
	// invalidations delivered by IPI) that the next compute segment on
	// this CPU must absorb.
	pendingIRQ uint64
	// irqCount counts interrupts delivered to this CPU.
	irqCount uint64
}

// Engine is a discrete-event simulation instance.
type Engine struct {
	cfg     Config
	cpus    []*CPU
	nodes   int // NUMA nodes: numaNodes, or one per CPU below that
	procs   []*Proc
	runq    procHeap
	current *Proc

	blocked int // processes suspended on a primitive
	// blockedDaemons counts suspended daemon processes. Daemons parked on
	// their wakeup primitive are idle services, not deadlocks: Run returns
	// when only daemons remain blocked.
	blockedDaemons int

	// segStart is the cycle at which the running process was last given the
	// CPU: the start of the segment traceSegment closes.
	segStart uint64
	// handoff is the successor a yielding process already took off the run
	// queue (in the same sift that queued itself, procHeap.ReplaceTop) for
	// Run to resume next; nil when Run must pop the queue itself.
	handoff *Proc
	// dead is the panic message of Run and Spawn once the engine can run
	// nothing more (a body panicked or exited its goroutine, or Close);
	// empty while alive.
	dead string

	tr *tracer

	// spans is the obs tracer from Config.Spans; pidCPU/pidProc are the
	// track groups registered for scheduler segments and process spans.
	spans   *obs.Tracer
	pidCPU  int
	pidProc int
	// prof is the lossless span sink from Config.Profile.
	prof obs.SpanSink

	// crash holds the armed crash triggers and, once fired, the crash record
	// (crash.go).
	crash crashState
}

// batonKind says how a process gave up the CPU; it labels the segment that
// ends there.
type batonKind uint8

const (
	batonYield batonKind = iota // still runnable, someone else goes first
	batonBlock                  // suspended on a primitive
	batonDone                   // body returned
	batonCrash                  // unwound by the crash sentinel
)

var batonNames = [...]string{batonYield: "yield", batonBlock: "block", batonDone: "done", batonCrash: "crash"}

func (k batonKind) String() string { return batonNames[k] }

// numaNodes is the number of NUMA nodes CPUs are split across: the paper's
// dual-socket testbed.
const numaNodes = 2

// New creates a simulation engine.
func New(cfg Config) *Engine {
	if cfg.NumCPUs <= 0 {
		cfg.NumCPUs = 32
	}
	e := &Engine{cfg: cfg, nodes: min(numaNodes, cfg.NumCPUs)}
	if cfg.Trace {
		e.tr = &tracer{}
	}
	e.spans = cfg.Spans
	e.prof = cfg.Profile
	perNode := cfg.NumCPUs / e.nodes
	for i := 0; i < cfg.NumCPUs; i++ {
		node := min(i/perNode, e.nodes-1)
		e.cpus = append(e.cpus, &CPU{ID: i, Node: node})
	}
	e.registerObs()
	return e
}

// schedKey derives a proc's schedule tie-break key. With SchedPerturb 0 the
// key is the spawn id itself — the canonical order, bit-identical to the
// engine before the knob existed. A non-zero seed mixes seed and id through
// a splitmix64 finalizer, permuting the tie-break order among equal-cycle
// procs deterministically per seed. Collisions fall back to id order in
// schedBefore, so every seed still yields a total order.
func (e *Engine) schedKey(id int) uint64 {
	if e.cfg.SchedPerturb == 0 {
		return uint64(id)
	}
	z := e.cfg.SchedPerturb + uint64(id)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// NumCPUs returns the number of simulated CPUs.
func (e *Engine) NumCPUs() int { return len(e.cpus) }

// NumNUMANodes returns the number of simulated NUMA nodes.
func (e *Engine) NumNUMANodes() int { return e.nodes }

// NodeOf returns the NUMA node of the given CPU.
func (e *Engine) NodeOf(cpu int) int { return e.cpus[cpu].Node }

// Spawn creates a new simulated process pinned to the given CPU. fn runs as
// the process body; the process starts at simulated time `start`.
// Spawn may be called before Run or from inside a running process.
func (e *Engine) Spawn(cpu int, name string, fn func(*Proc)) *Proc {
	return e.SpawnAt(cpu, name, 0, fn)
}

// SpawnAt is Spawn with an explicit start time. When called from a running
// process the child starts no earlier than the parent's current time.
func (e *Engine) SpawnAt(cpu int, name string, start uint64, fn func(*Proc)) *Proc {
	if e.dead != "" {
		panic(e.dead)
	}
	if cpu < 0 || cpu >= len(e.cpus) {
		panic(fmt.Sprintf("engine: spawn %q on invalid cpu %d", name, cpu))
	}
	if e.current != nil && start < e.current.now {
		start = e.current.now
	}
	p := &Proc{
		e:    e,
		id:   len(e.procs),
		name: name,
		cpu:  cpu,
		now:  start,
		fn:   fn,
	}
	p.skey = e.schedKey(p.id)
	e.procs = append(e.procs, p)
	e.runq.Push(p)
	if e.spans != nil {
		e.spans.SetThreadName(e.pidProc, p.id, name)
	}
	return p
}

// SpawnDaemon creates a background service process (e.g. a per-node page
// evictor): it is expected to park on a wakeup primitive between work bursts
// and never finish. A blocked daemon does not hold Run open and does not
// trigger the deadlock panic.
func (e *Engine) SpawnDaemon(cpu int, name string, fn func(*Proc)) *Proc {
	p := e.SpawnAt(cpu, name, 0, fn)
	p.daemon = true
	return p
}

// Run executes the simulation until every non-daemon process has finished.
// It panics on deadlock (blocked non-daemon processes with an empty run
// queue), which always indicates a bug in a simulated synchronization
// protocol. Daemon processes (SpawnDaemon) parked on a wakeup primitive do
// not count as deadlocked: they stay suspended across Run calls and resume
// when some later process signals them.
//
// Every process is a pull coroutine (iter.Pull over Proc.run) and Run is the
// loop that drives them: it resumes the head of the run queue and gets the
// thread back when that process yields, blocks, finishes or is unwound by a
// crash; the successor is the one the process left in e.handoff, else the new
// head of the queue. A switch is two coroutine switches on this goroutine's
// thread — the Go scheduler is not involved — and there is one thread of
// control throughout, so whoever runs owns all engine state.
//
// A panic in a process body that is not a crash, or a runtime.Goexit there
// (t.Fatal), surfaces here unchanged, on Run's caller; the engine is dead
// from then on (Run and Spawn panic) and every parked process is released as
// by Close.
func (e *Engine) Run() {
	if e.current != nil {
		panic("engine: Run called from inside a process")
	}
	if e.dead != "" {
		panic(e.dead)
	}
	if e.crash.info != nil {
		return // the machine is dead; nothing ever runs again
	}
	defer func() {
		if p := e.current; p != nil { // p's body did not come back through yield
			e.current = nil
			e.dead = fmt.Sprintf("engine: dead after panic in proc %q", p.name)
			e.Close()
		}
	}()
	next := e.runq.Pop()
	for next != nil {
		e.current = next
		e.segStart = next.now
		if !next.started {
			next.started = true
			next.next, next.stop = iter.Pull(next.run)
		}
		next.next()
		if e.crash.info != nil {
			e.drainCrash()
			return
		}
		if next = e.handoff; next != nil {
			e.handoff = nil
		} else {
			next = e.runq.Pop()
		}
	}
	e.current = nil
	if e.blocked > e.blockedDaemons {
		panic(fmt.Sprintf("engine: deadlock, %d blocked process(es): %s",
			e.blocked, e.blockedNames()))
	}
}

// Close releases every process still parked inside its body — daemons
// waiting for work, processes a deadlock panic left blocked — so their
// goroutines exit and the world they reference can be collected. Each
// unwinds by the crash rule (the engine's private panic sentinel, so no
// simulated user-space cleanup runs) and records nothing. No simulated
// result depends on Close; afterwards Run and Spawn panic. Idempotent; call
// it from outside Run.
func (e *Engine) Close() {
	if e.current != nil {
		panic("engine: Close called from inside a process")
	}
	if e.dead == "" {
		e.dead = "engine: closed"
	}
	for _, p := range e.procs {
		if p.started && !p.done {
			p.stop()
		}
	}
}

// blockedFormats renders what a suspended process waits on for the deadlock
// diagnostic; the primitive's name fills the %s.
var blockedFormats = [...]string{
	onMutex:        "mutex:%s",
	onRWMutexRead:  "rwmutex:%s:r",
	onRWMutexWrite: "rwmutex:%s:w",
	onWaitGroup:    "waitgroup:%s",
	onSignal:       "signal:%s",
	onEvent:        "event:%s",
}

func (e *Engine) blockedNames() string {
	s := ""
	for _, p := range e.procs {
		if p.blockedOn != onNothing {
			if s != "" {
				s += ", "
			}
			s += fmt.Sprintf("%s(on "+blockedFormats[p.blockedOn]+")", p.name, p.blockedPrim.primitiveName())
		}
	}
	return s
}

// unblock reinserts a suspended process into the run queue with its clock
// advanced to at least `at`. The gap between the process's old clock and the
// wake time is attributed to `waitKind`.
func (e *Engine) unblock(p *Proc, at uint64, waitKind Kind) {
	if p.blockedOn == onNothing {
		panic(fmt.Sprintf("engine: unblock of non-blocked process %s", p.name))
	}
	p.blockedOn, p.blockedPrim = onNothing, nil
	if at > p.now {
		p.acct[waitKind] += at - p.now
		p.now = at
	}
	e.blocked--
	if p.daemon {
		e.blockedDaemons--
	}
	e.runq.Push(p)
}

// Now returns the maximum simulated time reached by any process so far.
// Useful after Run for end-to-end makespan.
func (e *Engine) Now() uint64 {
	var m uint64
	for _, p := range e.procs {
		if p.now > m {
			m = p.now
		}
	}
	return m
}

// Procs returns all processes ever spawned (finished ones included).
func (e *Engine) Procs() []*Proc { return e.procs }

// PostIRQ delivers `cycles` of interrupt-handler work to a CPU. The work is
// absorbed by the next compute segment executed on that CPU. Delivery is free
// for the sender; senders model their own send-side cost separately.
func (e *Engine) PostIRQ(cpu int, cycles uint64) {
	c := e.cpus[cpu]
	c.pendingIRQ += cycles
	c.irqCount++
}

// IRQCount returns the number of interrupts delivered to a CPU.
func (e *Engine) IRQCount(cpu int) uint64 { return e.cpus[cpu].irqCount }

// TotalAccounted sums per-kind cycle accounting across all processes.
func (e *Engine) TotalAccounted() (out [4]uint64) {
	for _, p := range e.procs {
		for k := 0; k < int(numKinds); k++ {
			out[k] += p.acct[k]
		}
	}
	return out
}
