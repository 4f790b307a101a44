package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The blocking primitives all queue on one waitq. The tests here hold them to
// the slice queues they replaced: a seeded scenario runs once on the engine's
// primitives and once on the references below, and every grant, every wake
// cycle and every process's accounting must match.

// refMutex, refRWMutex, refWaitGroup and refEvent are the reference queues:
// plain slices, a copy per reader batch, nothing shared between primitives.
type refMutex struct {
	e       *Engine
	holder  *Proc
	waiters []*Proc
}

func (m *refMutex) primitiveName() string { return "ref-mutex" }

func (m *refMutex) Lock(p *Proc) {
	p.Sync()
	p.advance(KindSystem, lockAcquireCost)
	if m.holder == nil {
		m.holder = p
		return
	}
	m.waiters = append(m.waiters, p)
	p.block(onMutex, m)
}

func (m *refMutex) Unlock(p *Proc) {
	p.Sync()
	m.holder = nil
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = slices.Delete(m.waiters, 0, 1)
		m.holder = w
		m.e.unblock(w, p.now+lockHandoffCost, KindLockWait)
	}
}

type refRWWaiter struct {
	p     *Proc
	write bool
}

type refRWMutex struct {
	e       *Engine
	readers int
	writer  *Proc
	queue   []refRWWaiter
}

func (rw *refRWMutex) primitiveName() string { return "ref-rwmutex" }

func (rw *refRWMutex) RLock(p *Proc) {
	p.Sync()
	p.advance(KindSystem, lockAcquireCost)
	if rw.writer == nil && len(rw.queue) == 0 {
		rw.readers++
		return
	}
	rw.queue = append(rw.queue, refRWWaiter{p, false})
	p.block(onRWMutexRead, rw)
}

func (rw *refRWMutex) RUnlock(p *Proc) {
	p.Sync()
	rw.readers--
	if rw.readers == 0 {
		rw.admit(p.now)
	}
}

func (rw *refRWMutex) Lock(p *Proc) {
	p.Sync()
	p.advance(KindSystem, lockAcquireCost)
	if rw.writer == nil && rw.readers == 0 && len(rw.queue) == 0 {
		rw.writer = p
		return
	}
	rw.queue = append(rw.queue, refRWWaiter{p, true})
	p.block(onRWMutexWrite, rw)
}

func (rw *refRWMutex) Unlock(p *Proc) {
	p.Sync()
	rw.writer = nil
	rw.admit(p.now)
}

func (rw *refRWMutex) admit(t uint64) {
	if len(rw.queue) == 0 || rw.writer != nil || rw.readers > 0 {
		return
	}
	if rw.queue[0].write {
		rw.writer = rw.queue[0].p
		rw.queue = slices.Delete(rw.queue, 0, 1)
		rw.e.unblock(rw.writer, t+lockHandoffCost, KindLockWait)
		return
	}
	n := 0
	for n < len(rw.queue) && !rw.queue[n].write {
		n++
	}
	batch := slices.Clone(rw.queue[:n])
	rw.queue = slices.Delete(rw.queue, 0, n)
	rw.readers += n
	for _, w := range batch {
		rw.e.unblock(w.p, t+lockHandoffCost, KindLockWait)
	}
}

type refWaitGroup struct {
	e       *Engine
	count   int
	waiters []*Proc
	doneAt  uint64
}

func (wg *refWaitGroup) primitiveName() string { return "ref-waitgroup" }

func (wg *refWaitGroup) Add(n int) { wg.count += n }

func (wg *refWaitGroup) Done(p *Proc) {
	p.Sync()
	wg.count--
	wg.doneAt = max(wg.doneAt, p.now)
	if wg.count == 0 {
		for _, w := range wg.waiters {
			wg.e.unblock(w, wg.doneAt, KindIOWait)
		}
		wg.waiters, wg.doneAt = nil, 0
	}
}

func (wg *refWaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		p.Sync()
		return
	}
	wg.waiters = append(wg.waiters, p)
	p.block(onWaitGroup, wg)
}

type refEvent struct {
	armed   bool
	firedAt uint64
	waiters []*Proc
}

func (ev *refEvent) Arm() { ev.armed = true }

func (ev *refEvent) Fire(t uint64) {
	if !ev.armed {
		return
	}
	ev.armed, ev.firedAt = false, t
	for _, w := range ev.waiters {
		w.e.unblock(w, max(t, w.now), KindIOWait)
	}
	ev.waiters = nil
}

func (ev *refEvent) Wait(p *Proc, owner EventNamer) {
	if !ev.armed {
		p.WaitUntil(ev.firedAt, KindIOWait)
		return
	}
	ev.waiters = append(ev.waiters, p)
	p.eventOwner = owner
	p.block(onEvent, nil)
}

// The method sets a scenario drives; the engine's primitives and the
// references both have them.
type (
	locker interface {
		Lock(p *Proc)
		Unlock(p *Proc)
	}
	rwLocker interface {
		locker
		RLock(p *Proc)
		RUnlock(p *Proc)
	}
	waitGroup interface {
		Add(n int)
		Done(p *Proc)
		Wait(p *Proc)
	}
	event interface {
		Arm()
		Fire(t uint64)
		Wait(p *Proc, owner EventNamer)
	}
)

// Scenario operations.
const (
	opMutex     = iota // Lock, hold, Unlock
	opRead             // RLock, hold, RUnlock
	opWrite            // Lock, hold, Unlock on the RWMutex
	opEvent            // Wait on the event
	opDone             // WaitGroup Done (workers only)
	opWaitGroup        // WaitGroup Wait (non-workers only)
	numOps
)

var opNames = [numOps]string{"mutex", "read", "write", "event", "done", "waitgroup"}

type scriptOp struct {
	op        int
	gap, hold uint64
}

// primScenario is one seeded workload: proc 0 owns the event and fires and
// re-arms it at random cycles without ever blocking; the other procs arrive
// at the primitives at random cycles, each gap drawn from a coarse grid half
// the time so that arrivals tie. Odd procs are the WaitGroup's workers (they
// never wait on it), even ones its waiters, so every run completes.
type primScenario struct {
	cpus    int
	fires   []uint64 // the owner's gaps between fires
	scripts [][]scriptOp
	dones   int
}

func newPrimScenario(seed int64) primScenario {
	rng := rand.New(rand.NewSource(seed))
	gap := func(span int) uint64 {
		if rng.Intn(2) == 0 {
			return uint64(50 * rng.Intn(span/50+1))
		}
		return uint64(rng.Intn(span))
	}
	procs := 3 + rng.Intn(8)
	sc := primScenario{cpus: 1 + rng.Intn(procs+1)}
	for range 1 + rng.Intn(6) {
		sc.fires = append(sc.fires, 1+gap(600))
	}
	for i := 1; i < procs; i++ {
		var script []scriptOp
		for range 1 + rng.Intn(12) {
			op := rng.Intn(numOps)
			switch {
			case op == opDone && i%2 == 0:
				op = opWaitGroup
			case op == opWaitGroup && i%2 == 1:
				op = opDone
			}
			if op == opDone {
				sc.dones++
			}
			script = append(script, scriptOp{op: op, gap: gap(300), hold: gap(300)})
		}
		sc.scripts = append(sc.scripts, script)
	}
	return sc
}

// run drives the scenario over one set of primitives and returns the log of
// every grant and wake in the order they happened, then each process's final
// clock and accounting.
func (sc primScenario) run(e *Engine, mu locker, rw rwLocker, wg waitGroup, ev event) []string {
	var log []string
	wg.Add(sc.dones)
	ev.Arm()
	e.Spawn(0, "owner", func(p *Proc) {
		for i, g := range sc.fires {
			p.AdvanceSystem(g)
			ev.Fire(p.Now())
			log = append(log, fmt.Sprintf("owner fires @%d", p.Now()))
			if i < len(sc.fires)-1 {
				ev.Arm()
			}
		}
	})
	for i, script := range sc.scripts {
		e.Spawn((i+1)%sc.cpus, fmt.Sprintf("p%d", i+1), func(p *Proc) {
			for _, s := range script {
				p.AdvanceUser(s.gap)
				switch s.op {
				case opMutex:
					mu.Lock(p)
				case opRead:
					rw.RLock(p)
				case opWrite:
					rw.Lock(p)
				case opEvent:
					ev.Wait(p, eventName("ev"))
				case opDone:
					wg.Done(p)
				case opWaitGroup:
					wg.Wait(p)
				}
				log = append(log, fmt.Sprintf("%s %s @%d", p.name, opNames[s.op], p.Now()))
				switch s.op {
				case opMutex, opRead, opWrite:
					p.AdvanceSystem(s.hold)
				}
				switch s.op {
				case opMutex:
					mu.Unlock(p)
				case opRead:
					rw.RUnlock(p)
				case opWrite:
					rw.Unlock(p)
				}
			}
		})
	}
	e.Run()
	for _, p := range e.Procs() {
		log = append(log, fmt.Sprintf("%s now=%d user=%d system=%d iowait=%d lockwait=%d", p.name, p.now,
			p.acct[KindUser], p.acct[KindSystem], p.acct[KindIOWait], p.acct[KindLockWait]))
	}
	return log
}

func TestPrimitivesMatchSliceQueueReference(t *testing.T) {
	blocked := 0
	for seed := int64(1); seed <= 300; seed++ {
		sc := newPrimScenario(seed)
		e := New(Config{NumCPUs: sc.cpus})
		mu, rw, wg := NewMutex(e, "mu"), NewRWMutex(e, "rw"), NewWaitGroup(e, "wg")
		got := sc.run(e, mu, rw, wg, new(Event))
		blocked += int(mu.Stats().Contended + rw.stats.Contended)

		re := New(Config{NumCPUs: sc.cpus})
		want := sc.run(re, &refMutex{e: re}, &refRWMutex{e: re}, &refWaitGroup{e: re}, new(refEvent))
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: the engine's primitives\n\t%s\nthe slice-queue reference\n\t%s",
				seed, strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
		}
	}
	if blocked < 1000 {
		t.Fatalf("only %d contended lock acquisitions over the bank: the scenarios barely queue", blocked)
	}
}

// readerBatch spawns one writer on CPU 0 that takes rw exclusively and four
// readers on CPUs 1-4 that take it shared until the writer is done.
// The writer's hold outlasts the readers' cycle, so each Unlock finds readers
// queued behind it and admits them as one batch. run is handed one writer
// round and decides how often to take it.
func readerBatch(e *Engine, rw *RWMutex, run func(step func())) {
	done := false
	e.Spawn(0, "writer", func(p *Proc) {
		run(func() {
			rw.Lock(p)
			p.AdvanceSystem(100)
			rw.Unlock(p)
		})
		done = true
	})
	for c := 1; c <= 4; c++ {
		e.Spawn(c, "reader", func(p *Proc) {
			for !done {
				rw.RLock(p)
				p.AdvanceSystem(10)
				rw.RUnlock(p)
				p.AdvanceUser(10)
			}
		})
	}
}

// TestRWMutexReaderAdmissionZeroAllocs: admitting a batch of queued readers
// allocates nothing (the slice queue copied each batch into a new slice).
func TestRWMutexReaderAdmissionZeroAllocs(t *testing.T) {
	e := New(Config{NumCPUs: 5, Seed: 1})
	rw := NewRWMutex(e, "rw")
	var allocs float64
	readerBatch(e, rw, func(step func()) { allocs = testing.AllocsPerRun(1000, step) })
	e.Run()
	if allocs != 0 {
		t.Fatalf("%v allocs per writer round with a reader batch admitted, want 0", allocs)
	}
	if st := rw.stats; st.Contended < st.Acquisitions/2 {
		t.Fatalf("%d of %d acquisitions contended: the readers did not queue", st.Contended, st.Acquisitions)
	}
}

// BenchmarkRWMutexReaderBatch: one writer round on an RWMutex with four
// readers cycling on it — the writer queues behind the readers' phase, then
// admits the readers queued behind it as a batch. Nothing allocates.
func BenchmarkRWMutexReaderBatch(b *testing.B) {
	e := New(Config{NumCPUs: 5, Seed: 1})
	rw := NewRWMutex(e, "bench")
	readerBatch(e, rw, func(step func()) {
		for i := 0; i < b.N; i++ {
			step()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
