package engine

import "fmt"

// Lock costs, in cycles. An uncontended atomic CAS on a warm cache line is on
// the order of 20 cycles; a contended handoff moves the lock cache line
// across cores and costs on the order of a cache-to-cache transfer.
const (
	lockAcquireCost = 20
	lockHandoffCost = 120
)

// MutexStats exposes contention counters of a simulated lock.
type MutexStats struct {
	Acquisitions uint64
	Contended    uint64
	WaitCycles   uint64
}

// waitq is the FIFO every blocking primitive queues its waiters on: a ring
// through Proc.waitNext reached from its newest member, so tail.waitNext is
// the oldest. A process blocks on one primitive at a time, so the one link
// serves every queue, and queueing allocates nothing.
type waitq struct{ tail *Proc }

// push appends p as the newest waiter.
func (q *waitq) push(p *Proc) {
	if q.tail == nil {
		p.waitNext = p
	} else {
		p.waitNext, q.tail.waitNext = q.tail.waitNext, p
	}
	q.tail = p
}

// head returns the oldest waiter, nil if there is none.
func (q *waitq) head() *Proc {
	if q.tail == nil {
		return nil
	}
	return q.tail.waitNext
}

// pop removes and returns the oldest waiter, nil if there is none.
func (q *waitq) pop() *Proc {
	t := q.tail
	if t == nil {
		return nil
	}
	h := t.waitNext
	if h == t {
		q.tail = nil
	} else {
		t.waitNext = h.waitNext
	}
	h.waitNext = nil
	return h
}

// Mutex is a simulated FIFO mutex. Waiting time is simulated queueing delay,
// attributed to KindLockWait on the waiter.
type Mutex struct {
	e       *Engine
	name    string
	holder  *Proc
	waiters waitq

	stats MutexStats
}

// NewMutex creates a simulated mutex.
func NewMutex(e *Engine, name string) *Mutex {
	return &Mutex{e: e, name: name}
}

// Lock acquires the mutex, blocking at simulated time until it is free.
// The acquire cost is charged as system time.
func (m *Mutex) Lock(p *Proc) {
	p.Sync()
	p.advance(KindSystem, lockAcquireCost)
	m.stats.Acquisitions++
	if m.holder == nil {
		m.holder = p
		return
	}
	m.stats.Contended++
	before := p.now
	m.waiters.push(p)
	p.block(onMutex, m)
	m.stats.WaitCycles += p.now - before
}

// Unlock releases the mutex, handing it to the oldest waiter if any.
func (m *Mutex) Unlock(p *Proc) {
	p.Sync()
	if m.holder != p {
		panic(fmt.Sprintf("engine: %s unlocks mutex %q held by %v", p.name, m.name, m.holder))
	}
	m.holder = m.waiters.pop()
	if m.holder != nil {
		m.e.unblock(m.holder, p.now+lockHandoffCost, KindLockWait)
	}
}

func (m *Mutex) primitiveName() string { return m.name }

// Stats returns contention counters.
func (m *Mutex) Stats() MutexStats { return m.stats }

// RWMutex is a simulated fair reader/writer lock in the style of the Linux
// mmap_sem: FIFO between phases, with consecutive queued readers admitted as
// a batch. A waiter's mode is the primitive it blocked as (onRWMutexRead or
// onRWMutexWrite).
type RWMutex struct {
	e       *Engine
	name    string
	readers int
	writer  *Proc
	queue   waitq

	stats MutexStats
}

// NewRWMutex creates a simulated reader/writer lock.
func NewRWMutex(e *Engine, name string) *RWMutex {
	return &RWMutex{e: e, name: name}
}

// RLock acquires the lock in shared mode.
func (rw *RWMutex) RLock(p *Proc) {
	p.Sync()
	p.advance(KindSystem, lockAcquireCost)
	rw.stats.Acquisitions++
	if rw.writer == nil && rw.queue.tail == nil {
		rw.readers++
		return
	}
	rw.stats.Contended++
	before := p.now
	rw.queue.push(p)
	p.block(onRWMutexRead, rw)
	rw.stats.WaitCycles += p.now - before
}

// RUnlock releases a shared acquisition.
func (rw *RWMutex) RUnlock(p *Proc) {
	p.Sync()
	if rw.readers <= 0 {
		panic(fmt.Sprintf("engine: RUnlock of %q with no readers", rw.name))
	}
	rw.readers--
	if rw.readers == 0 {
		rw.admit(p.now)
	}
}

// Lock acquires the lock in exclusive mode.
func (rw *RWMutex) Lock(p *Proc) {
	p.Sync()
	p.advance(KindSystem, lockAcquireCost)
	rw.stats.Acquisitions++
	if rw.writer == nil && rw.readers == 0 && rw.queue.tail == nil {
		rw.writer = p
		return
	}
	rw.stats.Contended++
	before := p.now
	rw.queue.push(p)
	p.block(onRWMutexWrite, rw)
	rw.stats.WaitCycles += p.now - before
}

// Unlock releases an exclusive acquisition.
func (rw *RWMutex) Unlock(p *Proc) {
	p.Sync()
	if rw.writer != p {
		panic(fmt.Sprintf("engine: %s unlocks rwmutex %q held by %v", p.name, rw.name, rw.writer))
	}
	rw.writer = nil
	rw.admit(p.now)
}

// admit wakes the next phase of waiters at simulated time t: the oldest
// writer alone, or the whole leading run of readers.
func (rw *RWMutex) admit(t uint64) {
	w := rw.queue.head()
	if w == nil || rw.writer != nil || rw.readers > 0 {
		return
	}
	if w.blockedOn == onRWMutexWrite {
		rw.writer = rw.queue.pop()
		rw.e.unblock(w, t+lockHandoffCost, KindLockWait)
		return
	}
	for ; w != nil && w.blockedOn == onRWMutexRead; w = rw.queue.head() {
		rw.queue.pop()
		rw.readers++
		rw.e.unblock(w, t+lockHandoffCost, KindLockWait)
	}
}

func (rw *RWMutex) primitiveName() string { return rw.name }

// WaitGroup is a simulated analogue of sync.WaitGroup.
type WaitGroup struct {
	e       *Engine
	name    string
	count   int
	waiters waitq
	doneAt  uint64
}

// NewWaitGroup creates a simulated wait group.
func NewWaitGroup(e *Engine, name string) *WaitGroup {
	return &WaitGroup{e: e, name: name}
}

func (wg *WaitGroup) primitiveName() string { return wg.name }

// Add increments the counter by n.
func (wg *WaitGroup) Add(n int) { wg.count += n }

// Done decrements the counter; the last Done releases all waiters at the
// caller's simulated time (or the latest Done time seen).
func (wg *WaitGroup) Done(p *Proc) {
	p.Sync()
	if wg.count <= 0 {
		panic(fmt.Sprintf("engine: waitgroup %q Done below zero", wg.name))
	}
	wg.count--
	if p.now > wg.doneAt {
		wg.doneAt = p.now
	}
	if wg.count == 0 {
		for w := wg.waiters.pop(); w != nil; w = wg.waiters.pop() {
			wg.e.unblock(w, wg.doneAt, KindIOWait)
		}
		wg.doneAt = 0
	}
}

// Wait blocks until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		p.Sync()
		return
	}
	wg.waiters.push(p)
	p.block(onWaitGroup, wg)
}

// Signal is a re-armable binary wakeup, the parking primitive for daemon
// processes (kswapd-style services): Wait parks the daemon until the next
// Set, and a Set with no waiter is latched so the wakeup is never lost.
// Unlike Event it resets after every consumption. Set is free for the
// sender — it models writing a flag plus a futex-wake whose cost is
// negligible against the work the daemon then performs.
type Signal struct {
	e         *Engine
	name      string
	pending   bool
	pendingAt uint64
	waiter    *Proc
}

// NewSignal creates an unsignaled Signal.
func NewSignal(e *Engine, name string) *Signal {
	return &Signal{e: e, name: name}
}

func (s *Signal) primitiveName() string { return s.name }

// Pending reports whether a latched wakeup is waiting to be consumed.
func (s *Signal) Pending() bool { return s.pending }

// Set wakes the parked waiter at simulated time t (or the waiter's own
// clock, if later); with no waiter the wakeup is latched for the next Wait.
// Consecutive Sets before a Wait coalesce into one wakeup, keeping the
// earliest time — exactly the semantics of a wakeup flag.
func (s *Signal) Set(t uint64) {
	if w := s.waiter; w != nil {
		s.waiter = nil
		s.e.unblock(w, t, KindIOWait)
		return
	}
	if !s.pending || t < s.pendingAt {
		s.pendingAt = t
	}
	s.pending = true
}

// Wait consumes a latched wakeup immediately (advancing the caller to the
// Set time if it is in the future) or parks the caller until the next Set.
// Only one process may wait at a time.
func (s *Signal) Wait(p *Proc) {
	if s.pending {
		s.pending = false
		p.WaitUntil(s.pendingAt, KindIOWait)
		return
	}
	if s.waiter != nil {
		panic(fmt.Sprintf("engine: second waiter on signal %q", s.name))
	}
	s.waiter = p
	p.block(onSignal, s)
}

// Event is a level-triggered event made to live inside its owner, by value:
// a cached page carries the one event its busy periods share, so the event is
// two words, the last fire time and the waitq (DESIGN.md §3 "Page records").
// The zero Event is idle and reads as fired at time 0. Arm starts a busy
// period, Fire ends it, releasing the waiters of that period, and the event
// can be armed again. The event holds no name: each waiter names what it
// waits on (Wait's owner), and the engine keeps that name only while the
// waiter is blocked. A waiter returns from Wait once per wake and re-checks
// what it waited for: one that a Fire woke but that runs only after the next
// Arm finds the owner busy again and waits again.
type Event struct {
	// firedAt is the time of the last Fire, or armed during a busy period.
	firedAt uint64
	waiters waitq
}

// armed is the fire time of an event inside a busy period; no Fire is ever
// at it.
const armed = ^uint64(0)

// EventNamer names what a process waits on. The name is only read by the
// deadlock diagnostic, so an owner whose event is armed per operation (a page
// fill) passes itself to Wait and formats nothing unless a run deadlocks.
type EventNamer interface{ EventName() string }

// Arm starts a busy period. Arming an event whose last period has not fired
// is a bug: its waiters would never be released.
func (ev *Event) Arm() {
	if !ev.Fired() {
		panic("engine: arm of unfired event")
	}
	ev.firedAt = armed
}

// Fired reports whether the event is idle: never armed, or fired since.
func (ev *Event) Fired() bool { return ev.firedAt != armed }

// FiredAt returns the simulated time of the last Fire (0 before the first);
// it is meaningful only while the event is idle.
func (ev *Event) FiredAt() uint64 { return ev.firedAt }

// Fire ends the busy period at time t, waking its waiters in arrival order.
// Firing an idle event does nothing.
func (ev *Event) Fire(t uint64) {
	if ev.Fired() {
		return
	}
	ev.firedAt = t
	for w := ev.waiters.pop(); w != nil; w = ev.waiters.pop() {
		w.e.unblock(w, max(t, w.now), KindIOWait)
	}
}

// Wait blocks until the event fires; if it is idle the caller only advances
// to the last fire time if that is in its future. owner, which must not be
// nil, names the wait for the deadlock diagnostic.
func (ev *Event) Wait(p *Proc, owner EventNamer) {
	if ev.Fired() {
		p.WaitUntil(ev.firedAt, KindIOWait)
		return
	}
	ev.waiters.push(p)
	p.eventOwner = owner
	p.block(onEvent, nil)
}
