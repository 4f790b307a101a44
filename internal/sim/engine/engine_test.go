package engine

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingleProcAdvance(t *testing.T) {
	e := New(Config{NumCPUs: 1})
	var final uint64
	e.Spawn(0, "p", func(p *Proc) {
		p.AdvanceUser(100)
		p.AdvanceSystem(50)
		final = p.Now()
	})
	e.Run()
	if final != 150 {
		t.Fatalf("final time = %d, want 150", final)
	}
	if e.Now() != 150 {
		t.Fatalf("engine now = %d, want 150", e.Now())
	}
}

func TestAccountingKinds(t *testing.T) {
	e := New(Config{NumCPUs: 1})
	var p0 *Proc
	p0 = e.Spawn(0, "p", func(p *Proc) {
		p.AdvanceUser(10)
		p.AdvanceSystem(20)
		p.SleepIO(30)
	})
	e.Run()
	if got := p0.Accounted(KindUser); got != 10 {
		t.Errorf("user = %d, want 10", got)
	}
	if got := p0.Accounted(KindSystem); got != 20 {
		t.Errorf("system = %d, want 20", got)
	}
	if got := p0.Accounted(KindIOWait); got != 30 {
		t.Errorf("iowait = %d, want 30", got)
	}
}

func TestSchedulerOrdersByTime(t *testing.T) {
	e := New(Config{NumCPUs: 4})
	var order []string
	for i, adv := range []uint64{300, 100, 200} {
		name := string(rune('a' + i))
		adv := adv
		e.Spawn(i, name, func(p *Proc) {
			p.AdvanceUser(adv)
			p.Sync() // let earlier-clocked procs run first
			order = append(order, p.Name())
		})
	}
	e.Run()
	want := []string{"b", "c", "a"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMutexSerializes(t *testing.T) {
	e := New(Config{NumCPUs: 8})
	m := NewMutex(e, "test")
	const n = 4
	const hold = 1000
	ends := make([]uint64, n)
	for i := 0; i < n; i++ {
		i := i
		e.Spawn(i, "w", func(p *Proc) {
			m.Lock(p)
			p.AdvanceSystem(hold)
			ends[i] = p.Now()
			m.Unlock(p)
		})
	}
	e.Run()
	// All pay the acquire cost at t=0 and proc 0 wins the tie-break; with
	// FIFO handoff proc i then waits for i holds and i handoffs.
	for i := 0; i < n; i++ {
		want := lockAcquireCost + uint64(i)*(hold+lockHandoffCost) + hold
		if ends[i] != want {
			t.Errorf("proc %d end = %d, want %d", i, ends[i], want)
		}
	}
	st := m.Stats()
	if st.Acquisitions != n {
		t.Errorf("acquisitions = %d, want %d", st.Acquisitions, n)
	}
	if st.Contended != n-1 {
		t.Errorf("contended = %d, want %d", st.Contended, n-1)
	}
	if want := uint64(1+2+3) * (hold + lockHandoffCost); st.WaitCycles != want {
		t.Errorf("wait cycles = %d, want %d", st.WaitCycles, want)
	}
}

func TestMutexWaitIsLockWaitKind(t *testing.T) {
	e := New(Config{NumCPUs: 2})
	m := NewMutex(e, "test")
	var waiter *Proc
	e.Spawn(0, "holder", func(p *Proc) {
		m.Lock(p)
		p.AdvanceSystem(500)
		m.Unlock(p)
	})
	waiter = e.Spawn(1, "waiter", func(p *Proc) {
		p.AdvanceUser(1) // lose the t=0 tie
		m.Lock(p)
		m.Unlock(p)
	})
	e.Run()
	// The waiter queues one cycle after the holder took the lock and is
	// handed it when the 500-cycle hold ends.
	if got, want := waiter.Accounted(KindLockWait), uint64(500+lockHandoffCost-1); got != want {
		t.Errorf("lockwait = %d, want %d", got, want)
	}
}

func TestRWMutexReaderBatch(t *testing.T) {
	e := New(Config{NumCPUs: 8})
	rw := NewRWMutex(e, "test")
	readerEnds := make([]uint64, 3)
	e.Spawn(0, "writer", func(p *Proc) {
		rw.Lock(p)
		p.AdvanceSystem(1000)
		rw.Unlock(p)
	})
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(1+i, "reader", func(p *Proc) {
			p.AdvanceUser(1)
			rw.RLock(p)
			p.AdvanceSystem(100)
			readerEnds[i] = p.Now()
			rw.RUnlock(p)
		})
	}
	e.Run()
	// All three readers are admitted together when the writer's hold ends
	// and overlap.
	want := uint64(lockAcquireCost + 1000 + lockHandoffCost + 100)
	for i, end := range readerEnds {
		if end != want {
			t.Errorf("reader %d end = %d, want %d (batched admission)", i, end, want)
		}
	}
}

func TestRWMutexWriterWaitsForAllReaders(t *testing.T) {
	e := New(Config{NumCPUs: 8})
	rw := NewRWMutex(e, "test")
	var writerStart uint64
	for i := 0; i < 2; i++ {
		hold := uint64(100 * (i + 1))
		e.Spawn(i, "reader", func(p *Proc) {
			rw.RLock(p)
			p.AdvanceSystem(hold)
			rw.RUnlock(p)
		})
	}
	e.Spawn(2, "writer", func(p *Proc) {
		p.AdvanceUser(1)
		rw.Lock(p)
		writerStart = p.Now()
		rw.Unlock(p)
	})
	e.Run()
	if want := uint64(lockAcquireCost + 200 + lockHandoffCost); writerStart != want {
		t.Errorf("writer admitted at %d, want %d (after slowest reader)", writerStart, want)
	}
}

func TestWaitGroup(t *testing.T) {
	e := New(Config{NumCPUs: 8})
	wg := NewWaitGroup(e, "test")
	wg.Add(3)
	var joined uint64
	for i := 0; i < 3; i++ {
		work := uint64(100 * (i + 1))
		e.Spawn(i, "worker", func(p *Proc) {
			p.AdvanceUser(work)
			wg.Done(p)
		})
	}
	e.Spawn(3, "main", func(p *Proc) {
		wg.Wait(p)
		joined = p.Now()
	})
	e.Run()
	if joined != 300 {
		t.Errorf("joined at %d, want 300 (slowest worker)", joined)
	}
}

func TestEventWakesWaiters(t *testing.T) {
	e := New(Config{NumCPUs: 4})
	ev := newEvent()
	var woke uint64
	e.Spawn(0, "waiter", func(p *Proc) {
		ev.Wait(p, eventName("test"))
		woke = p.Now()
	})
	e.Spawn(1, "firer", func(p *Proc) {
		p.AdvanceUser(777)
		ev.Fire(p.Now())
	})
	e.Run()
	if woke != 777 {
		t.Errorf("woke at %d, want 777", woke)
	}
	if !ev.Fired() || ev.FiredAt() != 777 {
		t.Errorf("event state fired=%v at=%d", ev.Fired(), ev.FiredAt())
	}
}

func TestEventWaitAfterFire(t *testing.T) {
	e := New(Config{NumCPUs: 2})
	ev := newEvent()
	var woke uint64
	e.Spawn(0, "firer", func(p *Proc) {
		p.AdvanceUser(100)
		ev.Fire(p.Now())
	})
	e.Spawn(1, "late", func(p *Proc) {
		p.AdvanceUser(500)
		ev.Wait(p, eventName("test")) // already fired in its past: no extra delay
		woke = p.Now()
	})
	e.Run()
	if woke != 500 {
		t.Errorf("woke at %d, want 500", woke)
	}
}

func TestIRQDelivery(t *testing.T) {
	e := New(Config{NumCPUs: 2})
	var victim *Proc
	victim = e.Spawn(0, "victim", func(p *Proc) {
		p.AdvanceUser(10)
		p.Yield()
		p.AdvanceUser(10) // absorbs the pending IRQ here
	})
	e.Spawn(1, "sender", func(p *Proc) {
		p.AdvanceUser(5)
		p.Engine().PostIRQ(0, 300)
	})
	e.Run()
	if victim.IRQAbsorbed() != 300 {
		t.Errorf("irq absorbed = %d, want 300", victim.IRQAbsorbed())
	}
	if victim.Now() != 320 {
		t.Errorf("victim now = %d, want 320", victim.Now())
	}
	if e.IRQCount(0) != 1 {
		t.Errorf("irq count = %d, want 1", e.IRQCount(0))
	}
}

func TestCPUSerializationWithOversubscription(t *testing.T) {
	e := New(Config{NumCPUs: 1})
	var aEnd, bEnd uint64
	e.Spawn(0, "a", func(p *Proc) {
		p.AdvanceUser(100)
		aEnd = p.Now()
	})
	e.Spawn(0, "b", func(p *Proc) {
		p.AdvanceUser(100)
		bEnd = p.Now()
	})
	e.Run()
	// Two compute-bound procs on one CPU must serialize: 100 then 200.
	if aEnd != 100 || bEnd != 200 {
		t.Errorf("ends = %d, %d; want 100, 200", aEnd, bEnd)
	}
}

func TestSpawnFromInsideInheritsTime(t *testing.T) {
	e := New(Config{NumCPUs: 2})
	var childStart uint64
	e.Spawn(0, "parent", func(p *Proc) {
		p.AdvanceUser(1000)
		p.Engine().Spawn(1, "child", func(c *Proc) {
			childStart = c.Now()
		})
	})
	e.Run()
	if childStart != 1000 {
		t.Errorf("child started at %d, want 1000", childStart)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		e := New(Config{NumCPUs: 8})
		rng := rand.New(rand.NewSource(42))
		m := NewMutex(e, "m")
		var ends []uint64
		for i := 0; i < 8; i++ {
			e.Spawn(i, "w", func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.AdvanceUser(uint64(rng.Intn(100)))
					m.Lock(p)
					p.AdvanceSystem(50)
					m.Unlock(p)
				}
				ends = append(ends, p.Now())
			})
		}
		e.Run()
		return ends
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e := New(Config{NumCPUs: 2})
	m := NewMutex(e, "m")
	e.Spawn(0, "a", func(p *Proc) {
		m.Lock(p) // never unlocked
		p.AdvanceUser(1)
	})
	e.Spawn(1, "b", func(p *Proc) {
		p.AdvanceUser(10)
		m.Lock(p) // blocks forever
	})
	e.Run()
}

func TestNUMATopology(t *testing.T) {
	e := New(Config{NumCPUs: 32})
	if e.NodeOf(0) != 0 || e.NodeOf(15) != 0 {
		t.Errorf("cpus 0,15 should be node 0: %d %d", e.NodeOf(0), e.NodeOf(15))
	}
	if e.NodeOf(16) != 1 || e.NodeOf(31) != 1 {
		t.Errorf("cpus 16,31 should be node 1: %d %d", e.NodeOf(16), e.NodeOf(31))
	}
}

func TestWaitUntilPast(t *testing.T) {
	e := New(Config{NumCPUs: 1})
	e.Spawn(0, "p", func(p *Proc) {
		p.AdvanceUser(100)
		p.WaitUntil(50, KindIOWait) // in the past: no-op
		if p.Now() != 100 {
			t.Errorf("now = %d, want 100", p.Now())
		}
	})
	e.Run()
}

func TestTraceCapturesSegments(t *testing.T) {
	e := New(Config{NumCPUs: 2})
	segs := recordSegments(e)
	m := NewMutex(e, "m")
	e.Spawn(0, "alpha", func(p *Proc) {
		m.Lock(p)
		p.AdvanceSystem(500)
		m.Unlock(p)
	})
	e.Spawn(1, "beta", func(p *Proc) {
		p.AdvanceUser(10)
		m.Lock(p)
		p.AdvanceSystem(100)
		m.Unlock(p)
	})
	e.Run()
	if len(*segs) == 0 {
		t.Fatal("no segments recorded")
	}
	names := map[string]bool{}
	for _, s := range *segs {
		if s.end <= s.start {
			t.Errorf("empty/negative segment %+v", s)
		}
		names[s.p.name] = true
	}
	if !names["alpha"] || !names["beta"] {
		t.Errorf("procs missing from trace: %v", names)
	}
	// Segments on one CPU must not overlap (one proc per CPU here).
	perCPU := map[int][]segment{}
	for _, s := range *segs {
		perCPU[s.p.cpu] = append(perCPU[s.p.cpu], s)
	}
	for cpuID, list := range perCPU {
		for i := 1; i < len(list); i++ {
			if list[i].start < list[i-1].end {
				t.Errorf("cpu %d: overlapping segments %+v / %+v", cpuID, list[i-1], list[i])
			}
		}
	}
}

// recordSegments installs the segment recorder on e and returns what it
// fills.
func recordSegments(e *Engine) *[]segment {
	e.segs = new([]segment)
	return e.segs
}

// Property: the run-queue heap always pops in (time, id) order.
func TestProcHeapOrderProperty(t *testing.T) {
	check := func(times []uint16) bool {
		h := &procHeap{}
		for i, tm := range times {
			h.Push(&Proc{id: i, now: uint64(tm)})
		}
		var lastT uint64
		lastID := -1
		for h.Len() > 0 {
			p := h.Pop()
			if p.now < lastT || (p.now == lastT && p.id < lastID) {
				return false
			}
			if p.now > lastT {
				lastID = -1
			}
			lastT = p.now
			lastID = p.id
		}
		return h.Pop() == nil && h.Peek() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
