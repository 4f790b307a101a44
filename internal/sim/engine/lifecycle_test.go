package engine

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// The tests in this file pin how a simulation ends other than by running to
// completion or crashing — a body that panics or exits its goroutine, Close,
// Run called from the wrong place — and what one process costs the host.

// recovered runs fn and returns what it panicked with (nil if it returned).
func recovered(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// parkedWorld spawns a daemon waiting on a signal, a process that takes a
// mutex and yields with it held (runnable again at cycle 1000, never
// unlocking), and one blocked on that mutex from cycle 10: by cycle 50 there
// is a process parked at every kind of resume point.
func parkedWorld(e *Engine) {
	mu := NewMutex(e, "m")
	sig := NewSignal(e, "s")
	e.SpawnDaemon(3, "daemon", func(p *Proc) {
		for {
			sig.Wait(p)
		}
	})
	e.Spawn(0, "holder", func(p *Proc) {
		mu.Lock(p)
		p.AdvanceUser(1000)
	})
	e.Spawn(1, "locker", func(p *Proc) {
		p.AdvanceUser(10)
		mu.Lock(p)
	})
}

type bodyError struct{ op int }

func (b *bodyError) Error() string { return fmt.Sprintf("op %d failed", b.op) }

// TestBodyPanicSurfacesOnRunCaller: a panic in a process body that is not the
// crash sentinel comes out of Run on the caller's goroutine with the value it
// was raised with, the engine refuses to run again, and the processes parked
// at the time are released.
func TestBodyPanicSurfacesOnRunCaller(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := New(Config{NumCPUs: 4, Seed: 1})
	segs := recordSegments(e)
	parkedWorld(e)
	planted := &bodyError{op: 7}
	e.Spawn(2, "buggy", func(p *Proc) {
		p.AdvanceUser(50)
		panic(planted)
	})
	r := recovered(e.Run)
	if r != any(planted) {
		t.Fatalf("Run panicked with %v (%T), want the body's own value %v", r, r, planted)
	}
	var be *bodyError
	if err, ok := r.(error); !ok || !errors.As(err, &be) || be.op != 7 {
		t.Fatalf("recovered value lost its type: %#v", r)
	}
	const dead = `engine: dead after panic in proc "buggy"`
	if r := recovered(e.Run); r != dead {
		t.Errorf("second Run: %v, want panic %q", r, dead)
	}
	if r := recovered(func() { e.Spawn(0, "late", func(*Proc) {}) }); r != dead {
		t.Errorf("Spawn on the dead engine: %v, want panic %q", r, dead)
	}
	if e.Crashed() != nil {
		t.Errorf("Crashed() = %+v after a body panic: releasing parked processes must record nothing", e.Crashed())
	}
	for _, s := range *segs {
		if s.outcome == batonCrash {
			t.Errorf("segment %+v: a released process recorded a crash segment", s)
		}
	}
	waitGoroutines(t, baseline)
}

// TestBodyGoexitDoesNotHangRun: runtime.Goexit in a body (what t.Fatal does)
// ends Run's caller the same way — its deferred calls run — instead of
// leaving it waiting for a process that will never hand the CPU back.
func TestBodyGoexitDoesNotHangRun(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := New(Config{NumCPUs: 4, Seed: 1})
	parkedWorld(e)
	e.Spawn(2, "quitter", func(p *Proc) {
		p.AdvanceUser(50)
		runtime.Goexit()
	})
	returned := false
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		e.Run()
		returned = true
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		t.Fatal("Run still waiting 10 s after a body called runtime.Goexit")
	}
	if returned {
		t.Error("Run returned normally; the Goexit should have ended its caller")
	}
	const dead = `engine: dead after panic in proc "quitter"`
	if r := recovered(e.Run); r != dead {
		t.Errorf("Run after the Goexit: %v, want panic %q", r, dead)
	}
	waitGoroutines(t, baseline)
}

// TestRunFromInsideProcPanics: Run is not re-entrant.
func TestRunFromInsideProcPanics(t *testing.T) {
	e := New(Config{NumCPUs: 1})
	e.Spawn(0, "nested", func(p *Proc) {
		p.AdvanceUser(10)
		e.Run()
	})
	const want = "engine: Run called from inside a process"
	if r := recovered(e.Run); r != want {
		t.Fatalf("Run panicked with %v, want %q", r, want)
	}
}

// TestCloseReleasesParkedProcs: Close unwinds what Run left parked — idle
// daemons and the processes of a deadlock — without running them and without
// recording anything, twice is as good as once, and the engine is closed.
func TestCloseReleasesParkedProcs(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := New(Config{NumCPUs: 4, Seed: 1})
	segs := recordSegments(e)
	parkedWorld(e)
	cleanup := false
	never := NewSignal(e, "never")
	e.Spawn(2, "stuck", func(p *Proc) {
		p.AdvanceUser(50)
		never.Wait(p)
		cleanup = true // simulated user space past the wait: must not run
	})
	if r := recovered(e.Run); r == nil {
		t.Fatal("Run did not report the deadlock")
	}
	e.Spawn(2, "unstarted", func(p *Proc) { cleanup = true }) // no coroutine to release
	segments, now := len(*segs), e.Now()
	e.Close()
	e.Close()
	if cleanup {
		t.Error("Close resumed a blocked body past its wait")
	}
	if len(*segs) != segments || e.Now() != now || e.Crashed() != nil {
		t.Errorf("Close recorded something: %d→%d segments, now %d→%d, crashed %+v",
			segments, len(*segs), now, e.Now(), e.Crashed())
	}
	for _, p := range e.Procs() {
		if p.started && !p.done {
			t.Errorf("%s still parked after Close", p.Name())
		}
	}
	const closed = "engine: closed"
	if r := recovered(e.Run); r != closed {
		t.Errorf("Run after Close: %v, want panic %q", r, closed)
	}
	if r := recovered(func() { e.Spawn(0, "late", func(*Proc) {}) }); r != closed {
		t.Errorf("Spawn after Close: %v, want panic %q", r, closed)
	}
	waitGoroutines(t, baseline)
}

// stepAllocs measures the host allocations of one step of a process while a
// partner process does the same steps on another CPU, after a warm-up step.
func stepAllocs(e *Engine, step func(p *Proc)) float64 {
	measuring := true
	var allocs float64
	e.Spawn(0, "measured", func(p *Proc) {
		allocs = testing.AllocsPerRun(2000, func() { step(p) })
		measuring = false
	})
	e.Spawn(1, "partner", func(p *Proc) {
		for measuring {
			step(p)
		}
	})
	e.Run()
	return allocs
}

// TestHandoffZeroAllocs: BenchmarkHandoff's sync point — an Advance that moves
// the caller past the other process and hands the CPU over — allocates nothing.
func TestHandoffZeroAllocs(t *testing.T) {
	e := New(Config{NumCPUs: 2, Seed: 1})
	if n := stepAllocs(e, func(p *Proc) { p.AdvanceUser(10) }); n != 0 {
		t.Fatalf("%v allocs per yield handoff, want 0", n)
	}
}

// TestMutexHandoffZeroAllocs: BenchmarkMutexHandoff's — block on a contended
// simulated mutex, get unblocked by its holder — allocates nothing either.
func TestMutexHandoffZeroAllocs(t *testing.T) {
	e := New(Config{NumCPUs: 2, Seed: 1})
	mu := NewMutex(e, "m")
	n := stepAllocs(e, func(p *Proc) {
		mu.Lock(p)
		p.AdvanceSystem(50)
		mu.Unlock(p)
	})
	if n != 0 {
		t.Fatalf("%v allocs per mutex handoff, want 0", n)
	}
}

// spawnAllocBudget is what BenchmarkSpawnRun allocates per process: the Proc,
// and on first dispatch the run method value and iter.Pull's coroutine with
// its captured state (Go 1.24: 10 objects). The engine adds no closure of its
// own per process; a rise here is ours, or a toolchain change worth knowing.
const spawnAllocBudget = 13

func TestSpawnAllocBudget(t *testing.T) {
	e := New(Config{NumCPUs: 1, Seed: 1})
	n := testing.AllocsPerRun(500, func() {
		e.Spawn(0, "spawned", func(*Proc) {})
		e.Run()
	})
	if n > spawnAllocBudget {
		t.Fatalf("%v allocs per spawned-and-run process, budget %d", n, spawnAllocBudget)
	}
}
