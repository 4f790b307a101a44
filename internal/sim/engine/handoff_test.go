package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The tests in this file pin the engine's observable scheduling contract —
// the exact segment sequence, the final clocks and accounting, where the
// deadlock panic surfaces, and that a crash leaves no goroutine behind — so
// the baton-passing mechanism underneath can change without the simulation
// noticing. The goldens were captured from the scheduler-loop engine.

// scriptedScenario runs four processes and a daemon through every way a
// process can leave the CPU: a yield to an earlier process, a WaitUntil that
// resumes the caller itself, a contended mutex handoff, an event wait, a
// spawn from inside a process, and a daemon that stays parked across two Run
// calls. It returns the trace as one line per segment followed by one line
// per process with its final clock and accounting.
func scriptedScenario(perturb uint64) []string {
	e := New(Config{NumCPUs: 4, Seed: 1, SchedPerturb: perturb})
	segs := recordSegments(e)
	mu := NewMutex(e, "mu")
	ev := newEvent()
	sig := NewSignal(e, "sig")
	e.SpawnDaemon(3, "daemon", func(p *Proc) {
		for {
			sig.Wait(p)
			p.AdvanceSystem(100)
		}
	})
	e.Spawn(0, "a", func(p *Proc) {
		p.AdvanceUser(100)
		mu.Lock(p)
		p.AdvanceSystem(300)
		mu.Unlock(p)
		p.SleepIO(40) // b is runnable earlier: hands off
		p.AdvanceUser(5000)
		p.SleepIO(7000) // everyone else is blocked or later: resumes itself
		ev.Fire(p.Now())
		p.AdvanceUser(25)
	})
	e.Spawn(1, "b", func(p *Proc) {
		p.AdvanceUser(100) // ties with a at cycle 100
		mu.Lock(p)         // contended under either tie-break
		p.AdvanceSystem(50)
		mu.Unlock(p)
		ev.Wait(p, eventName("ev"))
		p.AdvanceUser(10)
		e.Spawn(2, "c", func(c *Proc) {
			c.AdvanceUser(70)
			c.Yield()
			c.AdvanceUser(30)
			sig.Set(c.Now())
		})
		p.AdvanceUser(70) // ties with c
		p.Yield()
		p.AdvanceSystem(5)
	})
	e.Run()
	e.Spawn(0, "late", func(p *Proc) {
		p.AdvanceUser(10)
		sig.Set(p.Now())
		p.SleepIO(500)
	})
	e.Run()

	var out []string
	for _, s := range *segs {
		out = append(out, fmt.Sprintf("%s#%d cpu%d %d-%d %s", s.p.name, s.p.id, s.p.cpu, s.start, s.end, s.outcome))
	}
	for _, p := range e.Procs() {
		out = append(out, fmt.Sprintf("%s now=%d user=%d system=%d iowait=%d lockwait=%d", p.Name(), p.Now(),
			p.Accounted(KindUser), p.Accounted(KindSystem), p.Accounted(KindIOWait), p.Accounted(KindLockWait)))
	}
	return out
}

var scriptedGolden = map[uint64][]string{
	7: {
		"b#2 cpu1 0-100 yield",
		"a#1 cpu0 0-100 yield",
		"b#2 cpu1 100-120 yield",
		"a#1 cpu0 100-120 yield",
		"b#2 cpu1 120-170 yield",
		"a#1 cpu0 290-630 yield",
		"a#1 cpu0 630-12630 yield",
		"a#1 cpu0 12630-12655 yield",
		"b#2 cpu1 12630-12710 yield",
		"c#3 cpu2 12640-12710 yield",
		"b#2 cpu1 12710-12715 yield",
		"c#3 cpu2 12710-12740 yield",
		"daemon#0 cpu3 12740-12840 block",
		"late#4 cpu0 0-13165 yield",
		"daemon#0 cpu3 12840-12940 block",
		"daemon now=12940 user=0 system=200 iowait=12740 lockwait=0",
		"a now=12655 user=5125 system=320 iowait=7040 lockwait=170",
		"b now=12715 user=180 system=75 iowait=12460 lockwait=0",
		"c now=12740 user=100 system=0 iowait=0 lockwait=0",
		"late now=13165 user=10 system=0 iowait=500 lockwait=12655",
	},
	0: {
		"a#1 cpu0 0-100 yield",
		"b#2 cpu1 0-100 yield",
		"a#1 cpu0 100-120 yield",
		"b#2 cpu1 100-120 yield",
		"a#1 cpu0 120-420 yield",
		"a#1 cpu0 420-460 yield",
		"a#1 cpu0 460-5460 yield",
		"b#2 cpu1 540-590 block",
		"a#1 cpu0 5460-12460 yield",
		"a#1 cpu0 12460-12485 yield",
		"b#2 cpu1 12460-12540 yield",
		"c#3 cpu2 12470-12540 yield",
		"b#2 cpu1 12540-12545 yield",
		"c#3 cpu2 12540-12570 yield",
		"daemon#0 cpu3 12570-12670 block",
		"late#4 cpu0 0-12995 yield",
		"daemon#0 cpu3 12670-12770 block",
		"daemon now=12770 user=0 system=200 iowait=12570 lockwait=0",
		"a now=12485 user=5125 system=320 iowait=7040 lockwait=0",
		"b now=12545 user=180 system=75 iowait=11870 lockwait=420",
		"c now=12570 user=100 system=0 iowait=0 lockwait=0",
		"late now=12995 user=10 system=0 iowait=500 lockwait=12485",
	},
}

func TestScriptedScenarioGolden(t *testing.T) {
	for perturb, want := range scriptedGolden {
		got := scriptedScenario(perturb)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("SchedPerturb=%d: schedule drifted from the golden.\ngot:\n%s\nwant:\n%s",
				perturb, goLines(got), goLines(want))
		}
	}
}

// goLines renders lines as the body of a Go string-slice literal.
func goLines(lines []string) string {
	var b strings.Builder
	for _, l := range lines {
		fmt.Fprintf(&b, "\t\t%q,\n", l)
	}
	return b.String()
}

// TestDeadlockPanicOnRunCaller pins where the deadlock diagnostic surfaces:
// on the goroutine that called Run (so a harness can recover it), naming each
// blocked process and the primitive it waits on.
func TestDeadlockPanicOnRunCaller(t *testing.T) {
	e := New(Config{NumCPUs: 4})
	mu := NewMutex(e, "m")
	rw := NewRWMutex(e, "rw")
	wg := NewWaitGroup(e, "wg")
	wg.Add(1)
	e.Spawn(0, "holder", func(p *Proc) {
		mu.Lock(p)
		rw.Lock(p)
		wg.Wait(p)
	})
	e.Spawn(1, "locker", func(p *Proc) {
		p.AdvanceUser(10)
		mu.Lock(p)
	})
	e.Spawn(2, "reader", func(p *Proc) {
		p.AdvanceUser(20)
		rw.RLock(p)
	})
	e.Spawn(3, "writer", func(p *Proc) {
		p.AdvanceUser(30)
		rw.Lock(p)
	})
	e.SpawnDaemon(3, "idle", func(p *Proc) { NewSignal(e, "never").Wait(p) })
	msg := func() (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	const want = "engine: deadlock, 5 blocked process(es): holder(on waitgroup:wg), locker(on mutex:m), " +
		"reader(on rwmutex:rw:r), writer(on rwmutex:rw:w), idle(on signal:never)"
	if msg != want {
		t.Fatalf("Run panicked with\n\t%v\nwant\n\t%s", msg, want)
	}
	ev := newEvent()
	e2 := New(Config{NumCPUs: 1})
	e2.Spawn(0, "waiter", func(p *Proc) { ev.Wait(p, eventName("e")) })
	msg = func() (r any) {
		defer func() { r = recover() }()
		e2.Run()
		return nil
	}()
	if want := "engine: deadlock, 1 blocked process(es): waiter(on event:e)"; msg != want {
		t.Fatalf("Run panicked with %v, want %s", msg, want)
	}
}

// waitGoroutines polls until the goroutine count is back at (or below) the
// baseline: a finished process's goroutine exits just after its last handoff,
// which Run does not wait for.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive, baseline %d: a process outlived the run", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
	}
}

// TestCrashMidHandoffDrainsEveryProc fires the crash while processes are
// parked at every kind of resume point (yielded, blocked on a mutex, a parked
// daemon): every goroutine must unwind, a later Run must return at once, and
// Now() must read the crash cycle.
func TestCrashMidHandoffDrainsEveryProc(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := New(Config{NumCPUs: 8, Seed: 1})
	e.ArmCrash(CrashConfig{AtCycle: 5000})
	mu := NewMutex(e, "m")
	sig := NewSignal(e, "s")
	e.SpawnDaemon(7, "daemon", func(p *Proc) {
		for {
			sig.Wait(p)
		}
	})
	for i := 0; i < 4; i++ {
		e.Spawn(i, "pingpong", func(p *Proc) {
			for {
				p.AdvanceUser(7)
			}
		})
	}
	for i := 4; i < 6; i++ {
		e.Spawn(i, "locker", func(p *Proc) {
			for {
				mu.Lock(p)
				p.AdvanceSystem(900)
				mu.Unlock(p)
			}
		})
	}
	e.Run()
	info := e.Crashed()
	if info == nil || info.Reason != "cycle" || info.Cycle != 5000 {
		t.Fatalf("Crashed() = %+v, want cycle crash at 5000", info)
	}
	if e.Now() != 5000 {
		t.Errorf("Now() = %d after the crash, want the crash cycle 5000", e.Now())
	}
	for _, p := range e.Procs() {
		if !p.started || !p.done {
			t.Errorf("%s started=%v done=%v: not drained", p.Name(), p.started, p.done)
		}
	}
	waitGoroutines(t, baseline)
	ran := false
	e.Spawn(0, "after", func(p *Proc) { ran = true })
	e.Run() // the machine is dead: returns at once, runs nothing
	if ran {
		t.Error("Run executed a process on a crashed engine")
	}
	waitGoroutines(t, baseline)
}

// TestCrashSegmentOutcome pins the label of a segment ended by a crash.
func TestCrashSegmentOutcome(t *testing.T) {
	e := New(Config{NumCPUs: 1})
	segs := recordSegments(e)
	e.Spawn(0, "w", func(p *Proc) {
		p.AdvanceUser(700)
		e.CrashNow("test")
	})
	e.Run()
	if s := *segs; len(s) != 1 || s[0].outcome != batonCrash || s[0].start != 0 || s[0].end != 700 {
		t.Fatalf("segments = %+v, want one 0-700 segment with outcome crash", s)
	}
}

// The benchmarks measure the engine layer alone (no world on top): one
// iteration is one sync point of the named kind.

// BenchmarkHandoff: two processes advancing in lockstep, so every Advance
// moves the caller past the other and hands the CPU over.
func BenchmarkHandoff(b *testing.B) {
	e := New(Config{NumCPUs: 2, Seed: 1})
	for c := 0; c < 2; c++ {
		e.Spawn(c, "pingpong", func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				p.AdvanceUser(10)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkHandoff32: 32 processes on 32 CPUs advancing in lockstep, the
// width fault-cold-32t runs at: every Advance moves the caller past the other
// 31, and the run queue it sifts through holds 31.
func BenchmarkHandoff32(b *testing.B) {
	const procs = 32
	e := New(Config{NumCPUs: procs, Seed: 1})
	for c := 0; c < procs; c++ {
		e.Spawn(c, "lockstep", func(p *Proc) {
			for i := 0; i < b.N/procs; i++ {
				p.AdvanceUser(10)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkMutexHandoff: two processes contending for one simulated mutex;
// every iteration blocks one and unblocks the other.
func BenchmarkMutexHandoff(b *testing.B) {
	e := New(Config{NumCPUs: 2, Seed: 1})
	mu := NewMutex(e, "bench")
	for c := 0; c < 2; c++ {
		e.Spawn(c, "locker", func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				mu.Lock(p)
				p.AdvanceSystem(50)
				mu.Unlock(p)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkSpawnRun: spawn one empty process and run it to completion.
func BenchmarkSpawnRun(b *testing.B) {
	e := New(Config{NumCPUs: 1, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Spawn(0, "spawned", func(*Proc) {})
		e.Run()
	}
}
