package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// newEvent returns an armed event with a fixed name.
func newEvent(name string) *Event {
	ev := new(Event)
	ev.Arm(Name(name))
	return ev
}

// busyPeriods runs one owner through two back-to-back busy periods — a fill
// that fires at cycle 100 and a claim armed in the same step that fires at
// 300 — with two waiters that arrive during the fill in the opposite order to
// their spawn ids. With separate the periods are two events behind a pointer
// the owner swaps (how a page carried its io before it embedded one); without,
// one event is armed twice. It returns every wait and wake-up in order.
func busyPeriods(separate bool) []string {
	e := New(Config{NumCPUs: 3, Seed: 1})
	var log []string
	one := new(Event)
	cur := one
	arm := func(name string) {
		if separate {
			cur = new(Event)
		}
		cur.Arm(Name(name))
	}
	arm("fill")
	e.Spawn(0, "owner", func(p *Proc) {
		p.AdvanceSystem(100)
		cur.Fire(p.Now())
		arm("claim") // no yield since the Fire: the woken waiters have not run yet
		p.AdvanceSystem(200)
		cur.Fire(p.Now())
	})
	for i, arrive := range []uint64{10, 5} {
		e.Spawn(1+i, fmt.Sprintf("w%d", i), func(p *Proc) {
			p.AdvanceUser(arrive)
			for !cur.Fired() {
				log = append(log, fmt.Sprintf("%s waits at %d", p.Name(), p.Now()))
				cur.Wait(p)
			}
			log = append(log, fmt.Sprintf("%s through at %d", p.Name(), p.Now()))
		})
	}
	e.Run()
	return log
}

func TestEventRearmKeepsTwoEventsWakeOrder(t *testing.T) {
	got, want := busyPeriods(false), busyPeriods(true)
	if !slices.Equal(got, want) {
		t.Fatalf("one re-armed event:\n\t%s\ntwo events:\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
	// Both waiters were woken by the fill's Fire, found the claim armed, waited
	// again in the order they ran, and were released by the claim in that order.
	tail := []string{"w0 waits at 100", "w1 waits at 100", "w0 through at 300", "w1 through at 300"}
	if len(got) != 6 || !slices.Equal(got[2:], tail) {
		t.Fatalf("log\n\t%s\nwant it to end\n\t%s", strings.Join(got, "\n\t"), strings.Join(tail, "\n\t"))
	}
}

func TestEventArmOfUnfiredPanics(t *testing.T) {
	var ev Event
	if !ev.Fired() || ev.FiredAt() != 0 {
		t.Fatalf("zero event: fired=%v at=%d, want idle at 0", ev.Fired(), ev.FiredAt())
	}
	ev.Arm(Name("fill"))
	msg := func() (r any) {
		defer func() { r = recover() }()
		ev.Arm(Name("claim"))
		return nil
	}()
	if want := `engine: arm of unfired event "fill"`; msg != want {
		t.Fatalf("second Arm panicked with %v, want %s", msg, want)
	}
	ev.Fire(7)
	ev.Fire(9) // idle: no effect
	if !ev.Fired() || ev.FiredAt() != 7 {
		t.Fatalf("after Fire(7), Fire(9): fired=%v at=%d", ev.Fired(), ev.FiredAt())
	}
	// Armed again, the diagnostic names the new period.
	ev.Arm(Name("claim"))
	e := New(Config{NumCPUs: 1})
	e.Spawn(0, "waiter", func(p *Proc) { ev.Wait(p) })
	msg = func() (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	if want := "engine: deadlock, 1 blocked process(es): waiter(on event:claim)"; msg != want {
		t.Fatalf("Run panicked with %v, want %s", msg, want)
	}
}

// BenchmarkEventArmFireWait: one busy period of an embedded event with one
// waiter parked on it — arm, wait, fire, wake. Nothing allocates.
func BenchmarkEventArmFireWait(b *testing.B) {
	e := New(Config{NumCPUs: 2, Seed: 1})
	var ev Event
	ev.Arm(Name("bench"))
	e.Spawn(0, "owner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.AdvanceSystem(100)
			ev.Fire(p.Now())
			ev.Arm(Name("bench"))
		}
		ev.Fire(p.Now())
	})
	e.Spawn(1, "waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ev.Wait(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
