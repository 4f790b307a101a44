package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// eventName is an EventNamer whose name is fixed.
type eventName string

func (n eventName) EventName() string { return string(n) }

// newEvent returns an armed event.
func newEvent() *Event {
	ev := new(Event)
	ev.Arm()
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
	arm := func() {
		if separate {
			cur = new(Event)
		}
		cur.Arm()
	}
	arm() // the fill
	e.Spawn(0, "owner", func(p *Proc) {
		p.AdvanceSystem(100)
		cur.Fire(p.Now())
		arm() // the claim; no yield since the Fire: the woken waiters have not run yet
		p.AdvanceSystem(200)
		cur.Fire(p.Now())
	})
	for i, arrive := range []uint64{10, 5} {
		e.Spawn(1+i, fmt.Sprintf("w%d", i), func(p *Proc) {
			p.AdvanceUser(arrive)
			for !cur.Fired() {
				log = append(log, fmt.Sprintf("%s waits at %d", p.Name(), p.Now()))
				cur.Wait(p, eventName("page"))
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
	ev.Arm()
	msg := func() (r any) {
		defer func() { r = recover() }()
		ev.Arm()
		return nil
	}()
	if want := "engine: arm of unfired event"; msg != want {
		t.Fatalf("second Arm panicked with %v, want %s", msg, want)
	}
	ev.Fire(7)
	ev.Fire(9) // idle: no effect
	if !ev.Fired() || ev.FiredAt() != 7 {
		t.Fatalf("after Fire(7), Fire(9): fired=%v at=%d", ev.Fired(), ev.FiredAt())
	}
	// Armed again, the diagnostic prints the name its waiter gave.
	ev.Arm()
	e := New(Config{NumCPUs: 1})
	e.Spawn(0, "waiter", func(p *Proc) { ev.Wait(p, eventName("claim")) })
	msg = func() (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	if want := "engine: deadlock, 1 blocked process(es): waiter(on event:claim)"; msg != want {
		t.Fatalf("Run panicked with %v, want %s", msg, want)
	}
}

// The waiters of one busy period queue in the order they arrive, and Fire
// releases that queue whole at the fire time and leaves the ring through
// Proc.waitNext empty; a second period queues and releases its own arrivals
// the same way. 1, 2 and 33 waiters, each arriving at a distinct cycle in the
// reverse of spawn order. (Woken procs run by clock and spawn id, so the
// queue itself is what shows the order.)
func TestEventReleasesWaitersInArrivalOrder(t *testing.T) {
	for _, n := range []int{1, 2, 33} {
		e := New(Config{NumCPUs: n + 1, Seed: 1})
		var ev Event
		var queued, woke []string
		// fire records the queue, oldest first, then ends the period.
		fire := func(p *Proc) {
			if q := ev.waiters; q.tail != nil {
				for w := q.head(); ; w = w.waitNext {
					queued = append(queued, w.Name())
					if w == q.tail {
						break
					}
				}
			}
			ev.Fire(p.Now())
		}
		ev.Arm()
		e.Spawn(0, "owner", func(p *Proc) {
			p.AdvanceSystem(1000)
			fire(p)
			ev.Arm()
			p.AdvanceSystem(1000)
			fire(p)
		})
		for i := 0; i < n; i++ {
			e.Spawn(1+i, fmt.Sprintf("w%d", i), func(p *Proc) {
				for range 2 {
					p.AdvanceUser(uint64(10 * (n - i))) // w(n-1) arrives first
					ev.Wait(p, eventName("page"))
					woke = append(woke, fmt.Sprintf("%s@%d", p.Name(), p.Now()))
				}
			})
		}
		e.Run()
		var wantQueued, wantWoke []string
		for _, at := range []int{1000, 2000} {
			for i := n - 1; i >= 0; i-- {
				wantQueued = append(wantQueued, fmt.Sprintf("w%d", i))
			}
			for i := 0; i < n; i++ {
				wantWoke = append(wantWoke, fmt.Sprintf("w%d@%d", i, at))
			}
		}
		if !slices.Equal(queued, wantQueued) {
			t.Fatalf("%d waiters: queued\n\t%s\nwant\n\t%s", n, strings.Join(queued, " "), strings.Join(wantQueued, " "))
		}
		if !slices.Equal(woke, wantWoke) {
			t.Fatalf("%d waiters: woken\n\t%s\nwant\n\t%s", n, strings.Join(woke, " "), strings.Join(wantWoke, " "))
		}
		if ev.waiters.tail != nil || !ev.Fired() || ev.FiredAt() != 2000 {
			t.Fatalf("%d waiters: after the last Fire tail=%v fired=%v at %d", n, ev.waiters.tail, ev.Fired(), ev.FiredAt())
		}
	}
}

// An Event is two words — the fire time and the waitq's tail — so a page
// record that embeds one stays in its size class (DESIGN.md §3 "Page
// records"): 16 bytes more moves core.Page from the 80-byte class to 96 and
// host.cachedPage from 96 to 112.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 16 {
		t.Fatalf("an Event is %d bytes, want 16: every page record embeds one (DESIGN.md §3 \"Page records\")", got)
	}
}

// Each waiter names its own wait, and the name lives on the proc only while
// it is blocked: a woken waiter keeps no owner reachable, so a page record
// that was waited on can be collected once the page is gone. Two waiters of
// one busy period that name it differently are each printed by the deadlock
// diagnostic with their own name.
func TestEventWaiterNamesTheWait(t *testing.T) {
	e := New(Config{NumCPUs: 3})
	ev := newEvent()
	woken := e.Spawn(0, "woken", func(p *Proc) { ev.Wait(p, eventName("fill")) })
	e.Spawn(1, "owner", func(p *Proc) {
		p.AdvanceSystem(100)
		ev.Fire(p.Now())
		ev.Arm()
	})
	e.Run()
	if woken.eventOwner != nil || woken.blockedOn != onNothing {
		t.Fatalf("after its wake the waiter still holds %v (on %d)", woken.eventOwner, woken.blockedOn)
	}
	for i, name := range []string{"aqio:f:3", "evict"} {
		e.Spawn(1+i, fmt.Sprintf("w%d", i), func(p *Proc) { ev.Wait(p, eventName(name)) })
	}
	msg := func() (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	if want := "engine: deadlock, 2 blocked process(es): w0(on event:aqio:f:3), w1(on event:evict)"; msg != want {
		t.Fatalf("Run panicked with %v, want %s", msg, want)
	}
	e.Close()
}

// BenchmarkEventArmFireWait: one busy period of an embedded event with one
// waiter parked on it — arm, wait, fire, wake. Nothing allocates.
func BenchmarkEventArmFireWait(b *testing.B) {
	e := New(Config{NumCPUs: 2, Seed: 1})
	var ev Event
	ev.Arm()
	e.Spawn(0, "owner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.AdvanceSystem(100)
			ev.Fire(p.Now())
			ev.Arm()
		}
		ev.Fire(p.Now())
	})
	e.Spawn(1, "waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ev.Wait(p, eventName("bench"))
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
