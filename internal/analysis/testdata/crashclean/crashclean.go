// Package world is the crashclean golden: code on simulated threads must
// not call recover — the engine performs the one sanctioned recover, and
// anything else could absorb the crash panic-sentinel — and must not register
// deferred user-space cleanup — defers run during crash unwinding, and a
// simulated power cut must leave locks, waitgroups and handles exactly as
// they were.
package world

// Proc, Mutex and WaitGroup mirror the engine's simulated primitives.
type Proc struct{}

func (p *Proc) EndSpan() {}

type Mutex struct{}

func (m *Mutex) Lock(p *Proc)   {}
func (m *Mutex) Unlock(p *Proc) {}

type WaitGroup struct{}

func (w *WaitGroup) Done(p *Proc) {}

// SigBus is a concrete locally-owned panic value.
type SigBus struct{ VA uint64 }

func deferredUnlock(p *Proc, mu *Mutex) {
	mu.Lock(p)
	defer mu.Unlock(p) // want "deferred Unlock"
	step()
}

func deferredDone(p *Proc, wg *WaitGroup) {
	defer wg.Done(p) // want "deferred Done"
	step()
}

func inlineCleanupOK(p *Proc, mu *Mutex) {
	mu.Lock(p)
	step()
	mu.Unlock(p)
}

// deferredSpanOK: the span stack is engine-owned and crash-tolerant.
func deferredSpanOK(p *Proc) {
	defer p.EndSpan()
	step()
}

func deferredLitCleanup(p *Proc, wg *WaitGroup) {
	defer func() { // want "Done.. inside a deferred func"
		wg.Done(p)
	}()
	step()
}

// deferredLitBookkeepingOK: a deferred literal that only mutates fields is
// crash-indifferent bookkeeping.
func deferredLitBookkeepingOK() {
	n := 0
	defer func() { n-- }()
	_ = n
}

func recoverSwallows() {
	defer func() {
		if r := recover(); r != nil { // want "absorb the crash panic-sentinel"
			step()
		}
	}()
	step()
}

// recoverRepanics handles nil and the concrete local type and re-panics
// everything else, the sentinel included — and is still a finding: the ban
// does not read what follows the call.
func recoverRepanics() {
	defer func() {
		r := recover() // want "only the engine recovers"
		if r == nil {
			return
		}
		sb, ok := r.(*SigBus)
		if !ok {
			panic(r)
		}
		handle(sb)
	}()
	step()
}

// recoverAssert: a panicking assertion would re-raise a foreign value.
func recoverAssert() {
	defer func() {
		r := recover() // want "only the engine recovers"
		if r == nil {
			return
		}
		handle(r.(*SigBus))
	}()
	step()
}

// recoverTypeSwitch: concrete cases, the nil case, default re-panics.
func recoverTypeSwitch() {
	defer func() {
		r := recover() // want "only the engine recovers"
		switch r.(type) {
		case nil:
		case *SigBus:
			step()
		default:
			panic(r)
		}
	}()
	step()
}

func recoverDiscarded() {
	defer func() {
		recover() // want "absorb the crash panic-sentinel"
	}()
	step()
}

// recoverOutsideDefer is inert at run time and banned all the same.
func recoverOutsideDefer() {
	_ = recover() // want "only the engine recovers"
}

func step()          {}
func handle(*SigBus) {}
