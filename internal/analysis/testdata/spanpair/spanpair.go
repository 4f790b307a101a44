// Package spans is the spanpair golden: a BeginSpan must be closed by what
// directly follows it — `defer X.EndSpan()` as the next statement, or one
// simple statement and then `X.EndSpan()`. Findings anchor at the BeginSpan.
package spans

type Proc struct{}

func (p *Proc) BeginSpan(name string) {}
func (p *Proc) EndSpan()              {}

type world struct{ p, q *Proc }

func deferred(p *Proc) {
	p.BeginSpan("work")
	defer p.EndSpan()
	if bad() {
		return // covered by the defer
	}
}

func bracketCall(p *Proc) {
	p.BeginSpan("work")
	step()
	p.EndSpan()
}

func bracketAssign(w *world) error {
	w.p.BeginSpan("io")
	err := io()
	w.p.EndSpan()
	return err
}

func bracketInBranch(p *Proc, n int) {
	for i := 0; i < n; i++ {
		if bad() {
			p.BeginSpan("retry")
			step()
			p.EndSpan()
		}
	}
	switch n {
	case 1:
		p.BeginSpan("one")
		defer p.EndSpan()
	}
}

func earlyReturnLeak(p *Proc) {
	p.BeginSpan("work") // want "not closed by the next statement"
	if bad() {
		return
	}
	p.EndSpan()
}

func fallOffLeak(p *Proc) {
	p.BeginSpan("work") // want "not closed by the next statement"
	step()
}

// branchBalanced closes the span on every path, but not by adjacency: the
// rule does not follow branches.
func branchBalanced(p *Proc) {
	p.BeginSpan("work") // want "not closed by the next statement"
	if bad() {
		p.EndSpan()
		return
	}
	p.EndSpan()
}

func errReturnInBracket(p *Proc) error {
	p.BeginSpan("io") // want "not closed by the next statement"
	err := io()
	if err != nil {
		return err
	}
	p.EndSpan()
	return nil
}

func twoStatements(p *Proc) {
	p.BeginSpan("work") // want "not closed by the next statement"
	step()
	step()
	p.EndSpan()
}

func emptyBracket(p *Proc) {
	p.BeginSpan("work") // want "not closed by the next statement"
	p.EndSpan()
}

func lateDefer(p *Proc) {
	p.BeginSpan("work") // want "not closed by the next statement"
	step()
	defer p.EndSpan()
}

func wrongReceiver(w *world) {
	w.p.BeginSpan("work") // want "span begun with w.p.BeginSpan"
	defer w.q.EndSpan()
	w.q.BeginSpan("io") // want "span begun with w.q.BeginSpan"
	step()
	w.p.EndSpan()
}

func nestedLiteralIsOwnList(p *Proc) {
	p.BeginSpan("outer")
	defer p.EndSpan()
	f := func() {
		p.BeginSpan("inner") // want "not closed by the next statement"
		step()
	}
	f()
}

// handoff: a span that crosses the function boundary has no escape hatch.
func handoff(p *Proc) {
	p.BeginSpan("async") // want "not closed by the next statement"
}

func bad() bool { return false }
func step()     {}
func io() error { return nil }
