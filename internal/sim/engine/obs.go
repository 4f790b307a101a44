package engine

import (
	"fmt"

	"aquila/internal/obs"
)

// Span tracing (internal/obs) is the engine's one trace: scheduler segments
// beside the named, cycle-attributed spans opened and closed by simulated
// code (fault handlers, eviction, device I/O). The engine contributes two
// track groups to a shared tracer:
//
//   - "<label>/cpus":  one track per simulated CPU, holding scheduler
//     segments ("sched" category) showing which process occupied the CPU.
//   - "<label>/procs": one track per process, holding the nested spans the
//     process itself opened via BeginSpan/EndSpan ("span" category). Spans
//     live on per-process tracks because processes sharing a CPU overlap in
//     simulated time, which the trace-event format cannot nest on one track.
//
// Everything is nil-safe: with Config.Spans unset the per-call cost is one
// pointer comparison and no allocation.

type spanFrame struct {
	name  string
	begin uint64
}

// Metrics returns the registry every layer of this world reports into and
// the labels its series carry: world=<TraceLabel> when a label was given,
// none otherwise. The registry is never nil.
func (e *Engine) Metrics() (*obs.Registry, []obs.Label) { return e.cfg.Registry, e.labels }

// registerObs attaches the configured span tracer to a freshly built engine.
func (e *Engine) registerObs() {
	if e.spans == nil {
		return
	}
	e.pidCPU = e.spans.RegisterProcess(e.cfg.TraceLabel + "/cpus")
	e.pidProc = e.spans.RegisterProcess(e.cfg.TraceLabel + "/procs")
	for _, c := range e.cpus {
		e.spans.SetThreadName(e.pidCPU, c.ID, fmt.Sprintf("cpu%d", c.ID))
	}
}

// BeginSpan opens a named span on this process's trace track at the current
// simulated cycle. Spans nest; close with EndSpan. With both tracing and
// profiling disabled the call is a no-op costing two nil checks, and it
// never consumes simulated time.
func (p *Proc) BeginSpan(name string) {
	p.checkSpanCrash(name)
	if p.e.spans == nil && p.e.prof == nil {
		return
	}
	p.spanStack = append(p.spanStack, spanFrame{name: name, begin: p.now})
}

// EndSpan closes the innermost open span, emitting it to the tracer (ring
// buffered) and to the profiler sink (lossless, with the full open-span
// path). Calling it with no open span is a no-op, so instrumented code can
// defer it safely.
func (p *Proc) EndSpan() {
	n := len(p.spanStack)
	if (p.e.spans == nil && p.e.prof == nil) || n == 0 {
		return
	}
	fr := p.spanStack[n-1]
	if p.e.prof != nil {
		p.e.prof.ConsumeSpan(p.trackName(), p.cpu, p.spanPath(n), fr.begin, p.now)
	}
	p.spanStack = p.spanStack[:n-1]
	if p.e.spans != nil {
		p.e.spans.Add(obs.Span{
			Name: fr.name, Cat: "span",
			PID: p.e.pidProc, TID: p.id, Proc: p.name,
			Begin: fr.begin, End: p.now,
		})
	}
}

// SpanEvent attributes n occurrences of a named event (a fault of a given
// class, a shootdown batch, written-back pages) to the innermost open span,
// feeding the profiler's per-call-path event breakdown. With profiling
// disabled the call is one nil check; it never consumes simulated time.
func (p *Proc) SpanEvent(event string, n uint64) {
	if p.e.prof == nil || n == 0 {
		return
	}
	p.e.prof.ConsumeEvent(p.trackName(), p.cpu, p.spanPath(len(p.spanStack)), event, n)
}

// spanPath copies the first n open-span names, outermost first.
func (p *Proc) spanPath(n int) []string {
	path := make([]string, n)
	for i := 0; i < n; i++ {
		path[i] = p.spanStack[i].name
	}
	return path
}

// trackName lazily builds the process's profiler track id
// ("<label>/<proc>"), matching the tracer's track-group naming.
func (p *Proc) trackName() string {
	if p.track == "" {
		p.track = p.e.cfg.TraceLabel + "/" + p.name
	}
	return p.track
}

// obsSchedSegment mirrors a scheduler segment onto the per-CPU track group.
func (e *Engine) obsSchedSegment(p *Proc, start uint64) {
	e.spans.Add(obs.Span{
		Name: p.name, Cat: "sched",
		PID: e.pidCPU, TID: p.cpu, Proc: p.name,
		Begin: start, End: p.now,
	})
}

// segment is one closed scheduler segment as Engine.segs records it.
type segment struct {
	p          *Proc
	start, end uint64
	outcome    batonKind
}

// traceSegment closes the running process's scheduler segment, which began
// at e.segStart. Empty segments are not recorded.
func (e *Engine) traceSegment(p *Proc, outcome batonKind) {
	start := e.segStart
	if p.now == start {
		return
	}
	if e.spans != nil {
		e.obsSchedSegment(p, start)
	}
	if e.segs != nil {
		*e.segs = append(*e.segs, segment{p, start, p.now, outcome})
	}
}
