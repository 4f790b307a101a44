package engine

import (
	"encoding/json"
	"fmt"
	"io"
)

// Tracing records per-process execution segments in simulated time and
// exports them in the Chrome trace-event format (chrome://tracing /
// https://ui.perfetto.dev), one track per simulated CPU. Enable with
// Config.Trace; segments are captured between scheduling points, so the
// trace shows exactly how simulated threads interleave, block and contend.

// TraceEvent is one captured execution segment.
type TraceEvent struct {
	Proc   string
	ProcID int
	CPU    int
	Start  uint64 // cycles
	End    uint64 // cycles
	// Outcome records how the segment ended: "yield" (still runnable, another
	// process goes first — or a WaitUntil resumed the process itself),
	// "block" (suspended on a primitive), "done" (body returned), "crash"
	// (unwound by the crash that killed the machine).
	Outcome string
}

// tracer accumulates events while enabled.
type tracer struct {
	events []TraceEvent
}

// Trace returns the captured events (empty unless Config.Trace was set).
func (e *Engine) Trace() []TraceEvent {
	if e.tr == nil {
		return nil
	}
	return e.tr.events
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
	if e.tr == nil {
		return
	}
	e.tr.events = append(e.tr.events, TraceEvent{
		Proc: p.name, ProcID: p.id, CPU: p.cpu,
		Start: start, End: p.now, Outcome: outcome.String(),
	})
}

// chromeEvent is the trace-event-format record.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace serializes the captured trace as a Chrome trace-event
// JSON array: timestamps in microseconds at the 2.4 GHz testbed clock, one
// thread track per simulated CPU.
func (e *Engine) WriteChromeTrace(w io.Writer) error {
	const cyclesPerMicro = 2400.0
	out := make([]chromeEvent, 0, len(e.Trace())+e.NumCPUs())
	for c := 0; c < e.NumCPUs(); c++ {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: c,
			Args: map[string]any{"name": fmt.Sprintf("cpu%d", c)},
		})
	}
	for _, ev := range e.Trace() {
		out = append(out, chromeEvent{
			Name: ev.Proc, Ph: "X",
			Ts:  float64(ev.Start) / cyclesPerMicro,
			Dur: float64(ev.End-ev.Start) / cyclesPerMicro,
			PID: 1, TID: ev.CPU,
			Args: map[string]any{"proc": ev.ProcID, "end": ev.Outcome},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
