// Package obscli is the observability plumbing the command-line tools share:
// which sinks a tool's -trace / -metrics-json / -profile* flags ask for, how
// the profiler is handed to an engine, and the closing writes. The tools keep
// their own flag declarations (the help texts differ) and their own profile
// reports (per experiment in aquila-bench, per run in mmio-micro).
package obscli

import (
	"fmt"
	"io"

	"aquila/internal/obs"
	"aquila/internal/obs/profile"
)

// Sinks are the sinks one invocation records into; each is nil when no flag
// asked for it, and a nil sink costs the simulation nothing.
type Sinks struct {
	Tracer   *obs.Tracer
	Registry *obs.Registry
	Profiler *profile.Profiler

	tracePath, metricsPath string
}

// New builds a tracer when tracePath is set, a registry when metricsPath is
// set or something else needs one (aquila-bench's -report-dir), and a profiler
// when any -profile* flag was given.
func New(tracePath, metricsPath string, needRegistry, wantProfiler bool) *Sinks {
	s := &Sinks{tracePath: tracePath, metricsPath: metricsPath}
	if tracePath != "" {
		s.Tracer = obs.NewTracer()
	}
	if metricsPath != "" || needRegistry {
		s.Registry = obs.NewRegistry()
	}
	if wantProfiler {
		s.Profiler = profile.New()
	}
	return s
}

// SpanSink returns the profiler as the interface engines take: nil when not
// profiling, never a typed-nil *Profiler, which would defeat the engine's
// nil check.
func (s *Sinks) SpanSink() obs.SpanSink {
	if s.Profiler == nil {
		return nil
	}
	return s.Profiler
}

// Flush writes the trace and the metrics snapshot to the files the flags
// named, announcing each on w behind prefix. On failure it returns what it
// was writing ("trace", "metrics") with the error.
func (s *Sinks) Flush(w io.Writer, prefix string) (what string, err error) {
	if s.tracePath != "" {
		if err := obs.WriteTo(s.tracePath, s.Tracer.WriteChromeTrace); err != nil {
			return "trace", err
		}
		fmt.Fprintf(w, "%strace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", prefix, s.tracePath)
	}
	if s.metricsPath != "" {
		if err := obs.WriteTo(s.metricsPath, s.Registry.WriteJSON); err != nil {
			return "metrics", err
		}
		fmt.Fprintf(w, "%smetrics written to %s\n", prefix, s.metricsPath)
	}
	return "", nil
}
