package device

import "aquila/internal/obs"

// Device observability: each instrumented device gets one trace track
// (category "dev") showing queue wait vs service time per I/O, plus
// registry histograms and counters. Timing is never affected — the hook
// only observes the (now, start, completion) triple Submit already computes.

// devObs holds a device's tracer track and registry metrics. A nil devObs
// is a no-op, so Submit stays allocation-free when instrumentation is off.
type devObs struct {
	tr       *obs.Tracer
	pid, tid int
	reg      *obs.Registry
	name     string
	queue    *obs.Histogram
	service  *obs.Histogram
	reads    *obs.Counter
	writes   *obs.Counter
}

func newDevObs(tr *obs.Tracer, pid, tid int, reg *obs.Registry, name string) *devObs {
	o := &devObs{tr: tr, pid: pid, tid: tid, reg: reg, name: name}
	o.reads = reg.Counter("dev_reads", obs.L("dev", name))
	o.writes = reg.Counter("dev_writes", obs.L("dev", name))
	if reg != nil {
		o.queue = reg.Histogram("dev_queue_cycles", obs.L("dev", name))
		o.service = reg.Histogram("dev_service_cycles", obs.L("dev", name))
	}
	return o
}

// record attributes one I/O: [now, start) queued, [start, completion) in
// service. Zero-length phases are recorded in histograms but not traced.
func (o *devObs) record(now, start, completion uint64, write bool) {
	if o == nil {
		return
	}
	if write {
		o.writes.Inc()
	} else {
		o.reads.Inc()
	}
	if o.queue != nil {
		o.queue.Record(start - now)
		o.service.Record(completion - start)
	}
	if o.tr == nil {
		return
	}
	if start > now {
		o.tr.Add(obs.Span{
			Name: "queue", Cat: "dev",
			PID: o.pid, TID: o.tid, Begin: now, End: start,
		})
	}
	if completion > start {
		name := "read"
		if write {
			name = "write"
		}
		o.tr.Add(obs.Span{
			Name: name, Cat: "dev",
			PID: o.pid, TID: o.tid, Begin: start, End: completion,
		})
	}
}

// fault records one injected fault: a per-kind dev_faults_injected counter
// and a "dev.fault" span on the device's track (instant-like; latency spikes
// stretch to their extra delay so the stall is visible in the trace).
func (o *devObs) fault(now uint64, kind string, delay uint64) {
	if o == nil {
		return
	}
	o.reg.Counter("dev_faults_injected", obs.L("dev", o.name), obs.L("kind", kind)).Inc()
	if o.tr == nil {
		return
	}
	end := now + 1
	if delay > 0 {
		end = now + delay
	}
	o.tr.Add(obs.Span{
		Name: "fault:" + kind, Cat: "dev.fault",
		PID: o.pid, TID: o.tid, Begin: now, End: end,
	})
}

// Instrument attaches a trace track and registry metrics to the device the
// store belongs to: its I/Os (Submit) and its injected faults, whether the
// fault plan came before or after. pid/tid locate the device's track in the
// shared tracer; name labels the registry series. Either tr or reg may be nil.
func (s *Store) Instrument(tr *obs.Tracer, pid, tid int, reg *obs.Registry, name string) {
	s.obs = newDevObs(tr, pid, tid, reg, name)
}
