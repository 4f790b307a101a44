package harness

import (
	"fmt"
	"slices"

	"aquila"
	"aquila/internal/core"
	"aquila/internal/obs"
	"aquila/internal/sim/device"
	simengine "aquila/internal/sim/engine"
)

// Harness-wide observability: cmd/aquila-bench calls Instrument once with a
// shared tracer and registry, and every System any experiment boots from then
// on reports into them. Each System gets a unique trace label
// ("<mode>.<seq>"), so several experiments can share one trace file and one
// metrics snapshot without their series colliding.

var (
	obsTracer *obs.Tracer
	obsReg    *obs.Registry
	obsProf   obs.SpanSink
	obsSeq    int

	// worlds holds the booted worlds no row has retired yet, instrumented or
	// not, in boot order: a world lives until its row retires it.
	worlds []world
	// retiredCycles sums the final clocks of the worlds retired since the
	// last TakeSimCycles call; worldsPeak is the most worlds alive at once
	// over the same stretch.
	retiredCycles uint64
	worldsPeak    int
)

// world is one booted world: its engine, the System around it unless it is a
// bare engine (bootEngine), and its device unless it is DRAM only.
type world struct {
	e   *simengine.Engine
	sys *aquila.System
	st  *device.Store
}

// Instrument routes all subsequently booted Systems into tr and reg (either
// may be nil). Pass nil, nil to turn instrumentation back off.
func Instrument(tr *obs.Tracer, reg *obs.Registry) {
	obsTracer, obsReg, obsSeq = tr, reg, 0
}

// InstrumentProfiler routes the lossless span stream of all subsequently
// booted Systems into sink (typically a *profile.Profiler). Independent of
// Instrument: profiling works without a tracer and vice versa. Trace labels
// stay deterministic because obsSeq is shared with Instrument; call
// Instrument first when combining the two.
func InstrumentProfiler(sink obs.SpanSink) {
	obsProf = sink
}

// boot creates a System, injecting the harness tracer/registry. An Aquila
// world that brings no Params runs with core.ParamsForCache(CacheBytes): the
// one place that rule lives, so a figure names Params only to change them (or
// to hand the same Options to aquila.Recover). With no instrumentation
// configured it is otherwise exactly aquila.New plus cycle tracking.
func boot(opts aquila.Options) *aquila.System {
	if opts.Mode == aquila.ModeAquila && opts.Params == nil {
		opts.Params = core.ParamsForCache(opts.CacheBytes)
	}
	if instrumented() {
		opts.Tracer = obsTracer
		opts.Registry = obsReg
		opts.Profiler = obsProf
		if opts.TraceLabel == "" {
			opts.TraceLabel = nextLabel(opts.Mode.String())
		}
	}
	sys := aquila.New(opts)
	track(world{sys.Sim, sys, sys.Store()})
	return sys
}

// bootEngine is boot for the worlds that need no aquila.System — a DRAM-only
// heap, a hand-wired host over a custom device: a bare engine, given the
// harness tracer, registry and profiler under a label of its own and tracked
// until retired like any other world. st is the device the world's host will
// drive (nil for a DRAM-only world), for retire to audit.
func bootEngine(cfg simengine.Config, label string, st *device.Store) *simengine.Engine {
	if instrumented() {
		cfg.Spans, cfg.Registry, cfg.Profile = obsTracer, obsReg, obsProf
		cfg.TraceLabel = nextLabel(label)
	}
	e := simengine.New(cfg)
	track(world{e: e, st: st})
	return e
}

// instrumented reports whether any harness sink is set: then every world
// booted gets them and a numbered label.
func instrumented() bool { return obsTracer != nil || obsReg != nil || obsProf != nil }

// track registers a freshly booted world.
func track(w world) {
	worlds = append(worlds, w)
	worldsPeak = max(worldsPeak, len(worlds))
}

// retire ends the life of the world around e, where its row's numbers have
// been taken: it adds the final clock to the running sum, publishes the
// System's end-of-run counters (fault stats, page-cache and device totals,
// final clock) into the registry it was booted with — a no-op uninstrumented —
// closes it, which releases the bg-evict daemons an AsyncEvict world leaves
// parked, and drops the reference. Every row retires its world before the
// next one boots, so one world is alive at a time and worlds publish in boot
// order. A world that did not crash must owe its device no durability point
// (device.Store.Owed): retire panics naming the block if it does.
func retire(e *simengine.Engine) {
	for i, w := range worlds {
		if w.e != e {
			continue
		}
		if w.st != nil && e.Crashed() == nil {
			if ow, owed := w.st.Owed(); owed {
				panic(fmt.Sprintf("harness: %v", ow))
			}
		}
		worlds = slices.Delete(worlds, i, i+1) // zeroes the vacated slot
		retiredCycles += e.Now()
		if w.sys != nil {
			w.sys.PublishStats()
		}
		e.Close()
		return
	}
}

// nextLabel numbers a world's trace label ("<kind>.<seq>").
func nextLabel(kind string) string {
	obsSeq++
	return fmt.Sprintf("%s.%d", kind, obsSeq)
}

// TakeSimCycles returns the summed final clocks of every world booted since
// the previous call, retiring first whatever a row left behind. The bench
// driver calls it once per experiment, after the experiment's last run, and
// reports the sum as the experiment's simulated cycles.
func TakeSimCycles() uint64 {
	for len(worlds) > 0 {
		retire(worlds[0].e)
	}
	total := retiredCycles
	retiredCycles, worldsPeak = 0, 0
	return total
}

// PublishAll surfaces the tracer's ring-buffer losses as aq.obs.spans_dropped:
// a nonzero value warns that the Chrome trace is a window, not the whole run
// (the profiler sink is lossless). Call once after the experiments finish,
// before snapshotting; the worlds' own counters were published as their rows
// retired them.
func PublishAll() {
	if obsTracer != nil && obsReg != nil {
		obsReg.Counter("aq.obs.spans_dropped").Set(obsTracer.Dropped())
	}
}

// subMap returns after-before per category (clamped at zero), dropping empty
// categories: the per-phase delta of a cumulative breakdown.
func subMap(after, before map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(after))
	for k, v := range after {
		if b, ok := before[k]; ok {
			if v <= b {
				continue
			}
			v -= b
		}
		if v > 0 {
			out[k] = v
		}
	}
	return out
}

// safeDiv is a/b with 0 for an empty denominator (reports must not carry
// NaN/Inf — encoding/json rejects them).
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sumMap(m map[string]uint64) uint64 {
	var t uint64
	for _, v := range m {
		t += v
	}
	return t
}
