package harness

import (
	"bytes"
	"strings"
	"testing"

	"aquila/internal/obs"
	simengine "aquila/internal/sim/engine"
)

// TestFig8aReportCoverage runs the fig8a experiment instrumented and checks
// the acceptance property of the machine-readable report: the breakdown
// categories must account for at least 95% of the total measured fault
// cycles, and the shared tracer/registry must have collected the run.
func TestFig8aReportCoverage(t *testing.T) {
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	Instrument(tr, reg)
	defer Instrument(nil, nil)

	e, ok := Find("fig8a")
	if !ok {
		t.Fatal("fig8a not registered")
	}
	rs := e.Run(testScale)
	if len(rs) == 0 || rs[0].Report == nil {
		t.Fatal("fig8a produced no report")
	}
	rep := rs[0].Report
	if rep.Schema != obs.ReportSchemaVersion {
		t.Errorf("schema = %d, want %d", rep.Schema, obs.ReportSchemaVersion)
	}
	if rep.Ops == 0 || rep.TotalCycles == 0 {
		t.Fatalf("report missing measurements: %+v", rep)
	}
	if c := rep.Coverage(); c < 0.95 || c > 1.0 {
		t.Errorf("breakdown coverage = %.3f, want [0.95, 1.0]; breakdown=%v total=%d",
			c, rep.Breakdown, rep.TotalCycles)
	}

	if len(tr.Spans()) == 0 {
		t.Error("instrumented run recorded no spans")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if _, err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Errorf("trace does not validate: %v", err)
	}
	if len(reg.Snapshot().Counters) == 0 {
		t.Error("instrumented run registered no metrics")
	}
}

// TestSpansDroppedCounter pins the loss-accounting satellite: PublishAll
// surfaces the tracer's ring evictions as the aq.obs.spans_dropped counter,
// so metrics snapshots state whether the trace is a window or the whole run.
func TestSpansDroppedCounter(t *testing.T) {
	tr := obs.NewTracer()
	tr.SetRingCapacity(8) // tiny rings: the fig8a fault storm must overflow
	reg := obs.NewRegistry()
	Instrument(tr, reg)
	defer Instrument(nil, nil)

	e, ok := Find("fig8a")
	if !ok {
		t.Fatal("fig8a not registered")
	}
	e.Run(testScale)
	PublishAll()

	if tr.Dropped() == 0 {
		t.Fatal("8-slot rings did not overflow under fig8a; test premise broken")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["aq.obs.spans_dropped"]; got != tr.Dropped() {
		t.Errorf("aq.obs.spans_dropped = %d, want %d", got, tr.Dropped())
	}
}

// A world's lifetime is one sentence: TakeSimCycles publishes each
// instrumented world's end-of-run counters and then drops it. Nothing waits
// for a final publish, so an instrumented -exp all holds one experiment's
// worlds at a time.
func TestTakeSimCyclesPublishesAndDrops(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(nil, reg)
	defer Instrument(nil, nil)
	TakeSimCycles()

	e, _ := Find("fig8a")
	e.Run(testScale)
	if len(worlds) == 0 {
		t.Fatal("fig8a booted no world")
	}
	if g := reg.Snapshot().Gauges; len(g) != 0 {
		t.Errorf("sim_cycles published before the worlds were retired: %v", g)
	}
	cycles := TakeSimCycles()
	if worlds != nil {
		t.Errorf("TakeSimCycles kept %d worlds", len(worlds))
	}
	var published uint64
	for k, v := range reg.Snapshot().Gauges {
		if strings.HasPrefix(k, "sim_cycles{") {
			published += uint64(v)
		}
	}
	if published != cycles || cycles == 0 {
		t.Errorf("published sim_cycles sum to %d, TakeSimCycles returned %d", published, cycles)
	}
}

func TestSubSumMap(t *testing.T) {
	after := map[string]uint64{"a": 10, "b": 5, "c": 3}
	before := map[string]uint64{"a": 4, "b": 5, "d": 9}
	d := subMap(after, before)
	if len(d) != 2 || d["a"] != 6 || d["c"] != 3 {
		t.Errorf("subMap = %v, want map[a:6 c:3]", d)
	}
	if got := sumMap(d); got != 9 {
		t.Errorf("sumMap = %d, want 9", got)
	}
}

// Regression: the worlds built on a bare engine (fig6's DRAM-only rows,
// iouring, nvm-heap) bypassed boot, so TakeSimCycles reported 0 for them and
// nothing closed them.
func TestBareEngineWorldsAreTracked(t *testing.T) {
	TakeSimCycles()
	for _, id := range []string{"iouring", "nvm-heap"} {
		e, _ := Find(id)
		e.Run(testScale)
		if TakeSimCycles() == 0 {
			t.Errorf("%s: no simulated cycles tracked", id)
		}
	}
	e := bootEngine(simengine.Config{NumCPUs: 1}, "t")
	TakeSimCycles()
	defer func() {
		if recover() == nil {
			t.Error("TakeSimCycles left a bare engine open")
		}
	}()
	e.Run()
}
