package harness

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"aquila"
	"aquila/internal/host"
	"aquila/internal/obs"
	"aquila/internal/sim/device"
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

// The report-backed experiments that take well under a second at scale 1 must
// write their checked-in BENCH_<id>.json goldens byte for byte, exactly as
// `aquila-bench -report-dir` writes them. fig10a and fig5b take seconds and
// are left to `make gates`, which diffs all six.
func TestReportsMatchGoldens(t *testing.T) {
	TakeSimCycles()
	for _, id := range []string{"fig8a", "fig7", "ablate-hugepages", "ablate-crash"} {
		t.Run(id, func(t *testing.T) {
			e, _ := Find(id)
			var rep *obs.Report
			for _, r := range e.Run(1.0) {
				if r.Report != nil {
					rep = r.Report
				}
			}
			TakeSimCycles()
			if rep == nil {
				t.Fatalf("%s wrote no report", id)
			}
			var got bytes.Buffer
			if err := rep.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			golden := "BENCH_" + id + ".json"
			want, err := os.ReadFile(filepath.Join("..", "..", golden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s differs from the report %s writes; `make perfgate` runs `diff -u` on the two", golden, id)
			}
		})
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

// A world's lifetime is one sentence: the row that booted it retires it —
// publishes its end-of-run counters, closes it, drops it — once the row's
// numbers are taken. Nothing waits for the experiment's end, let alone a final
// publish; TakeSimCycles only reports the retired clocks' sum and sweeps up
// what a row left behind.
func TestTakeSimCyclesPublishesAndDrops(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(nil, reg)
	defer Instrument(nil, nil)
	TakeSimCycles()

	e, _ := Find("fig8a")
	e.Run(testScale)
	if len(worlds) != 0 {
		t.Errorf("fig8a left %d worlds for TakeSimCycles to retire", len(worlds))
	}
	publishedCycles := func() (sum uint64, n int) {
		for k, v := range reg.Snapshot().Gauges {
			if strings.HasPrefix(k, "sim_cycles{") {
				sum += uint64(v)
				n++
			}
		}
		return sum, n
	}
	if _, n := publishedCycles(); n != 3 {
		t.Errorf("%d worlds published by the end of fig8a's rows, want 3", n)
	}
	// A world no row retired is swept: published, summed and closed.
	left := boot(aquila.Options{CacheBytes: mib, DeviceBytes: 8 * mib, CPUs: 1})
	left.Do(func(p *aquila.Proc) { p.AdvanceUser(1000) })
	cycles := TakeSimCycles()
	if len(worlds) != 0 {
		t.Errorf("TakeSimCycles kept %d worlds", len(worlds))
	}
	if published, n := publishedCycles(); published != cycles || n != 4 || cycles == 0 {
		t.Errorf("%d published sim_cycles sum to %d, TakeSimCycles returned %d", n, published, cycles)
	}
	if TakeSimCycles() != 0 {
		t.Error("a second TakeSimCycles found cycles to report")
	}
	defer func() {
		if recover() == nil {
			t.Error("TakeSimCycles left the swept world open")
		}
	}()
	left.Do(func(p *aquila.Proc) {})
}

// At most the worlds one row compares are alive at once — every row here
// boots, measures and retires one world at a time, whatever the table later
// compares — and retiring early changes no sum: the constants are what
// TakeSimCycles returned when every world lived to the end of its experiment.
func TestRowsRetireTheirWorlds(t *testing.T) {
	TakeSimCycles()
	for _, tc := range []struct {
		id     string
		cycles uint64
	}{
		{"fig10a", 108660490},      // 15 worlds: 2 per row, plus the 2 MB rows
		{"ablate-batch", 11509618}, // a world per sweep point
		{"fig6c", 7528220},
		{"iouring", 43867924},      // bare engines
		{"ablate-crash", 12888985}, // 50 crashed-and-recovered worlds
	} {
		e, _ := Find(tc.id)
		e.Run(testScale)
		if len(worlds) != 0 || worldsPeak != 1 {
			t.Errorf("%s: %d worlds left unretired, at most %d alive at once; want 0 and 1",
				tc.id, len(worlds), worldsPeak)
		}
		if got := TakeSimCycles(); got != tc.cycles {
			t.Errorf("%s: TakeSimCycles = %d, want %d", tc.id, got, tc.cycles)
		}
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
	e := bootEngine(simengine.Config{NumCPUs: 1}, "t", nil)
	TakeSimCycles()
	defer func() {
		if recover() == nil {
			t.Error("TakeSimCycles left a bare engine open")
		}
	}()
	e.Run()
}

// Regression: bootEngine handed a bare engine the harness tracer and profiler
// but not the registry, so the hosts and runtimes built on one (iouring,
// nvm-heap) reported into private registries and -metrics-json left them out.
// It also numbered a bare engine's label only when a tracer or profiler was
// set, so with a registry alone the Systems booted after one were labeled
// differently than in a traced run.
func TestBareEngineWorldsReportIntoTheHarnessRegistry(t *testing.T) {
	defer Instrument(nil, nil)
	// bootPair boots a bare engine with a host on it, then a System, and
	// returns the System's label.
	bootPair := func() string {
		pm := device.NewPMem(8*mib, device.DefaultPMemConfig())
		e := bootEngine(simengine.Config{NumCPUs: 1}, "bare", pm.Store)
		host.NewOS(e, host.NewPMemDisk("pmem0", pm), mib)
		sys := boot(aquila.Options{CacheBytes: mib, DeviceBytes: 8 * mib, CPUs: 1})
		TakeSimCycles()
		return sys.TraceLabel()
	}

	reg := obs.NewRegistry()
	Instrument(nil, reg)
	regOnly := bootPair()
	if _, ok := reg.Snapshot().Breakdowns["linux_fault_cycles{world=bare.1}"]; !ok {
		t.Errorf("the bare engine's host is missing from the harness registry: %v",
			slices.Sorted(maps.Keys(reg.Snapshot().Breakdowns)))
	}
	Instrument(obs.NewTracer(), nil)
	if traced := bootPair(); regOnly != traced {
		t.Errorf("System booted after a bare engine is %q with a registry only, %q with a tracer only",
			regOnly, traced)
	}
}
