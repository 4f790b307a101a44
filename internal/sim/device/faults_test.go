package device

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"aquila/internal/obs"
)

// checkSeq runs n same-shaped operations through the store and returns which
// ones failed.
func checkSeq(s *Store, n int, off uint64, size int, write bool) []bool {
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		_, err := s.Check(uint64(i), off, size, write)
		out[i] = err != nil
	}
	return out
}

func TestFaultScheduleAfterEveryLimit(t *testing.T) {
	s := NewStore(1 << 20)
	s.InjectFaults("dev0", &FaultPlan{Rules: []FaultRule{
		{Kind: FaultTransientWrite, After: 3, Every: 5, Limit: 2},
	}})
	got := checkSeq(s, 15, 0, 4096, true)
	// Matches 3 and 8 fire (After=3, Every=5, Limit=2); match 13 is capped.
	want := []bool{false, false, true, false, false, false, false, true,
		false, false, false, false, false, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d: failed=%v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
	if n := s.InjectedFaults(); n != 2 {
		t.Errorf("InjectedFaults = %d, want 2", n)
	}
}

func TestFaultDirectionMatch(t *testing.T) {
	s := NewStore(1 << 20)
	s.InjectFaults("dev0", &FaultPlan{Rules: []FaultRule{
		{Kind: FaultTransientWrite, After: 1},
	}})
	if _, err := s.Check(0, 0, 4096, false); err != nil {
		t.Errorf("write-fault rule failed a read: %v", err)
	}
	// The read did not consume the rule's schedule slot.
	if _, err := s.Check(0, 0, 4096, true); err == nil {
		t.Error("first write did not fail")
	}
}

func TestFaultRangeRestriction(t *testing.T) {
	s := NewStore(1 << 20)
	s.InjectFaults("dev0", &FaultPlan{Rules: []FaultRule{
		{Kind: FaultTransientRead, Off: 8192, Len: 4096, After: 1, Every: 1},
	}})
	if _, err := s.Check(0, 0, 4096, false); err != nil {
		t.Errorf("out-of-range read failed: %v", err)
	}
	if _, err := s.Check(0, 8192, 4096, false); err == nil {
		t.Error("in-range read did not fail")
	}
	// Overlap at the edge counts.
	if _, err := s.Check(0, 4096, 8192, false); err == nil {
		t.Error("overlapping read did not fail")
	}
}

func TestFaultProbDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []bool {
		s := NewStore(1 << 20)
		s.InjectFaults("dev0", &FaultPlan{Seed: seed, Rules: []FaultRule{
			{Kind: FaultTransientWrite, Prob: 0.3},
		}})
		return checkSeq(s, 200, 0, 4096, true)
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
	c := run(8)
	same := true
	fires := 0
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
		if a[i] {
			fires++
		}
	}
	if same {
		t.Error("different seeds produced identical firing sequences")
	}
	if fires < 30 || fires > 90 {
		t.Errorf("Prob=0.3 fired %d/200 times, far from expectation", fires)
	}
}

func TestPermanentReadRangePersists(t *testing.T) {
	s := NewStore(1 << 20)
	s.InjectFaults("nvme0", &FaultPlan{Rules: []FaultRule{
		{Kind: FaultPermanentRead, Off: 4096, Len: 4096, After: 2},
	}})
	if _, err := s.Check(0, 4096, 4096, false); err != nil {
		t.Fatalf("read before After failed: %v", err)
	}
	_, err := s.Check(1, 4096, 4096, false)
	if err == nil {
		t.Fatal("second read did not fire the permanent fault")
	}
	var de *IOError
	if !errors.As(err, &de) {
		t.Fatalf("error %T is not *IOError", err)
	}
	if de.Dev != "nvme0" || de.Kind != FaultPermanentRead || de.Transient() {
		t.Errorf("bad error payload: %+v", de)
	}
	// Every later overlapping read keeps failing; writes are unaffected.
	for i := 0; i < 5; i++ {
		if _, err := s.Check(uint64(2+i), 4096, 4096, false); err == nil {
			t.Fatal("permanent bad range stopped failing")
		}
	}
	if _, err := s.Check(10, 4096, 4096, true); err != nil {
		t.Errorf("write to read-bad range failed: %v", err)
	}
	if _, err := s.Check(11, 12288, 4096, false); err != nil {
		t.Errorf("read outside bad range failed: %v", err)
	}
}

func TestPoisonActsAsPermanentRead(t *testing.T) {
	s := NewStore(1 << 20)
	s.InjectFaults("pmem0", &FaultPlan{Rules: []FaultRule{
		{Kind: FaultPoison, Off: 0, Len: 64, After: 1},
	}})
	_, err := s.Check(0, 0, 4096, false)
	var de *IOError
	if !errors.As(err, &de) || de.Kind != FaultPoison {
		t.Fatalf("poisoned read error = %v", err)
	}
	if _, err := s.Check(1, 0, 64, false); err == nil {
		t.Error("poisoned line readable again")
	}
}

func TestLatencySpikeDelaysWithoutFailing(t *testing.T) {
	s := NewStore(1 << 20)
	s.InjectFaults("dev0", &FaultPlan{Rules: []FaultRule{
		{Kind: FaultLatencySpike, After: 2, Delay: 12345},
	}})
	if d, err := s.Check(0, 0, 4096, false); err != nil || d != 0 {
		t.Fatalf("first op: delay=%d err=%v", d, err)
	}
	d, err := s.Check(1, 0, 4096, false)
	if err != nil {
		t.Fatalf("spiked op failed: %v", err)
	}
	if d != 12345 {
		t.Errorf("spike delay = %d, want 12345", d)
	}
}

func TestNoPlanIsInert(t *testing.T) {
	s := NewStore(1 << 20)
	if d, err := s.Check(0, 0, 4096, true); d != 0 || err != nil {
		t.Fatalf("no-plan Check = (%d, %v)", d, err)
	}
	if s.InjectedFaults() != 0 {
		t.Error("no-plan store counted injections")
	}
	// Attach then detach: inert again.
	s.InjectFaults("dev0", &FaultPlan{Rules: []FaultRule{
		{Kind: FaultTransientWrite, After: 1, Every: 1},
	}})
	s.InjectFaults("dev0", nil)
	if _, err := s.Check(0, 0, 4096, true); err != nil {
		t.Fatalf("detached plan still fires: %v", err)
	}
}

// loadFaultPlan parses a plan fixture under testdata/faultplans.
func loadFaultPlan(t *testing.T, name string) *FaultPlan {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "faultplans", name))
	if err != nil {
		t.Fatal(err)
	}
	var plan FaultPlan
	if err := json.Unmarshal(data, &plan); err != nil {
		t.Fatal(err)
	}
	return &plan
}

func TestLoadFaultPlanFixtures(t *testing.T) {
	plan := loadFaultPlan(t, "transient-nvme-writes.json")
	if plan.Seed != 42 || len(plan.Rules) != 2 {
		t.Fatalf("plan = %+v", plan)
	}
	r := plan.Rules[0]
	if r.Kind != FaultTransientWrite || r.After != 3 || r.Every != 5 || r.Limit != 10 {
		t.Errorf("rule 0 = %+v", r)
	}
	if plan.Rules[1].Kind != FaultLatencySpike || plan.Rules[1].Delay != 80000 {
		t.Errorf("rule 1 = %+v", plan.Rules[1])
	}

	plan = loadFaultPlan(t, "permanent-read.json")
	if plan.Rules[0].Kind != FaultPermanentRead || plan.Rules[0].Off != 8192 {
		t.Errorf("permanent-read rule = %+v", plan.Rules[0])
	}

	if err := json.Unmarshal([]byte(`{"rules":[{"kind":"nope"}]}`), new(FaultPlan)); err == nil {
		t.Error("unknown kind parsed")
	}
}

// The plan's JSON is the fixture and torture-plan wire format: string kinds,
// zero rule fields left out. Checked-in fixtures and repros are written in
// it, so the literal holds every kind's name and every field's key.
func TestFaultPlanWireFormat(t *testing.T) {
	plan := &FaultPlan{Seed: 9, Rules: []FaultRule{
		{Kind: FaultTransientRead, After: 2},
		{Kind: FaultTransientWrite, Prob: 0.25},
		{Kind: FaultPermanentRead, Off: 8192, Len: 4096},
		{Kind: FaultPermanentWrite, After: 5, Limit: 1},
		{Kind: FaultLatencySpike, Every: 50, Delay: 80000},
		{Kind: FaultPoison, Off: 64, Len: 64},
	}}
	const want = `{"seed":9,"rules":[{"kind":"transient-read","after":2},` +
		`{"kind":"transient-write","prob":0.25},{"kind":"permanent-read","off":8192,"len":4096},` +
		`{"kind":"permanent-write","after":5,"limit":1},{"kind":"latency-spike","every":50,"delay":80000},` +
		`{"kind":"poison","off":64,"len":64}]}`
	got, err := json.Marshal(plan)
	if err != nil || string(got) != want {
		t.Fatalf("Marshal = %s, %v\nwant       %s", got, err, want)
	}
	var back FaultPlan
	if err := json.Unmarshal(got, &back); err != nil || !reflect.DeepEqual(&back, plan) {
		t.Fatalf("round trip = %+v, %v", back, err)
	}
	if _, err := json.Marshal(FaultRule{Kind: FaultPoison + 1}); err == nil {
		t.Error("a kind with no wire name marshalled")
	}
}

func TestInjectFaultsOnDevices(t *testing.T) {
	nv := NewNVMe(1<<20, DefaultNVMeConfig())
	nv.InjectFaults("nvme0", &FaultPlan{Rules: []FaultRule{
		{Kind: FaultTransientRead, After: 1},
	}})
	_, err := nv.Store.Check(0, 0, 4096, false)
	var de *IOError
	if !errors.As(err, &de) || de.Dev != "nvme0" {
		t.Fatalf("nvme fault = %v", err)
	}
	pm := NewPMem(1<<20, DefaultPMemConfig())
	pm.InjectFaults("pmem0", &FaultPlan{Rules: []FaultRule{
		{Kind: FaultPoison, Off: 0, Len: 4096, After: 1},
	}})
	if _, err := pm.Store.Check(0, 0, 64, false); err == nil {
		t.Fatal("pmem poison did not fire")
	}
	pm.InjectFaults("pmem0", nil)
	if _, err := pm.Store.Check(1, 0, 64, false); err != nil {
		t.Fatalf("detach left faults active: %v", err)
	}
}

// A device's injected faults reach its instrumentation whichever of
// InjectFaults and Instrument came first: the same dev_faults_injected count
// and the same dev.fault spans either way.
func TestFaultRecordingIndependentOfInstrumentOrder(t *testing.T) {
	run := func(instrumentFirst bool) (uint64, []obs.Span) {
		d := NewNVMe(1<<20, DefaultNVMeConfig())
		tr, reg := obs.NewTracer(), obs.NewRegistry()
		instrument := func() { d.Instrument(tr, tr.RegisterProcess("devices"), 0, reg, "nvme0") }
		if instrumentFirst {
			instrument()
		}
		d.InjectFaults("nvme0", &FaultPlan{Rules: []FaultRule{
			{Kind: FaultTransientRead, After: 1, Every: 3},
			{Kind: FaultLatencySpike, After: 2, Delay: 500},
		}})
		if !instrumentFirst {
			instrument()
		}
		for i := uint64(0); i < 10; i++ {
			d.Check(i*1000, 0, 4096, false)
		}
		var n uint64
		for k, v := range reg.Snapshot().Counters {
			if strings.HasPrefix(k, "dev_faults_injected{") {
				n += v
			}
		}
		spans := slices.DeleteFunc(tr.Spans(), func(s obs.Span) bool { return s.Cat != "dev.fault" })
		return n, spans
	}
	n1, spans1 := run(true)
	n2, spans2 := run(false)
	if n1 == 0 || len(spans1) == 0 {
		t.Fatalf("instrument-first run recorded %d faults and %d spans; the plan must fire", n1, len(spans1))
	}
	if n1 != n2 || !slices.Equal(spans1, spans2) {
		t.Errorf("instrument first: %d faults, spans %v; inject first: %d faults, spans %v", n1, spans1, n2, spans2)
	}
}
