package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(1)
	r.Breakdown("b").Add("x", 10)
	if h := r.Histogram("h"); h != nil {
		t.Fatal("nil registry should hand out nil histograms")
	}
	s := r.Snapshot()
	if s.Counters != nil || s.Gauges != nil || s.Histograms != nil || s.Breakdowns != nil {
		t.Fatal("nil registry snapshot should be empty")
	}
}

func TestRegistryInterning(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("faults", L("world", "aquila"))
	c2 := r.Counter("faults", L("world", "aquila"))
	if c1 != c2 {
		t.Fatal("same name+labels should intern to the same counter")
	}
	c3 := r.Counter("faults", L("world", "linux"))
	if c1 == c3 {
		t.Fatal("different labels should be distinct metrics")
	}
	c1.Add(5)
	c3.Add(7)
	if c1.Value() != 5 || c3.Value() != 7 {
		t.Fatalf("values: %d, %d", c1.Value(), c3.Value())
	}
	if r.Breakdown("bk") != r.Breakdown("bk") || r.Histogram("h") != r.Histogram("h") {
		t.Fatal("breakdowns/histograms should intern")
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops").Add(10)
	r.Gauge("util").Set(0.5)
	r.Histogram("lat").Record(100)
	r.Breakdown("break").Add("trap", 1000)

	r.Counter("ops").Add(32)
	r.Gauge("util").Set(0.75)
	r.Histogram("lat").Record(300)
	r.Breakdown("break").Add("trap", 500)
	r.Breakdown("break").Add("io", 2000)

	after := r.Snapshot()
	if after.Counters["ops"] != 42 || after.Gauges["util"] != 0.75 ||
		after.Histograms["lat"].Count != 2 || after.Histograms["lat"].Sum != 400 ||
		after.Breakdowns["break"]["trap"] != 1500 || after.Breakdowns["break"]["io"] != 2000 {
		t.Fatalf("snapshot = %+v", after)
	}

	// Snapshots are deep copies: further writes must not leak in.
	r.Counter("ops").Add(1)
	if after.Counters["ops"] != 42 {
		t.Fatalf("snapshot not isolated: %d", after.Counters["ops"])
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if round.Counters["ops"] != 43 || round.Breakdowns["break"]["io"] != 2000 {
		t.Fatalf("round-tripped snapshot = %+v", round)
	}
}

func TestMetricKeyRendering(t *testing.T) {
	if k := metricKey("a", nil); k != "a" {
		t.Fatalf("key = %q", k)
	}
	k := metricKey("a", []Label{L("x", "1"), L("y", "2")})
	if k != "a{x=1,y=2}" {
		t.Fatalf("key = %q", k)
	}
}
