package torture

import (
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// A slice of the CI bank, small enough for go test: every seed's oracle
// battery must come back clean. The full 64-seed bank runs under
// `make torture`.
func TestBankShort(t *testing.T) {
	n := int64(8)
	if testing.Short() {
		n = 3
	}
	for s := int64(0); s < n; s++ {
		pl := Generate(s, 80)
		if err := pl.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid plan: %v", s, err)
		}
		o := Execute(pl)
		if o.Failed() {
			t.Errorf("seed %d (%s/%s): %v", s, pl.World, pl.Device, o.Failures)
		}
	}
}

// Same plan, same fingerprint — the property shrinking and checked-in repros
// rest on. Seed 1 exercises a perturbed schedule if the generator picked one;
// either way the double-run must agree bit for bit.
func TestExecuteDeterministic(t *testing.T) {
	for _, s := range []int64{0, 1, 5} {
		pl := Generate(s, 60)
		a, b := Execute(pl), Execute(pl)
		if a.Fingerprint != b.Fingerprint {
			t.Fatalf("seed %d: fingerprints %016x then %016x", s, a.Fingerprint, b.Fingerprint)
		}
		if a.Failed() != b.Failed() || len(a.Failures) != len(b.Failures) {
			t.Fatalf("seed %d: verdicts differ: %v vs %v", s, a.Failures, b.Failures)
		}
	}
}

// Generate must be a pure function of (seed, nops).
func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(17, 80), Generate(17, 80)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Generate(17, 80) returned two different plans")
	}
}

// Oracle soundness: the planted UnsafeMsyncAtSubmit bug MUST be caught, and
// the shrinker must reduce it to a small repro that still fails.
func TestProofPlanCaughtAndShrunk(t *testing.T) {
	pl := ProofPlan()
	o := Execute(pl)
	if !o.Failed() {
		t.Fatal("oracle battery did not catch UnsafeMsyncAtSubmit — the harness is vacuous")
	}
	res := Shrink(pl, 200)
	if res.ToOps > 20 {
		t.Fatalf("shrunk proof plan still has %d ops, want <= 20", res.ToOps)
	}
	if !res.Outcome.Failed() {
		t.Fatal("shrunk plan no longer fails")
	}
}

// Repros the bank shrank from real defects replay clean once fixed:
// seed_12.json is an msync returning while an eviction's write-back of a page
// in its range was still in flight (Aquila), seed_16.json one returning while
// another thread's munmap was still writing the page back (Linux).
func TestFixedReprosReplayClean(t *testing.T) {
	paths, _ := filepath.Glob(filepath.Join("testdata", "repros", "seed_*.json"))
	if len(paths) == 0 {
		t.Fatal("no fixed repros under testdata/repros")
	}
	for _, path := range paths {
		pl, err := Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		if o := Execute(pl); o.Failed() {
			t.Errorf("%s: %v", path, o.Failures)
		}
	}
}

// The bank shares pages across threads, or the reference is checked against
// nothing it was written for: in at least half of the 64-seed bank's
// multi-thread plans, a slot one thread stores is loaded, or msynced, by
// another thread later in the trace.
func TestBankSharesSlotsAcrossThreads(t *testing.T) {
	multi, shared := 0, 0
	for s := int64(0); s < 64; s++ {
		pl := Generate(s, 80)
		if pl.Threads < 2 {
			continue
		}
		multi++
		if sharesSlot(pl) {
			shared++
		}
	}
	if 2*shared < multi {
		t.Fatalf("%d of %d multi-thread plans share a slot across threads, want at least half", shared, multi)
	}
}

func sharesSlot(pl *Plan) bool {
	for i, st := range pl.Ops {
		if st.Kind != OpStore {
			continue
		}
		for _, op := range pl.Ops[i+1:] {
			if op.T == st.T || op.File != st.File {
				continue
			}
			switch {
			case op.Kind == OpLoad && op.Slot == st.Slot,
				op.Kind == OpMsync,
				op.Kind == OpMsyncRange && op.Slot <= st.Slot && st.Slot < op.Slot+op.N:
				return true
			}
		}
	}
	return false
}

// The checked-in repro (written by `aqtort -prove-unsafe`) must load and
// still fail on replay; a silently passing repro means the executor's
// semantics drifted without a PlanVersion bump.
func TestCheckedInReproStillFails(t *testing.T) {
	path := filepath.Join("testdata", "repros", "unsafe_msync.json")
	pl, err := Load(path)
	if err != nil {
		t.Fatalf("loading %s: %v", path, err)
	}
	o := Execute(pl)
	if !o.Failed() {
		t.Fatalf("%s replayed clean; it must reproduce the acked-then-lost failure", path)
	}
}

// Save/Load round-trip: the JSON fixture format preserves every field the
// executor reads.
func TestPlanRoundTrip(t *testing.T) {
	pl := Generate(3, 40)
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := pl.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pl, got) {
		t.Fatalf("round-trip mismatch:\nsaved  %+v\nloaded %+v", pl, got)
	}
}

// Load rejects stale and malformed fixtures loudly.
func TestLoadRejects(t *testing.T) {
	pl := Generate(3, 10)
	pl.Version = PlanVersion + 1
	path := filepath.Join(t.TempDir(), "stale.json")
	if err := pl.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load accepted a plan with a future version")
	}
}

// A generated plan's JSON, its fault schedule among it, is the repro wire
// format: checked-in repros are written in it, so a seed's plan must keep
// its bytes.
func TestGeneratedPlanWireFormat(t *testing.T) {
	const want = `{"version":2,"seed":1,"world":"aquila","device":"pmem","threads":3,"cpus":4,` +
		`"cache_kb":3072,"files":[{"slots":26},{"slots":62},{"slots":55},{"slots":50}],` +
		`"fault":{"seed":141817305,"rules":[{"kind":"transient-write","prob":0.04455833172542013},` +
		`{"kind":"latency-spike","prob":0.05,"delay":40740}]},` +
		`"crash":{"seed":451145607,"tear_prob":0.28439421028000916,"at_ack":1},` +
		`"ops":[{"t":2,"kind":"store","file":1,"slot":36},{"t":0,"kind":"load","slot":15},` +
		`{"t":1,"kind":"load","file":2,"slot":31},{"t":0,"kind":"store","file":2,"slot":33},` +
		`{"t":2,"kind":"store","file":1,"slot":9},{"t":0,"kind":"msync","file":3,"slot":1}]}`
	got, err := json.Marshal(Generate(1, 6))
	if err != nil || string(got) != want {
		t.Fatalf("Marshal = %s, %v\nwant       %s", got, err, want)
	}
}

// Validate refuses a crash no run can reach or tear: an op_frac past 1 puts
// the crash after the last device write, so the repro would replay
// crash-free and report ok.
func TestValidateRejectsImpossibleCrash(t *testing.T) {
	for _, tc := range []struct {
		name  string
		crash CrashSpec
		want  string // "" = valid
	}{
		{"generated shape", CrashSpec{Seed: 5, TearProb: 0.5, OpFrac: 0.4}, ""},
		{"certain tear", CrashSpec{Seed: 5, TearProb: 1, AtAck: 2}, ""},
		{"span hit", CrashSpec{AtSpan: "aq.msync", SpanHit: 2}, ""},
		{"tear past one", CrashSpec{Seed: 5, TearProb: 1.5}, "tear_prob 1.5 outside [0,1]"},
		{"negative tear", CrashSpec{TearProb: -0.1}, "tear_prob -0.1 outside [0,1]"},
		{"op fraction past the run", CrashSpec{OpFrac: 2.5}, "op_frac 2.5 outside [0,1]"},
		{"negative op fraction", CrashSpec{OpFrac: -0.5}, "op_frac -0.5 outside [0,1]"},
		{"negative ack", CrashSpec{AtAck: -1}, "at_ack -1"},
		{"span hit without a span", CrashSpec{SpanHit: 3}, "span_hit 3 without at_span"},
	} {
		pl := Generate(3, 10)
		pl.Crash = &tc.crash
		err := pl.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Validate = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}

	pl := Generate(3, 10)
	pl.Crash = &CrashSpec{Seed: 5, TearProb: 1.5, OpFrac: 2.5}
	path := filepath.Join(t.TempDir(), "impossible.json")
	if err := pl.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load accepted a crash with tear_prob 1.5 and op_frac 2.5")
	}
}

// Shrink must refuse a passing plan instead of "reducing" it to nothing.
func TestShrinkPanicsOnPassingPlan(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Shrink accepted a passing plan")
		}
	}()
	pl := Generate(0, 10)
	Shrink(pl, 50)
}

// Validate bounds what addresses an op may name, so a hand-edited repro with
// a slot, range or key its plan does not have fails with the op's index —
// exit 2 through Load — instead of an executor index panic reported as an
// oracle FAIL (slot, key) or a silently clamped range (msync_range).
func TestValidateBoundsOpOperands(t *testing.T) {
	base := func() *Plan {
		return &Plan{
			Version: PlanVersion, World: WorldAquila, Device: "pmem",
			Threads: 2, CPUs: 2, CacheKB: 1024,
			Files: []FileSpec{{Slots: 16}},
			Kreon: &KreonSpec{Keys: 8, LogKB: 64, IdxKB: 64},
			Ops:   []Op{{T: 0, Kind: OpStore, Slot: 15}, {T: 0, Kind: OpMsync}},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base plan: %v", err)
	}
	for _, tc := range []struct {
		name string
		op   Op
		want string // "" = valid
	}{
		{"last slot", Op{Kind: OpLoad, Slot: 15}, ""},
		{"slot past the file", Op{Kind: OpStore, Slot: 1000000}, "op 2 slot 1000000"},
		{"slot == slots", Op{Kind: OpLoad, Slot: 16}, "op 2 slot 16"},
		{"negative slot", Op{Kind: OpLoad, Slot: -1}, "op 2 slot -1"},
		{"msync names a slot too", Op{Kind: OpMsync, Slot: 16}, "op 2 slot 16"},
		{"whole-file range", Op{Kind: OpMsyncRange, Slot: 0, N: 16}, ""},
		{"range of nothing", Op{Kind: OpMsyncRange, Slot: 3}, "op 2 msync_range [3,3)"},
		{"range past the file", Op{Kind: OpMsyncRange, Slot: 10, N: 7}, "op 2 msync_range [10,17)"},
		{"range that overflows", Op{Kind: OpMsyncRange, Slot: 10, N: math.MaxInt}, "op 2 msync_range"},
		{"last key", Op{Kind: OpKvPut, Key: 7}, ""},
		{"key == keys", Op{Kind: OpKvGet, Key: 8}, "op 2 key 8 of 8"},
		{"negative key", Op{Kind: OpKvScan, Key: -1, N: 4}, "op 2 key -1 of 8"},
		{"another thread's store to the file", Op{T: 1, Kind: OpStore, Slot: 15}, ""},
		{"another thread's load of the slot", Op{T: 1, Kind: OpLoad, Slot: 15}, ""},
		{"another thread's msync", Op{T: 1, Kind: OpMsyncRange, Slot: 8, N: 8}, ""},
		{"another thread's fsync", Op{T: 1, Kind: OpFsync}, ""},
		{"another thread's unmap", Op{T: 1, Kind: OpUnmap}, ""},
		{"another thread's huge hint", Op{T: 1, Kind: OpHuge}, ""},
		{"a thread past the plan's", Op{T: 2, Kind: OpLoad}, "op 2 on thread 2 of 2"},
		{"kv off thread 0", Op{T: 1, Kind: OpKvGet}, "op 2: kv ops run on thread 0, got 1"},
	} {
		pl := base()
		pl.Ops = append(pl.Ops, tc.op)
		err := pl.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Validate = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// A panic raised inside one thread's op — here a Kreon store whose index
// region cannot hold its first spill, which no static check of a plan bounds
// — must come back as an oracle failure with the other threads' goroutines
// released, not kill the process: that is what lets the shrinker iterate on
// it, down to the one planted op.
func TestOpPanicIsOracleFailureAndShrinks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	pl := Generate(9, 80)
	pl.Crash = nil // the machine must live to reach the plant
	if pl.Threads < 2 {
		t.Fatalf("seed 9 generated %d thread(s); the plant needs bystanders", pl.Threads)
	}
	if pl.World != WorldAquila || pl.Fault != nil || pl.Kreon != nil {
		t.Fatalf("seed 9 generated world %q, fault %v, kreon %v; the plant needs a fault-free aquila plan without a store",
			pl.World, pl.Fault != nil, pl.Kreon != nil)
	}
	pl.Kreon = &KreonSpec{Keys: 1, LogKB: 64, IdxKB: 1}
	mid := len(pl.Ops) / 2
	plant := Op{T: 0, Kind: OpKvPut}
	pl.Ops = append(pl.Ops[:mid:mid], append([]Op{plant}, pl.Ops[mid:]...)...)
	o := Execute(pl)
	if !o.Failed() || !strings.Contains(o.Failures[0], "phase ops: engine panic: kreon: index region full") {
		t.Fatalf("planted op panic not reported as the ops phase's failure: %v", o.Failures)
	}
	res := Shrink(pl, 200)
	if res.ToOps != 1 || res.Plan.Ops[0] != plant || !res.Outcome.Failed() {
		t.Fatalf("shrunk to %d ops %+v (failed=%v), want exactly the planted op",
			res.ToOps, res.Plan.Ops, res.Outcome.Failed())
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive, baseline %d: failed runs left threads parked",
				runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
	}
}
