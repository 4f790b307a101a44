package ycsb

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"aquila/internal/sim/engine"
)

func TestKeyEncodingRoundTrip(t *testing.T) {
	for _, id := range []uint64{0, 1, 12345, 1 << 40} {
		k := KeyBytes(id)
		if len(k) != 30 {
			t.Fatalf("key length = %d, want 30", len(k))
		}
		if KeyID(k) != id {
			t.Fatalf("round trip %d -> %d", id, KeyID(k))
		}
	}
}

func TestKeyOrderingMatchesIDOrdering(t *testing.T) {
	check := func(a, b uint64) bool {
		ka, kb := KeyBytes(a), KeyBytes(b)
		cmp := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueIntegrity(t *testing.T) {
	v := Value(42, 1000)
	if len(v) != 1000 {
		t.Fatalf("value size = %d", len(v))
	}
	if !CheckValue(42, v) {
		t.Fatal("value check failed")
	}
	if CheckValue(43, v) {
		t.Fatal("wrong-id value check passed")
	}
}

func TestWorkloadMixes(t *testing.T) {
	// Table 1: verify the generated mixes statistically.
	cases := []struct {
		w      Workload
		kind   OpKind
		expect float64
	}{
		{WorkloadA, OpUpdate, 0.5},
		{WorkloadB, OpUpdate, 0.05},
		{WorkloadC, OpRead, 1.0},
		{WorkloadD, OpInsert, 0.05},
		{WorkloadE, OpScan, 0.95},
		{WorkloadF, OpReadModifyWrite, 0.5},
	}
	for _, tc := range cases {
		g := NewGenerator(Config{Workload: tc.w, Records: 10000, Seed: 7})
		const n = 20000
		count := 0
		for i := 0; i < n; i++ {
			if g.Next().Kind == tc.kind {
				count++
			}
		}
		got := float64(count) / n
		if got < tc.expect-0.02 || got > tc.expect+0.02 {
			t.Errorf("workload %c: %v fraction = %.3f, want %.2f", tc.w, tc.kind, got, tc.expect)
		}
	}
}

func TestUniformCoversKeySpace(t *testing.T) {
	g := NewGenerator(Config{Workload: WorkloadC, Records: 100, Seed: 3})
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		op := g.Next()
		if op.Key >= 100 {
			t.Fatalf("key %d out of range", op.Key)
		}
		seen[op.Key] = true
	}
	if len(seen) < 95 {
		t.Errorf("uniform draw covered only %d/100 keys", len(seen))
	}
}

func TestZipfianIsSkewed(t *testing.T) {
	g := NewGenerator(Config{Workload: WorkloadC, Records: 100000, Distribution: Zipfian, Seed: 5})
	counts := make(map[uint64]int)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[g.Next().Key]++
	}
	// Top key should dominate far beyond uniform (n/records = 0.5 each).
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < n/100 {
		t.Errorf("zipfian max key count %d looks uniform", max)
	}
	// But the draw must not be a constant either.
	if len(counts) < 1000 {
		t.Errorf("zipfian touched only %d distinct keys", len(counts))
	}
}

func TestLatestPrefersRecentKeys(t *testing.T) {
	g := NewGenerator(Config{Workload: WorkloadD, Records: 10000, Distribution: Latest, Seed: 9})
	recent := 0
	const n = 10000
	for i := 0; i < n; i++ {
		op := g.Next()
		if op.Kind == OpInsert {
			continue
		}
		if op.Key >= g.Records()-g.Records()/10 {
			recent++
		}
	}
	if float64(recent)/n < 0.5 {
		t.Errorf("latest distribution: only %d/%d reads in newest 10%%", recent, n)
	}
}

func TestInsertsGrowKeySpace(t *testing.T) {
	g := NewGenerator(Config{Workload: WorkloadD, Records: 1000, Seed: 1})
	before := g.Records()
	inserts := uint64(0)
	for i := 0; i < 5000; i++ {
		op := g.Next()
		if op.Kind == OpInsert {
			if op.Key != before+inserts {
				t.Fatalf("insert key %d, want %d (sequential)", op.Key, before+inserts)
			}
			inserts++
		}
	}
	if g.Records() != before+inserts {
		t.Errorf("records = %d, want %d", g.Records(), before+inserts)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() []Op {
		g := NewGenerator(Config{Workload: WorkloadA, Records: 1000, Distribution: Zipfian, Seed: 11})
		var ops []Op
		for i := 0; i < 100; i++ {
			ops = append(ops, g.Next())
		}
		return ops
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// mapKV is an in-memory KV for driver tests.
type mapKV struct {
	m map[string][]byte
}

func (kv *mapKV) Get(p *engine.Proc, key []byte) ([]byte, bool) {
	p.AdvanceUser(10)
	v, ok := kv.m[string(key)]
	return v, ok
}

func (kv *mapKV) Put(p *engine.Proc, key, value []byte) {
	p.AdvanceUser(20)
	kv.m[string(key)] = append([]byte(nil), value...)
}

func (kv *mapKV) Scan(p *engine.Proc, startKey []byte, n int) int {
	p.AdvanceUser(uint64(10 * n))
	return n
}

func TestRunThreadAgainstMapKV(t *testing.T) {
	e := engine.New(engine.Config{NumCPUs: 1, Seed: 1})
	kv := &mapKV{m: make(map[string][]byte)}
	for i := uint64(0); i < 100; i++ {
		kv.m[string(KeyBytes(i))] = Value(i, 100)
	}
	var res Result
	e.Spawn(0, "ycsb", func(p *engine.Proc) {
		g := NewGenerator(Config{Workload: WorkloadA, Records: 100, ValueSize: 100, Seed: 2})
		res = RunThread(p, kv, g, 500)
	})
	e.Run()
	if res.Ops != 500 {
		t.Fatalf("ops = %d", res.Ops)
	}
	if res.Misses != 0 {
		t.Fatalf("misses = %d", res.Misses)
	}
	if res.Lat.Count() != 500 || res.Cycles == 0 {
		t.Fatalf("lat count=%d cycles=%d", res.Lat.Count(), res.Cycles)
	}
}

func TestScanLengthsBounded(t *testing.T) {
	g := NewGenerator(Config{Workload: WorkloadE, Records: 1000, Seed: 4})
	for i := 0; i < 5000; i++ {
		op := g.Next()
		if op.Kind == OpScan {
			if op.ScanLen < 1 || op.ScanLen > scanLength {
				t.Fatalf("scan length %d outside [1,%d]", op.ScanLen, scanLength)
			}
		}
	}
}

func TestRunThreadCountsMisses(t *testing.T) {
	e := engine.New(engine.Config{NumCPUs: 1, Seed: 1})
	kv := &mapKV{m: make(map[string][]byte)} // empty store: all reads miss
	var res Result
	e.Spawn(0, "ycsb", func(p *engine.Proc) {
		g := NewGenerator(Config{Workload: WorkloadC, Records: 50, Seed: 2})
		res = RunThread(p, kv, g, 100)
	})
	e.Run()
	if res.Misses != 100 {
		t.Fatalf("misses = %d, want 100", res.Misses)
	}
}

func TestWorkloadFDoesRMW(t *testing.T) {
	e := engine.New(engine.Config{NumCPUs: 1, Seed: 1})
	kv := &mapKV{m: make(map[string][]byte)}
	for i := uint64(0); i < 100; i++ {
		kv.m[string(KeyBytes(i))] = Value(i, 50)
	}
	e.Spawn(0, "ycsb", func(p *engine.Proc) {
		g := NewGenerator(Config{Workload: WorkloadF, Records: 100, ValueSize: 50, Seed: 6})
		res := RunThread(p, kv, g, 400)
		if res.Misses != 0 {
			t.Errorf("misses = %d", res.Misses)
		}
	})
	e.Run()
	// RMWs rewrote values: the store still holds 100 keys with valid values.
	if len(kv.m) != 100 {
		t.Fatalf("store has %d keys", len(kv.m))
	}
}

// refValue is the per-byte formula Value was first written as; it stays here
// as the reference the table-filling Value is held to.
func refValue(id uint64, size int) []byte {
	v := make([]byte, size)
	binary.BigEndian.PutUint64(v, id)
	for i := 8; i < size; i++ {
		v[i] = byte((id + uint64(i)) % 251)
	}
	return v
}

func TestValueMatchesPerByteFormula(t *testing.T) {
	// Around multiples of the period, 2^32, and the top of uint64, where
	// id + i wraps inside the value and the phase jumps.
	var ids []uint64
	for _, base := range []uint64{0, 251, 251 * 1000, 1 << 32, 1 << 63, math.MaxUint64 - 1100, math.MaxUint64 - 600, math.MaxUint64 - 8} {
		for d := uint64(0); d < 10; d++ {
			ids = append(ids, base-3+d)
		}
	}
	for _, id := range ids {
		for size := 8; size <= 1100; size++ {
			if got, want := Value(id, size), refValue(id, size); !bytes.Equal(got, want) {
				t.Fatalf("Value(%d, %d) differs from the per-byte formula", id, size)
			}
		}
	}
	// A value too short for its id never existed: both panic.
	for size := 0; size < 8; size++ {
		for name, fn := range map[string]func(uint64, int) []byte{"Value": Value, "refValue": refValue} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(1, %d) did not panic", name, size)
					}
				}()
				fn(1, size)
			}()
		}
	}
}

func TestAppendKeyAndValueAppend(t *testing.T) {
	buf := []byte("head")
	buf = AppendKey(buf, 77)
	buf = AppendValue(buf, math.MaxUint64-20, 300)
	want := append(append([]byte("head"), KeyBytes(77)...), refValue(math.MaxUint64-20, 300)...)
	if !bytes.Equal(buf, want) {
		t.Fatal("AppendKey/AppendValue do not append KeyBytes/Value")
	}
	// Reusing the buffer leaves nothing of the previous value behind.
	buf = AppendValue(buf[:0], 5, 100)
	if !bytes.Equal(buf, refValue(5, 100)) {
		t.Fatal("AppendValue into a reused buffer differs")
	}
}

func TestValueAllocatesOnce(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { sink = Value(12345, 1000) }); n != 1 {
		t.Errorf("Value: %v allocs, want 1 (the value)", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = KeyBytes(12345) }); n != 1 {
		t.Errorf("KeyBytes: %v allocs, want 1 (the key)", n)
	}
	buf := make([]byte, 0, 1030)
	if n := testing.AllocsPerRun(100, func() { sink = AppendValue(AppendKey(buf[:0], 9), 9, 1000) }); n != 0 {
		t.Errorf("AppendKey+AppendValue into a sized buffer: %v allocs, want 0", n)
	}
}

var sink []byte

// TestRunThreadWritesCorrectValues drives a store that keeps what Put hands it
// only by copy (the KV contract) and checks that RunThread's two reused
// buffers never leak one operation's bytes into another's record.
func TestRunThreadWritesCorrectValues(t *testing.T) {
	e := engine.New(engine.Config{NumCPUs: 1, Seed: 1})
	kv := &mapKV{m: make(map[string][]byte)}
	e.Spawn(0, "ycsb", func(p *engine.Proc) {
		g := NewGenerator(Config{Workload: WorkloadD, Records: 100, ValueSize: 64, Seed: 3})
		RunThread(p, kv, g, 2000)
		g = NewGenerator(Config{Workload: WorkloadA, Records: 100, ValueSize: 64, Distribution: Zipfian, Seed: 3})
		RunThread(p, kv, g, 2000)
	})
	e.Run()
	if len(kv.m) < 50 {
		t.Fatalf("store has %d keys", len(kv.m))
	}
	for k, v := range kv.m {
		if id := KeyID([]byte(k)); !bytes.Equal([]byte(k), KeyBytes(id)) || !bytes.Equal(v, refValue(id, 64)) {
			t.Fatalf("key %q holds a value that is not its own", k)
		}
	}
}

func BenchmarkValue(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = Value(uint64(i), 1000)
	}
}
