package ycsb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
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

// KeyBytes and Value carve from the package's arena, so a run of them
// allocates only the 32 KB chunks it fills: 1,000 keys the chunks their 30,000
// bytes span, 1,000 values of 1,000 bytes one per 32 of them, and either one
// more for the chunk the run starts in. Each count is the least of three
// windows: now and then the runtime's own work allocates inside one.
func TestKeysAndValuesAllocateByTheChunk(t *testing.T) {
	const n = 1000
	least := func(fn func()) float64 {
		m := testing.AllocsPerRun(1, fn)
		for range 2 {
			m = min(m, testing.AllocsPerRun(1, fn))
		}
		return m
	}
	keys := least(func() {
		for i := range uint64(n) {
			sink = KeyBytes(i)
		}
	})
	if want := float64((n*keySize+chunk-1)/chunk + 1); keys > want {
		t.Errorf("%d KeyBytes: %v allocs, want at most %v (the arena's chunks)", n, keys, want)
	}
	values := least(func() {
		for i := range uint64(n) {
			sink = Value(i, 1000)
		}
	})
	if want := float64((n+chunk/1000-1)/(chunk/1000) + 1); values > want {
		t.Errorf("%d Values of 1,000 bytes: %v allocs, want at most %v (one chunk per %d values)", n, values, want, chunk/1000)
	}
	buf := make([]byte, 0, 1030)
	if n := testing.AllocsPerRun(100, func() { sink = AppendValue(AppendKey(buf[:0], 9), 9, 1000) }); n != 0 {
		t.Errorf("AppendKey+AppendValue into a sized buffer: %v allocs, want 0", n)
	}
}

// chunk is the size of the arena's chunks, 32 KB.
const chunk = 32 << 10

// keptKV is a key or value a caller kept, beside the bytes it must hold.
type keptKV struct{ got, want []byte }

// drawKept draws n keys and values alternately from KeyBytes and Value, of
// sizes from 8 bytes to 2 KB and, where big is true, one larger than a chunk,
// each beside its AppendKey or AppendValue reference.
func drawKept(n int, base uint64, big bool) []keptKV {
	held := make([]keptKV, 0, n)
	for i := range n {
		id := base + uint64(i)
		if i%2 == 0 {
			held = append(held, keptKV{KeyBytes(id), AppendKey(nil, id)})
			continue
		}
		size := 8 + i*37%2000
		if big && i == n/2+1 {
			size = chunk + 4000
		}
		held = append(held, keptKV{Value(id, size), AppendValue(nil, id, size)})
	}
	return held
}

// checkKept appends to every kept key and value, then checks that each still
// holds its own bytes, and has cap == len: an append to one moves it instead
// of writing into the next one carved from the same chunk. It returns the
// first that does not.
func checkKept(held []keptKV) error {
	for _, h := range held {
		_ = append(h.got, 0xFF, 0xFF, 0xFF, 0xFF)
	}
	for i, h := range held {
		if !bytes.Equal(h.got, h.want) {
			return fmt.Errorf("kept key or value %d of %d (len %d) was written by an append to another", i, len(held), len(h.got))
		}
	}
	for i, h := range held {
		if cap(h.got) != len(h.got) {
			return fmt.Errorf("kept key or value %d: len %d cap %d, want cap == len", i, len(h.got), cap(h.got))
		}
	}
	return nil
}

// KeyBytes' and Value's results are the caller's to keep and to write: the
// arena never hands the same bytes out twice, and an append to one leaves
// every other as it was.
func TestKeysAndValuesAreTheCallersToKeep(t *testing.T) {
	if err := checkKept(drawKept(2000, 0, true)); err != nil {
		t.Fatal(err)
	}
}

// Eight goroutines draw from the one arena at once (`make race` runs this
// under the detector): each keeps its own keys and values, intact.
func TestConcurrentDrawsEachKeepTheirOwn(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := checkKept(drawKept(1000, uint64(g)<<32, g == 0)); err != nil {
				t.Errorf("goroutine %d: %v", g, err)
			}
		}()
	}
	wg.Wait()
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

// BenchmarkValue and BenchmarkKeyBytes report mallocs/op beside -benchmem's
// whole allocs/op: both carve from arena chunks, a fraction of an allocation
// per call.
func BenchmarkValue(b *testing.B) {
	b.ReportAllocs()
	n := mallocs(func() {
		for i := 0; i < b.N; i++ {
			sink = Value(uint64(i), 1000)
		}
	})
	b.ReportMetric(float64(n)/float64(b.N), "mallocs/op")
}

func BenchmarkKeyBytes(b *testing.B) {
	b.ReportAllocs()
	n := mallocs(func() {
		for i := 0; i < b.N; i++ {
			sink = KeyBytes(uint64(i))
		}
	})
	b.ReportMetric(float64(n)/float64(b.N), "mallocs/op")
}

// mallocs returns how many heap objects fn allocates.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// refZipfNext is zipfGen.next as first written, with the second key's bound
// computed on every draw; it stays here as the reference next is held to.
func refZipfNext(z *zipfGen, rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// TestZipfianNextMatchesFormula: the bound next keeps in the generator draws
// every key the per-draw formula did, over key spaces below and above
// zetaStatic's exact-sum limit.
func TestZipfianNextMatchesFormula(t *testing.T) {
	for _, n := range []uint64{1, 2, 3, 100, 10000, 20000, 1 << 20} {
		z := newZipf(n, 0.99)
		got, want := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
		for i := range 200000 {
			if g, w := z.next(got), refZipfNext(z, want); g != w {
				t.Fatalf("n=%d draw %d: key %d, the formula draws %d", n, i, g, w)
			}
		}
	}
}

func BenchmarkZipfianNext(b *testing.B) {
	z := newZipf(20000, 0.99)
	rng := rand.New(rand.NewSource(1))
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum += z.next(rng)
	}
	zipfSink = sum
}

var zipfSink uint64
