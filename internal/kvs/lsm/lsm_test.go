package lsm

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"aquila/internal/host"
	"aquila/internal/iface"
	"aquila/internal/sim/device"
	"aquila/internal/sim/engine"
	"aquila/internal/ycsb"
)

const mib = 1 << 20

func TestSkiplist(t *testing.T) {
	s := newSkiplist(1)
	s.put([]byte("b"), []byte("2"))
	s.put([]byte("a"), []byte("1"))
	s.put([]byte("c"), []byte("3"))
	if v, ok, _ := s.get([]byte("b")); !ok || string(v) != "2" {
		t.Fatalf("get b = %q %v", v, ok)
	}
	s.put([]byte("b"), []byte("2x")) // overwrite
	if v, _, _ := s.get([]byte("b")); string(v) != "2x" {
		t.Fatalf("overwrite failed: %q", v)
	}
	if _, ok, _ := s.get([]byte("zz")); ok {
		t.Fatal("missing key found")
	}
	// In-order traversal.
	var keys []string
	for n := s.first(); n != nil; n = n.next[0] {
		keys = append(keys, string(n.key))
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("order %v", keys)
		}
	}
	if n := s.seek([]byte("aa")); string(n.key) != "b" {
		t.Fatalf("seek(aa) = %q", n.key)
	}
}

func TestSkiplistMatchesMapProperty(t *testing.T) {
	check := func(ops []uint16) bool {
		s := newSkiplist(2)
		ref := make(map[string]string)
		for i, o := range ops {
			k := fmt.Sprintf("k%04d", o%512)
			v := fmt.Sprintf("v%d", i)
			s.put([]byte(k), []byte(v))
			ref[k] = v
		}
		if s.entries != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok, _ := s.get([]byte(k))
			if !ok || string(got) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBloom(t *testing.T) {
	f := newBloom(1000, 10)
	for i := 0; i < 1000; i++ {
		f.add([]byte(fmt.Sprintf("key-%d", i)))
	}
	for i := 0; i < 1000; i++ {
		if !f.mayContain([]byte(fmt.Sprintf("key-%d", i))) {
			t.Fatalf("false negative on key-%d", i)
		}
	}
	fp := 0
	for i := 0; i < 10000; i++ {
		if f.mayContain([]byte(fmt.Sprintf("other-%d", i))) {
			fp++
		}
	}
	if fp > 300 { // ~1% expected at 10 bits/key; allow 3%
		t.Errorf("false positive rate too high: %d/10000", fp)
	}
}

// world builds a host namespace over pmem for DB tests.
func world(cacheBytes uint64) (*engine.Engine, iface.Namespace) {
	e := engine.New(engine.Config{NumCPUs: 4, Seed: 1})
	disk := host.NewPMemDisk("pmem0", device.NewPMem(1<<30, device.DefaultPMemConfig()))
	os := host.NewOS(e, disk, cacheBytes)
	return e, &host.Namespace{OS: os, Direct: true}
}

func run1(e *engine.Engine, fn func(p *engine.Proc)) {
	e.Spawn(0, "t", fn)
	e.Run()
}

func openTestDB(p *engine.Proc, e *engine.Engine, ns iface.Namespace, mode IOMode) *DB {
	return Open(p, e, Options{
		NS: ns, Mode: mode,
		memtableBytes:   64 << 10,
		SSTTargetBytes:  256 << 10,
		BlockCacheBytes: 1 << 20,
		Seed:            7,
	})
}

func TestDBPutGetSmall(t *testing.T) {
	e, ns := world(64 * mib)
	run1(e, func(p *engine.Proc) {
		db := openTestDB(p, e, ns, IODirectCached)
		for i := uint64(0); i < 100; i++ {
			db.Put(p, ycsb.KeyBytes(i), ycsb.Value(i, 100))
		}
		for i := uint64(0); i < 100; i++ {
			v, ok := db.Get(p, ycsb.KeyBytes(i))
			if !ok || !ycsb.CheckValue(i, v) {
				t.Fatalf("get %d failed (ok=%v)", i, ok)
			}
		}
		if _, ok := db.Get(p, ycsb.KeyBytes(1000)); ok {
			t.Fatal("missing key found")
		}
	})
}

func TestDBFlushAndCompaction(t *testing.T) {
	e, ns := world(64 * mib)
	run1(e, func(p *engine.Proc) {
		db := openTestDB(p, e, ns, IODirectCached)
		const n = 3000 // 100-byte values -> several flushes and a compaction
		for i := uint64(0); i < n; i++ {
			db.Put(p, ycsb.KeyBytes(i%1500), ycsb.Value(i, 100))
		}
		if db.Flushes == 0 {
			t.Error("no flushes happened")
		}
		if db.Compactions == 0 {
			t.Error("no compactions happened")
		}
		// Newest version must win.
		for i := uint64(0); i < 1500; i++ {
			wantID := i
			if i < n-1500 {
				wantID = i + 1500
			}
			v, ok := db.Get(p, ycsb.KeyBytes(i))
			if !ok {
				t.Fatalf("key %d missing after compaction", i)
			}
			if !ycsb.CheckValue(wantID, v) {
				t.Fatalf("key %d: stale version", i)
			}
		}
	})
}

func TestDBAllModesReadBack(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode IOMode
	}{
		{"direct-cached", IODirectCached},
		{"mmap", IOMmap},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := engine.New(engine.Config{NumCPUs: 4, Seed: 1})
			disk := host.NewPMemDisk("pmem0", device.NewPMem(1<<30, device.DefaultPMemConfig()))
			os := host.NewOS(e, disk, 64*mib)
			ns := &host.Namespace{OS: os, Direct: tc.mode == IODirectCached}
			run1(e, func(p *engine.Proc) {
				db := openTestDB(p, e, ns, tc.mode)
				db.BulkLoad(p, 2000, 100)
				for i := uint64(0); i < 2000; i += 37 {
					v, ok := db.Get(p, ycsb.KeyBytes(i))
					if !ok || !ycsb.CheckValue(i, v) {
						t.Fatalf("get %d in mode %s failed", i, tc.name)
					}
				}
			})
		})
	}
}

func TestDBBulkLoadCreatesLeveledTables(t *testing.T) {
	e, ns := world(64 * mib)
	run1(e, func(p *engine.Proc) {
		db := openTestDB(p, e, ns, IODirectCached)
		db.BulkLoad(p, 5000, 100)
		lv := levelSizes(db)
		if lv[0] != 0 {
			t.Errorf("L0 = %d, want 0 after bulk load", lv[0])
		}
		if lv[1] < 2 {
			t.Errorf("L1 = %d, want >= 2 tables", lv[1])
		}
	})
}

func TestDBScan(t *testing.T) {
	e, ns := world(64 * mib)
	run1(e, func(p *engine.Proc) {
		db := openTestDB(p, e, ns, IODirectCached)
		db.BulkLoad(p, 1000, 100)
		// Fresh updates in the memtable must merge into scans.
		db.Put(p, ycsb.KeyBytes(500), ycsb.Value(9999, 100))
		got := db.Scan(p, ycsb.KeyBytes(495), 10)
		if got != 10 {
			t.Errorf("scan returned %d, want 10", got)
		}
		// Scan past the end is truncated.
		got = db.Scan(p, ycsb.KeyBytes(995), 100)
		if got != 5 {
			t.Errorf("tail scan returned %d, want 5", got)
		}
	})
}

func TestDBScanSeesNewestVersion(t *testing.T) {
	e, ns := world(64 * mib)
	run1(e, func(p *engine.Proc) {
		db := openTestDB(p, e, ns, IODirectCached)
		db.BulkLoad(p, 100, 100)
		db.Put(p, ycsb.KeyBytes(50), []byte("NEWEST"))
		it := db.newMergeIter(p, ycsb.KeyBytes(50))
		k, v, ok := it.next(p)
		if !ok || ycsb.KeyID(k) != 50 || string(v) != "NEWEST" {
			t.Fatalf("merged iter: key=%v val=%q ok=%v", k, v, ok)
		}
		// Next key is 51, not a stale 50.
		k, _, ok = it.next(p)
		if !ok || ycsb.KeyID(k) != 51 {
			t.Fatalf("second key = %d", ycsb.KeyID(k))
		}
	})
}

func TestBlockCacheLRU(t *testing.T) {
	e := engine.New(engine.Config{NumCPUs: 1, Seed: 1})
	run1(e, func(p *engine.Proc) {
		c := NewBlockCache(e, 64<<10) // 16 blocks of 4K
		blk := make([]byte, 4096)
		for i := uint64(0); i < 64; i++ {
			c.Insert(p, 1, i, blk)
		}
		if got := c.Resident(); got > 16 {
			t.Errorf("resident %d over capacity", got)
		}
		if c.Evictions == 0 {
			t.Error("no evictions")
		}
		c.Insert(p, 2, 0, blk)
		if c.Get(p, 2, 0) == nil {
			t.Error("fresh insert missing")
		}
		if c.Hits == 0 {
			t.Error("hit not counted")
		}
	})
}

func TestDBWithBlockCacheHitsReduceIO(t *testing.T) {
	e, ns := world(64 * mib)
	run1(e, func(p *engine.Proc) {
		db := openTestDB(p, e, ns, IODirectCached)
		db.BulkLoad(p, 1000, 100)
		db.Get(p, ycsb.KeyBytes(10))
		missesAfterFirst := db.cache.Misses
		db.Get(p, ycsb.KeyBytes(10))
		if db.cache.Misses != missesAfterFirst {
			t.Error("second get of same key missed the block cache")
		}
		if db.cache.Hits == 0 {
			t.Error("no block-cache hits")
		}
	})
}

// A built table's index names each block's first key as the file holds it,
// its key range is its first and last key, and its filter passes every key it
// holds — for 16 KB blocks of one 9 KB record each too, whose padding is
// longer than zeroPad.
func TestSSTBuildIndexRangeAndFilter(t *testing.T) {
	for _, tc := range []struct{ block, value int }{{4096, 64}, {16384, 9000}} {
		e, ns := world(64 * mib)
		run1(e, func(p *engine.Proc) {
			const records = 500
			b := newSSTBuilder(tc.block, 0) // no size hint: the image grows by append
			for i := uint64(0); i < records; i++ {
				b.add(ycsb.KeyBytes(i), ycsb.Value(i, tc.value))
			}
			built, _ := b.finish(p, ns, "table1", 1, false)
			if built.blockCount < 2 || len(built.firstKeys) != built.blockCount {
				t.Fatalf("%d blocks, %d index keys", built.blockCount, len(built.firstKeys))
			}
			blk := make([]byte, tc.block)
			for i := range built.blockCount {
				built.file.Pread(p, blk, uint64(i*tc.block))
				scanBlock(blk, func(k, _ []byte) bool {
					if !bytes.Equal(k, built.firstKeys[i]) {
						t.Errorf("block %d: index key %q, the file's first key %q", i, built.firstKeys[i], k)
					}
					return false
				})
			}
			if !bytes.Equal(built.smallest, ycsb.KeyBytes(0)) || !bytes.Equal(built.largest, ycsb.KeyBytes(records-1)) {
				t.Error("built table's key range is not its first and last key")
			}
			for i := uint64(0); i < records; i++ {
				if !built.filter.mayContain(ycsb.KeyBytes(i)) {
					t.Fatalf("filter lost key %d", i)
				}
			}
		})
	}
}

func TestDBAgainstYCSBDriver(t *testing.T) {
	e, ns := world(64 * mib)
	run1(e, func(p *engine.Proc) {
		db := openTestDB(p, e, ns, IODirectCached)
		db.BulkLoad(p, 500, 100)
		g := ycsb.NewGenerator(ycsb.Config{
			Workload: ycsb.WorkloadA, Records: 500, ValueSize: 100, Seed: 3,
		})
		res := ycsb.RunThread(p, db, g, 300)
		if res.Misses != 0 {
			t.Errorf("YCSB read misses: %d", res.Misses)
		}
		if res.Lat.Count() != 300 {
			t.Errorf("latency samples: %d", res.Lat.Count())
		}
	})
}

// Property: the full store (memtable + flushes + compactions over the
// simulated world) behaves as a map under random put/get sequences.
func TestDBMatchesMapModelProperty(t *testing.T) {
	type op struct {
		Key   uint16
		Val   uint16
		IsGet bool
	}
	check := func(ops []op) bool {
		e, ns := world(64 * mib)
		okAll := true
		run1(e, func(p *engine.Proc) {
			db := Open(p, e, Options{
				NS: ns, Mode: IODirectCached,
				memtableBytes:  8 << 10, // tiny: force flush/compaction churn
				SSTTargetBytes: 32 << 10,
				Seed:           11,
			})
			ref := make(map[uint64]uint64)
			for _, o := range ops {
				k := uint64(o.Key % 200)
				if o.IsGet {
					v, ok := db.Get(p, ycsb.KeyBytes(k))
					wantV, want := ref[k]
					if ok != want {
						okAll = false
						return
					}
					if ok && !ycsb.CheckValue(wantV, v) {
						okAll = false
						return
					}
				} else {
					val := uint64(o.Val)
					db.Put(p, ycsb.KeyBytes(k), ycsb.Value(val, 120))
					ref[k] = val
				}
			}
			// Final: every key readable with its newest value.
			for k, wantV := range ref {
				v, ok := db.Get(p, ycsb.KeyBytes(k))
				if !ok || !ycsb.CheckValue(wantV, v) {
					okAll = false
					return
				}
			}
		})
		return okAll
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteTombstones(t *testing.T) {
	e, ns := world(64 * mib)
	run1(e, func(p *engine.Proc) {
		db := openTestDB(p, e, ns, IODirectCached)
		db.BulkLoad(p, 300, 100)
		// Delete a key that lives in L1.
		db.Delete(p, ycsb.KeyBytes(150))
		if _, ok := db.Get(p, ycsb.KeyBytes(150)); ok {
			t.Fatal("deleted key still visible")
		}
		// Scans skip it.
		if got := db.Scan(p, ycsb.KeyBytes(148), 4); got != 4 {
			t.Errorf("scan = %d, want 4 (skipping the tombstone)", got)
		}
		// Re-insert resurrects it.
		db.Put(p, ycsb.KeyBytes(150), ycsb.Value(150, 100))
		if v, ok := db.Get(p, ycsb.KeyBytes(150)); !ok || !ycsb.CheckValue(150, v) {
			t.Fatal("re-inserted key missing")
		}
	})
}

func TestTombstonesDroppedAtCompaction(t *testing.T) {
	e, ns := world(64 * mib)
	run1(e, func(p *engine.Proc) {
		db := Open(p, e, Options{
			NS: ns, Mode: IODirectCached,
			memtableBytes: 8 << 10, SSTTargetBytes: 64 << 10, Seed: 3,
		})
		for i := uint64(0); i < 400; i++ {
			db.Put(p, ycsb.KeyBytes(i), ycsb.Value(i, 100))
		}
		for i := uint64(0); i < 400; i += 2 {
			db.Delete(p, ycsb.KeyBytes(i))
		}
		// Force everything through compaction into L1.
		db.Flush(p)
		for levelSizes(db)[0] > 0 {
			db.compactL0(p)
		}
		// Deleted keys gone, survivors intact.
		for i := uint64(0); i < 400; i++ {
			v, ok := db.Get(p, ycsb.KeyBytes(i))
			if i%2 == 0 {
				if ok {
					t.Fatalf("key %d visible after delete+compaction", i)
				}
			} else if !ok || !ycsb.CheckValue(i, v) {
				t.Fatalf("key %d lost", i)
			}
		}
		// The bottom level holds no tombstones: total L1 entries == survivors.
		total := 0
		for _, t2 := range db.levels[1] {
			total += t2.Entries()
		}
		if total != 200 {
			t.Errorf("L1 entries = %d, want 200 (tombstones dropped)", total)
		}
	})
}

func TestCompactionReclaimsSpace(t *testing.T) {
	// Old tables must be deleted after compaction: with a filesystem only
	// a little larger than the live dataset, sustained update churn would
	// exhaust space if replaced SSTs leaked.
	e := engine.New(engine.Config{NumCPUs: 4, Seed: 1})
	disk := host.NewPMemDisk("pmem0", device.NewPMem(24*mib, device.DefaultPMemConfig()))
	os := host.NewOS(e, disk, 8*mib)
	ns := &host.Namespace{OS: os, Direct: true}
	run1(e, func(p *engine.Proc) {
		db := Open(p, e, Options{
			NS: ns, Mode: IODirectCached,
			memtableBytes: 64 << 10, SSTTargetBytes: 256 << 10, Seed: 5,
		})
		// ~16 MB of churn through a <= 2 MB live set on a 24 MB disk.
		for i := uint64(0); i < 12000; i++ {
			db.Put(p, ycsb.KeyBytes(i%1000), ycsb.Value(i, 1000))
		}
		if db.Compactions < 3 {
			t.Fatalf("compactions = %d", db.Compactions)
		}
		for i := uint64(0); i < 1000; i++ {
			if _, ok := db.Get(p, ycsb.KeyBytes(i)); !ok {
				t.Fatalf("key %d missing after churn", i)
			}
		}
	})
}

// levelSizes returns the number of tables on each level.
func levelSizes(db *DB) []int {
	out := make([]int, len(db.levels))
	for i, l := range db.levels {
		out[i] = len(l)
	}
	return out
}
