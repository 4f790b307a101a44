package lsm

import (
	"bytes"
	"runtime"
	"testing"

	"aquila/internal/kvs/kvtest"
	"aquila/internal/sim/engine"
	"aquila/internal/ycsb"
)

// memDB opens a store over an in-memory namespace: nothing under the store
// allocates or yields, so what the tests below count is the store's own.
func memDB(p *engine.Proc, e *engine.Engine, opts Options) *DB {
	opts.NS = &kvtest.Namespace{}
	opts.Seed = 7
	return Open(p, e, opts)
}

// What the data path allocates per operation once its scratch buffers and the
// thread's held value buffer exist: an mmio Get on a table hit nothing (the
// least of three windows of 320 Gets), a Put of a key the memtable holds only
// the memtable's copy of the value, and the builder's add loop nothing per
// record (the image and the builder, once per table).
func TestLSMDataPathAllocations(t *testing.T) {
	e := engine.New(engine.Config{NumCPUs: 1, Seed: 1})
	run1(e, func(p *engine.Proc) {
		const records = 5000
		db := memDB(p, e, Options{Mode: IOMmap})
		db.BulkLoad(p, records, 1000)
		key, val := make([]byte, 0, 30), make([]byte, 0, 1000)
		const gets = 320
		db.Get(p, ycsb.AppendKey(key[:0], 0)) // the lookup's scratch block, the held value
		if n := kvtest.Mallocs(3, func() {
			for i := range uint64(gets) {
				id := i * 7 % records
				if v, ok := db.Get(p, ycsb.AppendKey(key[:0], id)); !ok || !ycsb.CheckValue(id, v) {
					t.Fatal("table miss")
				}
			}
		}); n != 0 {
			t.Errorf("%d mmio Gets on a table hit: %d allocations in the least of three windows, want 0", gets, n)
		}

		hot := memDB(p, e, Options{Mode: IOMmap, memtableBytes: 4 * mib})
		hot.Put(p, ycsb.AppendKey(key[:0], 3), ycsb.AppendValue(val[:0], 3, 1000))
		if n := testing.AllocsPerRun(200, func() {
			hot.Put(p, ycsb.AppendKey(key[:0], 3), ycsb.AppendValue(val[:0], 3, 1000))
		}); n != 1 {
			t.Errorf("Put of a key the memtable holds: %v allocs, want 1 (the memtable's value)", n)
		}
		if v, ok := hot.Get(p, ycsb.AppendKey(key[:0], 3)); !ok || !bytes.Equal(v, ycsb.Value(3, 1000)) {
			t.Error("the memtable kept the caller's buffer, not a copy")
		}

		const perTable = 6000
		if n := testing.AllocsPerRun(5, func() {
			b := newSSTBuilder(4096, 8*mib)
			for id := uint64(0); id < perTable; id++ {
				b.add(ycsb.AppendKey(key[:0], id), ycsb.AppendValue(val[:0], id, 1000))
			}
			if b.entries != perTable {
				t.Fatal("short table")
			}
		}); n/perTable >= 0.01 {
			t.Errorf("sstBuilder add loop: %v allocs for %d records, want < 0.01 per record", n, perTable)
		}
	})
}

// Get's result is lent (ycsb.KV): read-only, and valid until the same proc's
// next call on the store. The test's proc holds a value — a table hit, then a
// memtable hit — and waits while a second proc runs Gets of both kinds, Puts
// of every key (which flush and compact) and a flush of its own; the held value
// must read as it did, and the holder's next Get must return the key's newest
// value. One buffer per store instead of one per proc fails here: the second
// proc's table hits land in the bytes the first still holds.
func TestGetLendsItsValueUntilTheProcsNextCall(t *testing.T) {
	e := engine.New(engine.Config{NumCPUs: 2, Seed: 1})
	run1(e, func(p *engine.Proc) {
		const keys = 48
		db := memDB(p, e, Options{Mode: IOMmap, memtableBytes: 8 << 10})
		want := make([][]byte, keys)
		version := 0 // of every key put: each version's values differ
		put := func(p *engine.Proc, id uint64) {
			want[id] = ycsb.Value(id+uint64(version)*keys, 40+int(id%7)*100)
			db.Put(p, ycsb.KeyBytes(id), want[id])
		}
		getAll := func(p *engine.Proc) {
			for id := range uint64(keys) {
				if v, ok := db.Get(p, ycsb.KeyBytes(id)); !ok || !bytes.Equal(v, want[id]) {
					t.Errorf("version %d, second proc: key %d does not read back", version, id)
					return
				}
			}
		}
		for id := range uint64(keys) {
			put(p, id)
		}
		db.Flush(p)
		// Key 40 is a table hit, key 3 a memtable hit: keys 0-9 are put again.
		for round, held := range []uint64{40, 3} {
			version++
			for id := range uint64(10) {
				put(p, id)
			}
			if db.mem.entries != 10 {
				t.Fatalf("round %d set-up: %d memtable entries, want 10", round, db.mem.entries)
			}
			v, ok := db.Get(p, ycsb.KeyBytes(held))
			lent := want[held]
			if !ok || !bytes.Equal(v, lent) {
				t.Fatalf("round %d: key %d does not read back", round, held)
			}
			flushes := db.Flushes
			done := engine.NewWaitGroup(e, "second")
			done.Add(1)
			e.Spawn(1, "second", func(q *engine.Proc) {
				getAll(q)
				version++
				for id := range uint64(keys) {
					put(q, id)
				}
				db.Flush(q)
				getAll(q)
				done.Done(q)
			})
			done.Wait(p)
			if db.Flushes < flushes+2 || db.Compactions == 0 {
				t.Fatalf("round %d: %d flushes, %d compactions: the second proc's Puts never flushed", round, db.Flushes-flushes, db.Compactions)
			}
			if !bytes.Equal(v, lent) {
				t.Errorf("round %d: the value of key %d lent to the waiting proc changed under another proc's calls", round, held)
			}
			if v, ok := db.Get(p, ycsb.KeyBytes(held)); !ok || !bytes.Equal(v, want[held]) {
				t.Errorf("round %d: the next Get of key %d does not return its newest value", round, held)
			}
		}
	})
}

// allocated returns the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// fileBytes sums the sizes of tables' files: over kvtest, each is one
// allocation of exactly that size.
func fileBytes(tables []*SST) uint64 {
	n := uint64(0)
	for _, t := range tables {
		n += t.file.Size()
	}
	return n
}

// A bulk load and a compaction that each close several tables allocate one
// image between them, not one per table: what they allocate beyond the new
// files (and, for the compaction, the source blocks its iterators read) stays
// under two images, where an image per table would be at least three.
func TestOneImagePerBulkLoadAndCompaction(t *testing.T) {
	const target = 256 << 10
	image := uint64(target + target/16 + 2*blockBytes) // newSSTBuilder's capacity
	e := engine.New(engine.Config{NumCPUs: 1, Seed: 1})
	run1(e, func(p *engine.Proc) {
		db := memDB(p, e, Options{Mode: IOMmap, memtableBytes: 64 << 10, SSTTargetBytes: target})
		got := allocated(func() { db.BulkLoad(p, 2500, 400) })
		if n := len(db.levels[1]); n < 3 {
			t.Fatalf("set-up: bulk load closed %d tables, want >= 3", n)
		}
		if extra := got - fileBytes(db.levels[1]); extra >= 2*image {
			t.Errorf("bulk load of %d tables: %d bytes beyond its files, want < %d (one image)", len(db.levels[1]), extra, 2*image)
		}

		var key, val []byte
		for i := uint64(0); len(db.levels[0]) < l0Trigger-1; i++ {
			db.Put(p, ycsb.AppendKey(key[:0], i*7%2500), ycsb.AppendValue(val[:0], i, 300))
		}
		read := db.BlocksRead
		got = allocated(func() { db.compactL0(p) })
		if n := len(db.levels[1]); n < 3 {
			t.Fatalf("set-up: compaction closed %d tables, want >= 3", n)
		}
		extra := got - fileBytes(db.levels[1]) - (db.BlocksRead-read)*blockBytes
		if extra >= 2*image {
			t.Errorf("compaction into %d tables: %d bytes beyond its files and source blocks, want < %d (one image)", len(db.levels[1]), extra, 2*image)
		}
	})
}

// A table built in an image that held a larger one comes out byte for byte as
// it does from a fresh builder: no tail of the old table leaks into the new.
func TestReusedImageHasNoStaleTail(t *testing.T) {
	e := engine.New(engine.Config{NumCPUs: 1, Seed: 1})
	run1(e, func(p *engine.Proc) {
		ns := &kvtest.Namespace{}
		small := func(b *sstBuilder) {
			for id := uint64(0); id < 30; id++ {
				b.add(ycsb.KeyBytes(id), ycsb.Value(id, 50))
			}
		}
		b := newSSTBuilder(blockBytes, 0)
		for id := uint64(0); id < 400; id++ {
			b.add(ycsb.KeyBytes(id^0xFFFF), ycsb.Value(id, 900))
		}
		_, large := b.finish(p, ns, "large", 1, false)
		b.reuse(large)
		small(b)
		rtab, reused := b.finish(p, ns, "reused", 2, false)
		if &reused[0] != &large[0] {
			t.Fatal("the second table was not built in the first one's image")
		}
		fresh := newSSTBuilder(blockBytes, 0)
		small(fresh)
		ftab, want := fresh.finish(p, ns, "fresh", 3, false)
		if !bytes.Equal(reused, want) {
			t.Errorf("reused image differs from a fresh one (%d vs %d bytes)", len(reused), len(want))
		}
		a, f := rtab.file, ftab.file
		ab, fb := make([]byte, a.Size()), make([]byte, f.Size())
		a.Pread(p, ab, 0)
		f.Pread(p, fb, 0)
		if !bytes.Equal(ab, fb) {
			t.Error("reused table's file differs from a fresh one's")
		}
	})
}

// On a miss the cache keeps the block readBlock read, not a copy of it, and
// the next read of that block returns the same buffer.
func TestBlockCacheKeepsTheReadBlock(t *testing.T) {
	e := engine.New(engine.Config{NumCPUs: 1, Seed: 1})
	run1(e, func(p *engine.Proc) {
		db := memDB(p, e, Options{Mode: IODirectCached})
		db.BulkLoad(p, 200, 100)
		tbl := db.levels[1][0]
		missed := db.readBlock(p, tbl, 1, nil)
		if db.cache.Misses != 1 || db.cache.Resident() != 1 {
			t.Fatalf("set-up: %d misses, %d resident", db.cache.Misses, db.cache.Resident())
		}
		if cached := db.cache.Get(p, tbl.id, 1); &cached[0] != &missed[0] {
			t.Error("the cache holds a copy, not the block readBlock returned")
		}
		if hit := db.readBlock(p, tbl, 1, nil); &hit[0] != &missed[0] {
			t.Error("a hit returned another buffer than the miss cached")
		}
	})
}

// One iteration bulk-loads 20,000 1 KB records (three 8 MB tables). B/op is
// one builder image for the three tables (~8.6 MB) plus one copy of every
// table: the in-memory namespace's file, which stands in for the device.
func BenchmarkLSMBulkLoad(b *testing.B) {
	e := engine.New(engine.Config{NumCPUs: 1, Seed: 1})
	run1(e, func(p *engine.Proc) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			memDB(p, e, Options{Mode: IOMmap}).BulkLoad(p, 20000, 1000)
		}
	})
}

// BenchmarkLSMGetMmio reports mallocs/op beside -benchmem's whole allocs/op:
// 0, every value lent in the one held buffer of the bench's proc.
func BenchmarkLSMGetMmio(b *testing.B) {
	const records = 20000
	e := engine.New(engine.Config{NumCPUs: 1, Seed: 1})
	run1(e, func(p *engine.Proc) {
		db := memDB(p, e, Options{Mode: IOMmap})
		db.BulkLoad(p, records, 1000)
		var key []byte
		b.ReportAllocs()
		b.ResetTimer()
		n := kvtest.Mallocs(1, func() {
			for i := 0; i < b.N; i++ {
				key = ycsb.AppendKey(key[:0], uint64(i)*7919%records)
				if _, ok := db.Get(p, key); !ok {
					b.Fatal("miss")
				}
			}
		})
		b.ReportMetric(float64(n)/float64(b.N), "mallocs/op")
	})
}

// Every Get misses a block cache of one block per shard and reads its block
// with Pread; B/op is that block and the cache's entry for it (the value is
// lent in the bench's proc's held buffer).
func BenchmarkLSMGetDirectCachedMiss(b *testing.B) {
	const records = 20000
	e := engine.New(engine.Config{NumCPUs: 1, Seed: 1})
	run1(e, func(p *engine.Proc) {
		db := memDB(p, e, Options{Mode: IODirectCached, BlockCacheBytes: 16 * blockBytes})
		db.BulkLoad(p, records, 1000)
		var key []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key = ycsb.AppendKey(key[:0], uint64(i)*7919%records)
			if _, ok := db.Get(p, key); !ok {
				b.Fatal("miss")
			}
		}
	})
}
