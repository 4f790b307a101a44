package lsm

import (
	"bytes"
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

// What the data path allocates per operation once its scratch buffers exist:
// an mmio Get only the value it returns, a logged Put of a key the memtable
// holds only the memtable's copy of the value, and the builder's add loop
// nothing per record (the image and the builder, once per table).
func TestLSMDataPathAllocations(t *testing.T) {
	e := engine.New(engine.Config{NumCPUs: 1, Seed: 1})
	run1(e, func(p *engine.Proc) {
		const records = 5000
		db := memDB(p, e, Options{Mode: IOMmap, DisableWAL: true})
		db.BulkLoad(p, records, 1000)
		key, val := make([]byte, 0, 30), make([]byte, 0, 1000)
		id := uint64(0)
		if n := testing.AllocsPerRun(200, func() {
			id = (id + 7) % records
			if v, ok := db.Get(p, ycsb.AppendKey(key[:0], id)); !ok || !ycsb.CheckValue(id, v) {
				t.Fatal("table miss")
			}
		}); n != 1 {
			t.Errorf("mmio Get on a table hit: %v allocs, want 1 (the returned value)", n)
		}

		logged := memDB(p, e, Options{Mode: IOMmap, WALBytes: 8 * mib, MemtableBytes: 4 * mib})
		logged.Put(p, ycsb.AppendKey(key[:0], 3), ycsb.AppendValue(val[:0], 3, 1000))
		if n := testing.AllocsPerRun(200, func() {
			logged.Put(p, ycsb.AppendKey(key[:0], 3), ycsb.AppendValue(val[:0], 3, 1000))
		}); n != 1 {
			t.Errorf("logged Put of a key the memtable holds: %v allocs, want 1 (the memtable's value)", n)
		}
		if v, ok := logged.Get(p, ycsb.AppendKey(key[:0], 3)); !ok || !bytes.Equal(v, ycsb.Value(3, 1000)) {
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

// One iteration bulk-loads 20,000 1 KB records (three 8 MB tables). B/op
// includes one copy of every table besides the builder's image: the in-memory
// namespace's file, which stands in for the device.
func BenchmarkLSMBulkLoad(b *testing.B) {
	e := engine.New(engine.Config{NumCPUs: 1, Seed: 1})
	run1(e, func(p *engine.Proc) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			memDB(p, e, Options{Mode: IOMmap, DisableWAL: true}).BulkLoad(p, 20000, 1000)
		}
	})
}

func BenchmarkLSMGetMmio(b *testing.B) {
	const records = 20000
	e := engine.New(engine.Config{NumCPUs: 1, Seed: 1})
	run1(e, func(p *engine.Proc) {
		db := memDB(p, e, Options{Mode: IOMmap, DisableWAL: true})
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
