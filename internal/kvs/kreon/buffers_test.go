package kreon

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"aquila/internal/kvs/kvtest"
	"aquila/internal/sim/engine"
	"aquila/internal/ycsb"
)

// spawnN starts n simulated threads from inside a running one, on CPUs 1..n.
// They begin at their parent's clock (a thread spawned from outside Run begins
// at cycle 0, long before a store loaded in an earlier Run), so they run
// interleaved with each other from their first instruction.
func spawnN(e *engine.Engine, n int, fn func(t int, p *engine.Proc)) {
	for t := 0; t < n; t++ {
		e.Spawn(1+t, fmt.Sprintf("t%d", t), func(p *engine.Proc) { fn(t, p) })
	}
}

// memStore opens a store over an in-memory mapping: nothing under the store
// allocates or yields, so what the tests below count is the store's own.
func memStore(p *engine.Proc, opts Options) *DB {
	if opts.LogBytes == 0 {
		opts.LogBytes, opts.IndexBytes = 8*mib, 8*mib
	}
	size := pageSize + opts.LogBytes + opts.IndexBytes
	var ns kvtest.Namespace
	return OpenWithMapping(p, opts, ns.Mmap(p, ns.Create(p, "kreon.data", size), size))
}

// Two threads putting at once must not share a log offset: Store yields inside
// its faults (the cache is smaller than the log window written here), so a Put
// that read the head before its Store and advanced it after let both threads
// write one range, and both keys then pointed at one record.
func TestConcurrentPutsReserveDistinctLogRanges(t *testing.T) {
	const perThread, valSize = 700, 1000
	e, os := world(1 * mib)
	var db *DB
	run1(e, func(p *engine.Proc) {
		db = openKmmap(p, os, Options{L0Entries: 1 << 20})
		spawnN(e, 2, func(th int, p *engine.Proc) {
			for i := uint64(0); i < perThread; i++ {
				id := i*2 + uint64(th)
				db.Put(p, ycsb.KeyBytes(id), ycsb.Value(id, valSize))
			}
		})
	})
	if db.Spills != 0 || db.L0Size() != 2*perThread {
		t.Fatalf("set-up: %d spills, %d level-0 entries", db.Spills, db.L0Size())
	}
	if want := uint64(db.logBase + 2*perThread*(recHeader+keySize+valSize)); db.logHead != want {
		t.Errorf("log head %d, want %d: ranges overlapped or left gaps", db.logHead, want)
	}
	run1(e, func(p *engine.Proc) {
		for id := uint64(0); id < 2*perThread; id++ {
			if v, ok := db.Get(p, ycsb.KeyBytes(id)); !ok || !bytes.Equal(v, ycsb.Value(id, valSize)) {
				t.Fatalf("key %d does not read back its own value", id)
			}
		}
	})
}

// Two threads inside a tree lookup at once — the cache holds a fraction of the
// tree and the log, so Load yields between and inside node visits — must each
// search the node they read. One scratch buffer shared by the store would hand
// one thread the other's node.
func TestConcurrentGetsEachSeeTheirOwnNode(t *testing.T) {
	const records, valSize = 6000, 200
	e, os := world(1 * mib)
	var db *DB
	var faults uint64
	run1(e, func(p *engine.Proc) {
		db = openKmmap(p, os, Options{L0Entries: records})
		for id := uint64(0); id < records; id++ {
			db.Put(p, ycsb.KeyBytes(id), ycsb.Value(id, valSize))
		}
		if db.Spills != 1 || db.L0Size() != 0 {
			t.Fatalf("set-up: %d spills, %d level-0 entries", db.Spills, db.L0Size())
		}
		faults = os.Cache.Inserted
		spawnN(e, 2, func(th int, p *engine.Proc) {
			// Opposite halves of the key space: the walks share only the root.
			for i := uint64(0); i < 1500; i++ {
				id := (i*37 + uint64(th)*(records/2)) % records
				if v, ok := db.Get(p, ycsb.KeyBytes(id)); !ok || !bytes.Equal(v, ycsb.Value(id, valSize)) {
					t.Errorf("thread %d: key %d does not read back its own value", th, id)
					return
				}
			}
		})
	})
	if fills := os.Cache.Inserted - faults; fills < 1000 || db.bufs.Free() < 2 {
		t.Fatalf("%d page fills, %d scratch buffers: the threads never held a node each at once, the test shows nothing", fills, db.bufs.Free())
	}
}

// A value longer than the record header's 16-bit length used to be stored
// with the length wrapped, and Get and Reopen then read garbage.
func TestPutRejectsValueLongerThanHeaderCanSay(t *testing.T) {
	e := engine.New(engine.Config{NumCPUs: 1, Seed: 1})
	run1(e, func(p *engine.Proc) {
		db := memStore(p, Options{})
		longest := bytes.Repeat([]byte{7}, 65535)
		db.Put(p, ycsb.KeyBytes(1), longest)
		if v, ok := db.Get(p, ycsb.KeyBytes(1)); !ok || !bytes.Equal(v, longest) {
			t.Fatal("a 65,535-byte value does not read back")
		}
		head := db.logHead
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "65536") {
				t.Errorf("Put of a 65,536-byte value: recovered %q, want a panic naming the length", msg)
			}
			if db.logHead != head || db.L0Size() != 1 {
				t.Error("the rejected Put touched the store")
			}
		}()
		db.Put(p, ycsb.KeyBytes(2), append(longest, 7))
	})
}

// A key longer than the fixed key size used to be cut to it: two 32-byte keys
// that share their first 30 bytes became one level-0 entry, and Get of the
// first returned the second's value. A shorter key still zero-pads.
func TestLongKeyIsRejectedNotCut(t *testing.T) {
	e := engine.New(engine.Config{NumCPUs: 1, Seed: 1})
	run1(e, func(p *engine.Proc) {
		db := memStore(p, Options{})
		short := []byte("short-key")
		db.Put(p, short, []byte("value-of-short"))
		if v, ok := db.Get(p, short); !ok || string(v) != "value-of-short" {
			t.Fatalf("a 9-byte key reads back %q, %v", v, ok)
		}
		head := db.logHead
		keyA := append(bytes.Repeat([]byte("u"), keySize), "-A"...)
		for name, op := range map[string]func(){
			"Put":  func() { db.Put(p, keyA, []byte("value-of-A")) },
			"Get":  func() { db.Get(p, keyA) },
			"Scan": func() { db.Scan(p, keyA, 1) },
		} {
			func() {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, "key of 32 bytes") {
						t.Errorf("%s of a 32-byte key: recovered %q, want a panic naming the length", name, msg)
					}
				}()
				op()
			}()
		}
		if db.logHead != head || db.L0Size() != 1 {
			t.Error("a rejected key touched the store")
		}
	})
}

// What the data path allocates per operation once its scratch buffers and the
// thread's held value buffer exist: nothing, for a Get on a tree hit, a Put of
// a key level 0 holds and a Get on a level-0 hit.
func TestKreonDataPathAllocations(t *testing.T) {
	e := engine.New(engine.Config{NumCPUs: 1, Seed: 1})
	run1(e, func(p *engine.Proc) {
		const records, gets = 1000, 320
		db := memStore(p, Options{L0Entries: records})
		key, val := make([]byte, 0, 30), make([]byte, 0, 1000)
		for id := uint64(0); id < records; id++ {
			db.Put(p, ycsb.AppendKey(key[:0], id), ycsb.AppendValue(val[:0], id, 1000))
		}
		if db.Spills != 1 || db.L0Size() != 0 {
			t.Fatalf("set-up: %d spills, %d level-0 entries", db.Spills, db.L0Size())
		}
		getsAllocateNothing(t, "a tree hit", p, db, gets, func(i int) uint64 { return uint64(i*7) % records })
		db.Put(p, ycsb.AppendKey(key[:0], 3), ycsb.AppendValue(val[:0], 3, 1000))
		if n := testing.AllocsPerRun(200, func() {
			db.Put(p, ycsb.AppendKey(key[:0], 3), ycsb.AppendValue(val[:0], 3, 1000))
		}); n != 0 {
			t.Errorf("Put of a key level 0 holds: %v allocs, want 0", n)
		}
		getsAllocateNothing(t, "a level-0 hit", p, db, gets, func(int) uint64 { return 3 })
	})
}

// getsAllocateNothing runs one Get to warm up, then gets Gets of the ids id(i)
// on db, and checks that the least of three such windows allocated nothing.
func getsAllocateNothing(t *testing.T, what string, p *engine.Proc, db *DB, gets int, id func(i int) uint64) {
	t.Helper()
	key := make([]byte, 0, 30)
	get := func(i int) {
		key = ycsb.AppendKey(key[:0], id(i))
		if v, ok := db.Get(p, key); !ok || !ycsb.CheckValue(id(i), v) {
			t.Fatalf("%s: key %d does not read back", what, id(i))
		}
	}
	get(0)
	if n := kvtest.Mallocs(3, func() {
		for i := range gets {
			get(i)
		}
	}); n != 0 {
		t.Errorf("%d Gets on %s: %d allocations in the least of three windows, want 0", gets, what, n)
	}
}

// Get's result is lent (ycsb.KV): read-only, and valid until the same proc's
// next call on the store. The test's proc holds a value — a tree hit, then a
// level-0 hit — and waits while a second proc runs Gets of both kinds, Puts of
// every key, the spill they reach and a Scan (which reads its values into the
// second proc's buffer); the held value must read as it did, and the holder's
// next Get must return the key's newest value. One buffer per store instead of
// one per proc fails here: the second proc's Gets land in the bytes the first
// still holds.
func TestGetLendsItsValueUntilTheProcsNextCall(t *testing.T) {
	e := engine.New(engine.Config{NumCPUs: 2, Seed: 1})
	run1(e, func(p *engine.Proc) {
		const keys = 64
		db := memStore(p, Options{L0Entries: keys})
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
		// Key 40 is a tree hit, key 3 a level-0 hit: keys 0-9 are put again.
		for round, held := range []uint64{40, 3} {
			version++
			for id := range uint64(10) {
				put(p, id)
			}
			if db.L0Size() != 10 || db.Spills != uint64(1+round) {
				t.Fatalf("round %d set-up: %d level-0 entries, %d spills", round, db.L0Size(), db.Spills)
			}
			v, ok := db.Get(p, ycsb.KeyBytes(held))
			lent := want[held]
			if !ok || !bytes.Equal(v, lent) {
				t.Fatalf("round %d: key %d does not read back", round, held)
			}
			done := engine.NewWaitGroup(e, "second")
			done.Add(1)
			e.Spawn(1, "second", func(q *engine.Proc) {
				getAll(q)
				version++
				for id := range uint64(keys) {
					put(q, id)
				}
				getAll(q)
				if n := db.Scan(q, ycsb.KeyBytes(0), keys); n != keys {
					t.Errorf("round %d, second proc: a scan saw %d records, want %d", round, n, keys)
				}
				done.Done(q)
			})
			done.Wait(p)
			if db.Spills != uint64(2+round) {
				t.Fatalf("round %d: %d spills, want %d: the second proc's Puts did not spill", round, db.Spills, 2+round)
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

// benchStore is a loaded store for the benchmarks: `records` keys with
// 1,000-byte values, all spilled into the tree.
func benchStore(b *testing.B, records uint64, body func(p *engine.Proc, db *DB)) {
	e := engine.New(engine.Config{NumCPUs: 1, Seed: 1})
	run1(e, func(p *engine.Proc) {
		db := memStore(p, Options{LogBytes: 64 * mib, IndexBytes: 8 * mib, L0Entries: 1 << 30})
		var key, val []byte
		for id := uint64(0); id < records; id++ {
			key, val = ycsb.AppendKey(key[:0], id), ycsb.AppendValue(val[:0], id, 1000)
			db.Put(p, key, val)
		}
		db.spill(p)
		b.ReportAllocs()
		b.ResetTimer()
		body(p, db)
	})
}

// BenchmarkKreonGetTreeHit reports mallocs/op beside -benchmem's whole
// allocs/op: 0, every value lent in the one held buffer of the bench's proc.
func BenchmarkKreonGetTreeHit(b *testing.B) {
	const records = 20000
	benchStore(b, records, func(p *engine.Proc, db *DB) {
		var key []byte
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

func BenchmarkKreonPut(b *testing.B) {
	const records = 20000
	benchStore(b, records, func(p *engine.Proc, db *DB) {
		var key, val []byte
		for i := 0; i < b.N; i++ {
			if db.logHead+2048 > db.idxBase {
				db.logHead = db.logBase // wrap: the benchmark never reads back
			}
			id := uint64(i) * 7919 % records
			key, val = ycsb.AppendKey(key[:0], id), ycsb.AppendValue(val[:0], id, 1000)
			db.Put(p, key, val)
		}
	})
}

// One iteration is 2,000 updates and the spill that merges them into the
// 20,000-entry tree; every spill builds over the last tree's nodes (it has
// read them all by then), so the index region does not grow with b.N.
func BenchmarkKreonSpill(b *testing.B) {
	const records = 20000
	benchStore(b, records, func(p *engine.Proc, db *DB) {
		var key, val []byte
		for i := 0; i < b.N; i++ {
			db.logHead = db.logBase + records*(recHeader+keySize+1000)
			for j := uint64(0); j < 2000; j++ {
				id := (uint64(i)*2000 + j) * 7919 % records
				key, val = ycsb.AppendKey(key[:0], id), ycsb.AppendValue(val[:0], id, 1000)
				db.Put(p, key, val)
			}
			db.idxHead = db.idxBase
			db.spill(p)
		}
	})
}
