package kreon

import (
	"bytes"
	"fmt"
	"runtime"
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

// What the data path allocates per operation once its scratch buffers exist:
// a Get only the arena chunks its values are carved from — about one per 32
// values of 1,000 bytes, counted over 320 Gets since a chunk is a fraction of
// an allocation per Get — and a Put of a key level 0 holds nothing.
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
		// The first chunks are 4, 8 and 16 KB, then 32 KB: 32 values each.
		getBudget(t, "a tree hit", p, db, gets, 3+gets*1000/(32<<10)+1, func(i int) uint64 { return uint64(i*7) % records })
		db.Put(p, ycsb.AppendKey(key[:0], 3), ycsb.AppendValue(val[:0], 3, 1000))
		if n := testing.AllocsPerRun(200, func() {
			db.Put(p, ycsb.AppendKey(key[:0], 3), ycsb.AppendValue(val[:0], 3, 1000))
		}); n != 0 {
			t.Errorf("Put of a key level 0 holds: %v allocs, want 0", n)
		}
		getBudget(t, "a level-0 hit", p, db, gets, gets*1000/(32<<10)+1, func(int) uint64 { return 3 })
	})
}

// getBudget runs gets Gets of the ids id(i) on db, three times over, and
// checks that each run made at most chunks arena chunks and that the least of
// the runs made no allocation but its chunks: now and then the runtime's own
// work allocates inside one window.
func getBudget(t *testing.T, what string, p *engine.Proc, db *DB, gets, chunks int, id func(i int) uint64) {
	t.Helper()
	key := make([]byte, 0, 30)
	extra := ^uint64(0)
	for w := range 3 {
		made := db.vals.Chunks()
		n := mallocs(func() {
			for i := range gets {
				key = ycsb.AppendKey(key[:0], id(i))
				if _, ok := db.Get(p, key); !ok {
					t.Fatalf("%s: key %d missed", what, id(i))
				}
			}
		})
		made = db.vals.Chunks() - made
		if made > chunks {
			t.Errorf("%d Gets on %s, window %d: %d arena chunks, want at most %d", gets, what, w, made, chunks)
		}
		extra = min(extra, n-uint64(made))
	}
	if extra != 0 {
		t.Errorf("%d Gets on %s: at least %d allocations beside the arena's chunks in each of three windows, want none",
			gets, what, extra)
	}
}

// Get's result is the caller's to keep (ycsb.KV): values kept through later
// Gets, Puts of the same keys and spills read as they did, and each has
// cap == len, so an append to one moves it instead of writing into the value
// carved beside it. Level-0 and tree hits are both kept here.
func TestGetResultsAreTheCallersToKeep(t *testing.T) {
	e := engine.New(engine.Config{NumCPUs: 1, Seed: 1})
	run1(e, func(p *engine.Proc) {
		const keys = 48
		db := memStore(p, Options{L0Entries: 32})
		value := func(id uint64, round int) []byte { return ycsb.Value(id+uint64(round)*keys, 40+int(id%7)*100) }
		type kept struct{ got, want []byte }
		var held []kept
		for round := range 3 {
			for id := range uint64(keys) {
				db.Put(p, ycsb.KeyBytes(id), value(id, round))
			}
			for id := range uint64(keys) {
				v, ok := db.Get(p, ycsb.KeyBytes(id))
				if !ok {
					t.Fatalf("round %d: key %d missed", round, id)
				}
				held = append(held, kept{v, value(id, round)})
			}
		}
		if db.Spills < 3 || db.L0Size() == 0 {
			t.Fatalf("set-up: %d spills, %d level-0 entries: the Gets did not take both paths", db.Spills, db.L0Size())
		}
		for _, h := range held {
			_ = append(h.got, 0xFF, 0xFF, 0xFF, 0xFF)
		}
		for i, h := range held {
			if !bytes.Equal(h.got, h.want) || cap(h.got) != len(h.got) {
				t.Fatalf("kept value %d: intact %v, len %d cap %d; want intact with cap == len",
					i, bytes.Equal(h.got, h.want), len(h.got), cap(h.got))
			}
		}
	})
}

// mallocs returns how many heap objects fn allocates.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
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
// allocs/op: the values are carved from arena chunks, a fraction of an
// allocation per Get.
func BenchmarkKreonGetTreeHit(b *testing.B) {
	const records = 20000
	benchStore(b, records, func(p *engine.Proc, db *DB) {
		var key []byte
		n := mallocs(func() {
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
