package kreon

import (
	"testing"

	"aquila/internal/host"
	"aquila/internal/iface"
	"aquila/internal/sim/device"
	"aquila/internal/sim/engine"
	"aquila/internal/ycsb"
)

const mib = 1 << 20

func world(cacheBytes uint64) (*engine.Engine, *host.OS) {
	e := engine.New(engine.Config{NumCPUs: 4, Seed: 1})
	disk := host.NewPMemDisk("pmem0", device.NewPMem(1<<30, device.DefaultPMemConfig()))
	return e, host.NewOS(e, disk, cacheBytes)
}

func run1(e *engine.Engine, fn func(p *engine.Proc)) {
	e.Spawn(0, "t", fn)
	e.Run()
}

func openKmmap(p *engine.Proc, os *host.OS, opts Options) *DB {
	size := uint64(4096) + 64<<20 + 16<<20
	f := os.FS.Create(p, "kreon.data", size)
	m := os.MmapKmmap(p, f, size)
	return OpenWithMapping(p, opts, m)
}

func TestPutGetL0(t *testing.T) {
	e, os := world(64 * mib)
	run1(e, func(p *engine.Proc) {
		ns := &host.Namespace{OS: os}
		db := Open(p, Options{NS: ns})
		for i := uint64(0); i < 100; i++ {
			db.Put(p, ycsb.KeyBytes(i), ycsb.Value(i, 200))
		}
		if db.L0Size() != 100 {
			t.Fatalf("L0 size = %d", db.L0Size())
		}
		for i := uint64(0); i < 100; i++ {
			v, ok := db.Get(p, ycsb.KeyBytes(i))
			if !ok || !ycsb.CheckValue(i, v) {
				t.Fatalf("get %d: ok=%v", i, ok)
			}
		}
		if _, ok := db.Get(p, ycsb.KeyBytes(999)); ok {
			t.Fatal("missing key found")
		}
	})
}

func TestSpillBuildsTree(t *testing.T) {
	e, os := world(64 * mib)
	run1(e, func(p *engine.Proc) {
		db := openKmmap(p, os, Options{L0Entries: 500})
		const n = 1600 // 3+ spills
		for i := uint64(0); i < n; i++ {
			db.Put(p, ycsb.KeyBytes(i), ycsb.Value(i, 100))
		}
		if db.Spills == 0 {
			t.Fatal("no spills")
		}
		if db.TreeEntries() == 0 {
			t.Fatal("tree empty after spill")
		}
		// All keys readable: some from L0, most from the tree.
		for i := uint64(0); i < n; i++ {
			v, ok := db.Get(p, ycsb.KeyBytes(i))
			if !ok || !ycsb.CheckValue(i, v) {
				t.Fatalf("get %d after spill: ok=%v", i, ok)
			}
		}
	})
}

func TestUpdatesWinAfterSpill(t *testing.T) {
	e, os := world(64 * mib)
	run1(e, func(p *engine.Proc) {
		db := openKmmap(p, os, Options{L0Entries: 300})
		for i := uint64(0); i < 600; i++ {
			db.Put(p, ycsb.KeyBytes(i%300), ycsb.Value(i, 100))
		}
		// Record i holds value id i+300 (second round of updates).
		for i := uint64(0); i < 300; i++ {
			v, ok := db.Get(p, ycsb.KeyBytes(i))
			if !ok || !ycsb.CheckValue(i+300, v) {
				t.Fatalf("key %d: stale or missing", i)
			}
		}
	})
}

func TestScanMergesL0AndTree(t *testing.T) {
	e, os := world(64 * mib)
	run1(e, func(p *engine.Proc) {
		db := openKmmap(p, os, Options{L0Entries: 200})
		// Even keys go first (spilled), odd keys stay in L0.
		for i := uint64(0); i < 400; i += 2 {
			db.Put(p, ycsb.KeyBytes(i), ycsb.Value(i, 50))
		}
		db.spill(p)
		for i := uint64(1); i < 100; i += 2 {
			db.Put(p, ycsb.KeyBytes(i), ycsb.Value(i, 50))
		}
		got := db.Scan(p, ycsb.KeyBytes(0), 99)
		if got != 99 {
			t.Errorf("scan = %d, want 99", got)
		}
	})
}

func TestKreonOverAquilaNamespace(t *testing.T) {
	// The same store code runs over Aquila's namespace unmodified.
	e, os := world(64 * mib)
	run1(e, func(p *engine.Proc) {
		ns := &host.Namespace{OS: os}
		_ = ns
	})
	// Aquila world is exercised in the harness tests; here we confirm the
	// store works over plain Linux mmap namespace as the common subset.
	e2, os2 := world(64 * mib)
	run1(e2, func(p *engine.Proc) {
		db := Open(p, Options{NS: &host.Namespace{OS: os2}, L0Entries: 100})
		for i := uint64(0); i < 250; i++ {
			db.Put(p, ycsb.KeyBytes(i), ycsb.Value(i, 100))
		}
		db.Msync(p)
		for i := uint64(0); i < 250; i++ {
			if _, ok := db.Get(p, ycsb.KeyBytes(i)); !ok {
				t.Fatalf("get %d failed", i)
			}
		}
	})
}

func TestKreonYCSBAllWorkloads(t *testing.T) {
	for _, w := range ycsb.All {
		w := w
		t.Run(string(w), func(t *testing.T) {
			e, os := world(64 * mib)
			run1(e, func(p *engine.Proc) {
				db := openKmmap(p, os, Options{L0Entries: 2000})
				const records = 500
				for i := uint64(0); i < records; i++ {
					db.Put(p, ycsb.KeyBytes(i), ycsb.Value(i, 100))
				}
				g := ycsb.NewGenerator(ycsb.Config{
					Workload: w, Records: records, ValueSize: 100, Seed: 5,
				})
				res := ycsb.RunThread(p, db, g, 200)
				if res.Misses != 0 {
					t.Errorf("workload %c: %d read misses", w, res.Misses)
				}
			})
		})
	}
}

func TestKmmapMappingSkipsReadAround(t *testing.T) {
	e, os := world(64 * mib)
	run1(e, func(p *engine.Proc) {
		f := os.FS.Create(p, "k", 4*mib)
		m := os.MmapKmmap(p, f, 4*mib)
		m.Load(p, 0, make([]byte, 8))
		if got := os.Cache.Resident(); got != 1 {
			t.Errorf("kmmap fault brought %d pages, want 1", got)
		}
		var _ iface.Mapping = m
	})
}

func TestKreonRecoveryToLastMsync(t *testing.T) {
	e, os := world(64 * mib)
	run1(e, func(p *engine.Proc) {
		size := uint64(4096) + 64<<20 + 16<<20
		f := os.FS.Create(p, "kreon.data", size)
		m := os.MmapKmmap(p, f, size)
		opts := Options{L0Entries: 300}
		db := OpenWithMapping(p, opts, m)
		// Spilled data + an L0 tail, then msync.
		for i := uint64(0); i < 800; i++ {
			db.Put(p, ycsb.KeyBytes(i), ycsb.Value(i, 100))
		}
		if db.Spills == 0 || db.L0Size() == 0 {
			t.Fatalf("setup: spills=%d l0=%d", db.Spills, db.L0Size())
		}
		db.Msync(p)
		// Post-msync writes that will be lost by the crash.
		db.Put(p, ycsb.KeyBytes(9000), ycsb.Value(9000, 100))

		// "Crash": recover from the same mapping.
		db2 := Reopen(p, opts, m)
		if db2.TreeEntries() != db.TreeEntries() {
			t.Errorf("tree entries %d, want %d", db2.TreeEntries(), db.TreeEntries())
		}
		for i := uint64(0); i < 800; i++ {
			v, ok := db2.Get(p, ycsb.KeyBytes(i))
			if !ok || !ycsb.CheckValue(i, v) {
				t.Fatalf("key %d lost after recovery", i)
			}
		}
		// The unsynced record is gone (durability = last msync).
		if _, ok := db2.Get(p, ycsb.KeyBytes(9000)); ok {
			t.Error("unsynced record survived a crash")
		}
		// The store keeps working after recovery.
		db2.Put(p, ycsb.KeyBytes(800), ycsb.Value(800, 100))
		if v, ok := db2.Get(p, ycsb.KeyBytes(800)); !ok || !ycsb.CheckValue(800, v) {
			t.Error("post-recovery put failed")
		}
	})
}

func TestKreonReopenWithoutSuperblockIsEmpty(t *testing.T) {
	// A crash before the first msync leaves no superblock; reopening such an
	// image must yield a working empty store, never a panic or garbage reads.
	e, os := world(16 * mib)
	run1(e, func(p *engine.Proc) {
		size := uint64(4096) + 8<<20 + 4<<20
		f := os.FS.Create(p, "fresh.data", size)
		m := os.MmapKmmap(p, f, size)
		db := Reopen(p, Options{LogBytes: 8 << 20, IndexBytes: 4 << 20}, m)
		if !db.Recov.FreshStore {
			t.Error("FreshStore not flagged on reopen of never-synced store")
		}
		if db.L0Size() != 0 || db.TreeEntries() != 0 {
			t.Errorf("recovered store not empty: L0=%d tree=%d", db.L0Size(), db.TreeEntries())
		}
		if _, ok := db.Get(p, ycsb.KeyBytes(1)); ok {
			t.Error("empty store served a key")
		}
		db.Put(p, ycsb.KeyBytes(1), ycsb.Value(1, 50))
		if v, ok := db.Get(p, ycsb.KeyBytes(1)); !ok || !ycsb.CheckValue(1, v) {
			t.Error("put/get on recovered empty store failed")
		}
	})
}

func TestKreonRecoveryTruncatesCorruptTail(t *testing.T) {
	// Tail garbage past the committed prefix — a torn or never-completed
	// append — must be detected by CRC and truncated, never served.
	e, os := world(16 * mib)
	run1(e, func(p *engine.Proc) {
		db := openKmmap(p, os, Options{L0Entries: 100000})
		for i := uint64(0); i < 50; i++ {
			db.Put(p, ycsb.KeyBytes(i), ycsb.Value(i, 100))
		}
		db.Msync(p)
		goodHead := db.logHead
		// Forge a post-msync state: append two more records, then corrupt the
		// first one's payload in place (as a torn in-flight write would) and
		// advance the superblock as if the log sync had completed but the
		// record bytes had not.
		db.Put(p, ycsb.KeyBytes(50), ycsb.Value(50, 100))
		db.Put(p, ycsb.KeyBytes(51), ycsb.Value(51, 100))
		db.m.Store(p, goodHead+recHeader+4, []byte{0xde, 0xad, 0xbe, 0xef})
		db.writeSuperblock(p)
		db.m.Msync(p)

		db2 := Reopen(p, Options{L0Entries: 100000}, db.m)
		if db2.Recov.FreshStore {
			t.Fatal("valid superblock reported as fresh store")
		}
		if db2.Recov.TruncatedBytes == 0 {
			t.Fatal("corrupt tail not truncated")
		}
		if db2.Recov.ReplayedRecords != 50 {
			t.Fatalf("replayed %d records, want 50", db2.Recov.ReplayedRecords)
		}
		if db2.logHead != goodHead {
			t.Fatalf("logHead %d after truncation, want %d", db2.logHead, goodHead)
		}
		// Committed prefix intact, corrupt tail never served.
		for i := uint64(0); i < 50; i++ {
			v, ok := db2.Get(p, ycsb.KeyBytes(i))
			if !ok || !ycsb.CheckValue(i, v) {
				t.Fatalf("committed key %d lost after truncating recovery", i)
			}
		}
		if _, ok := db2.Get(p, ycsb.KeyBytes(50)); ok {
			t.Error("corrupt record served")
		}
		// The store keeps working: the truncated tail is overwritten.
		db2.Put(p, ycsb.KeyBytes(60), ycsb.Value(60, 100))
		if v, ok := db2.Get(p, ycsb.KeyBytes(60)); !ok || !ycsb.CheckValue(60, v) {
			t.Error("post-truncation put failed")
		}
	})
}

func TestKreonRangedMsyncCheaperThanFull(t *testing.T) {
	// The §7.2 claim behind kmmap's custom msync: syncing only the
	// appended windows beats flushing the whole store's dirty set after
	// the store has grown large.
	e, os := world(64 * mib)
	run1(e, func(p *engine.Proc) {
		db := openKmmap(p, os, Options{L0Entries: 100000})
		for i := uint64(0); i < 4000; i++ {
			db.Put(p, ycsb.KeyBytes(i), ycsb.Value(i, 1000))
		}
		db.Msync(p) // baseline both variants start clean
		// Append a small tail, then time each msync flavor.
		for i := uint64(4000); i < 4050; i++ {
			db.Put(p, ycsb.KeyBytes(i), ycsb.Value(i, 1000))
		}
		t0 := p.Now()
		db.Msync(p)
		ranged := p.Now() - t0
		for i := uint64(4050); i < 4100; i++ {
			db.Put(p, ycsb.KeyBytes(i), ycsb.Value(i, 1000))
		}
		t0 = p.Now()
		msyncFull(p, db)
		full := p.Now() - t0
		if ranged >= full {
			t.Errorf("ranged msync (%d cycles) not cheaper than full (%d)", ranged, full)
		}
	})
}

// msyncFull flushes every dirty page of the mapping: the non-customized msync
// the ranged one is compared with. Two phases for the same ordering reason as
// Msync: a single full msync writes dirty pages in device order, which would
// put the superblock (page 0) first.
func msyncFull(p *engine.Proc, db *DB) {
	db.m.MsyncRange(p, pageSize, db.m.Size()-pageSize)
	db.writeSuperblock(p)
	db.m.MsyncRange(p, 0, pageSize)
}
