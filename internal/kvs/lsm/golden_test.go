package lsm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"aquila/internal/sim/engine"
	"aquila/internal/ycsb"
)

// tablesDigest is SHA-256 over every live table, level by level: its name,
// its size and the whole file image as File.Pread returns it.
func tablesDigest(p *engine.Proc, db *DB) string {
	h := sha256.New()
	for lvl, tables := range db.levels {
		for _, t := range tables {
			img := make([]byte, t.file.Size())
			t.file.Pread(p, img, 0)
			fmt.Fprintf(h, "L%d %s %d\n", lvl, t.file.Name(), len(img))
			h.Write(img)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSSTImageGolden holds the table bytes still for the three ways a table
// gets built — bulk load, memtable flush, L0->L1 compaction — together with
// the clock each leaves behind. The constants were taken from the tree before
// sstBuilder stopped growing its image by append and keeping a copy of every
// key: data blocks, padding, index, bloom bits and footer must all come out
// as they did.
func TestSSTImageGolden(t *testing.T) {
	type golden struct {
		digest string
		clock  uint64
		levels string
	}
	check := func(t *testing.T, p *engine.Proc, db *DB, want golden) {
		t.Helper()
		got := golden{tablesDigest(p, db), p.Now(), fmt.Sprint(db.Levels())}
		if got != want {
			t.Errorf("table images moved:\n got %+v\nwant %+v", got, want)
		}
	}
	// Seeded puts with overwrites, mixed value sizes and a few deletes.
	load := func(p *engine.Proc, db *DB, rng *rand.Rand, n int) {
		for i := 0; i < n; i++ {
			id := uint64(rng.Intn(4000))
			if rng.Intn(16) == 0 {
				db.Delete(p, ycsb.KeyBytes(id))
				continue
			}
			db.Put(p, ycsb.KeyBytes(id), ycsb.Value(id, 8+rng.Intn(400)))
		}
	}

	t.Run("bulkload", func(t *testing.T) {
		e, ns := world(64 * mib)
		run1(e, func(p *engine.Proc) {
			db := openTestDB(p, e, ns, IODirectCached)
			db.BulkLoad(p, 5000, 100)
			check(t, p, db, golden{"90572368de0f6ed4a48fe907640f0696782251d7cfa334da44d6c208d877abc8", 893303, "[0 3 0 0]"})
		})
	})
	t.Run("flush", func(t *testing.T) {
		e, ns := world(64 * mib)
		run1(e, func(p *engine.Proc) {
			db := openTestDB(p, e, ns, IODirectCached)
			load(p, db, rand.New(rand.NewSource(11)), 200)
			db.Flush(p)
			if db.Flushes != 1 || db.Compactions != 0 {
				t.Fatalf("set-up: %d flushes, %d compactions", db.Flushes, db.Compactions)
			}
			check(t, p, db, golden{"277a5145169862b18608bb4978bdb4a995774333a12701841123ca395c7130ac", 2761403, "[1 0 0 0]"})
		})
	})
	t.Run("compaction", func(t *testing.T) {
		e, ns := world(64 * mib)
		run1(e, func(p *engine.Proc) {
			db := openTestDB(p, e, ns, IOMmap)
			rng := rand.New(rand.NewSource(12))
			for db.Compactions < 2 {
				load(p, db, rng, 100)
			}
			check(t, p, db, golden{"d1684b8c26422ee6598439be08eb6ae6a94f9e2656dda91189ffb85b0873553d", 27884329, "[0 2 0 0]"})
		})
	})
}
