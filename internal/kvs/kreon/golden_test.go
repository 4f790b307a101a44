package kreon

import (
	"math/rand"
	"testing"

	"aquila/internal/host"
	"aquila/internal/sim/device"
	"aquila/internal/sim/engine"
	"aquila/internal/ycsb"
)

// TestKreonImageGolden holds the store's bytes and cycles still: a seeded
// load with overwrites and mixed value sizes, three spills, an L0 tail and an
// Msync must leave exactly this durable image, these heads and this clock.
// The constants were taken from the tree before the KV data path stopped
// re-copying its buffers; a host-side change to Put, spill or bulkBuild that
// moves one byte of a record or a node, or one Load/Store, moves them.
func TestKreonImageGolden(t *testing.T) {
	e := engine.New(engine.Config{NumCPUs: 4, Seed: 1})
	pm := device.NewPMem(1<<30, device.DefaultPMemConfig())
	os := host.NewOS(e, host.NewPMemDisk("pmem0", pm), 2*mib)
	run1(e, func(p *engine.Proc) {
		db := openKmmap(p, os, Options{L0Entries: 400})
		rng := rand.New(rand.NewSource(42))
		put := func() {
			id := uint64(rng.Intn(1500))
			db.Put(p, ycsb.KeyBytes(id), ycsb.Value(id, 8+rng.Intn(300)))
		}
		for db.Spills < 3 {
			put()
		}
		for i := 0; i < 150; i++ {
			put()
		}
		db.Msync(p)
		pm.SettleAll()
		type image struct {
			fp, clock, logHead, idxHead uint64
			puts, spills                uint64
			tree, l0                    int
		}
		got := image{pm.Fingerprint(), p.Now(), db.logHead, db.idxHead, db.Puts, db.Spills, db.TreeEntries(), db.L0Size()}
		want := image{2856797468539829268, 3788018, 310204, 67207168, 1536, 3, 922, 142}
		if got != want {
			t.Fatalf("kreon image moved:\n got %+v\nwant %+v", got, want)
		}
	})
}
