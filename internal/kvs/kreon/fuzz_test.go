package kreon

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"aquila/internal/host"
	"aquila/internal/sim/device"
	"aquila/internal/sim/engine"
	"aquila/internal/ycsb"
)

// FuzzKreonRecover drives Reopen's log replay with an arbitrary post-msync
// log tail: the fuzz input is spliced after a known committed prefix and the
// superblock is forged to cover it, exactly the shape a crash leaves when the
// head advanced but the tail bytes did not all land. Whatever the tail holds —
// torn records, CRC-valid garbage, headers whose lengths run past the window —
// recovery must not panic, must replay the committed prefix intact, must
// truncate everything it cannot validate, and must leave a store that still
// serves reads and writes.
func FuzzKreonRecover(f *testing.F) {
	// Checked-in seed corpus: raw tail images under internal/kvs/testdata.
	seeds, _ := filepath.Glob(filepath.Join("..", "testdata", "*.bin"))
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// In-code seeds for the structured cases a file can't express as readably:
	// a fully valid record, one with a flipped CRC, and one whose declared
	// value length runs past the log head.
	f.Add(validRecord(ycsb.KeyBytes(7), []byte("value")))
	bad := validRecord(ycsb.KeyBytes(8), []byte("value"))
	bad[4] ^= 0xFF
	f.Add(bad)
	oversize := validRecord(ycsb.KeyBytes(9), []byte("v"))
	binary.LittleEndian.PutUint16(oversize[2:], 0xFFFF)
	f.Add(oversize)

	f.Fuzz(func(t *testing.T, tail []byte) {
		if len(tail) > 64<<10 {
			return // the log window under test is small; huge inputs add nothing
		}
		e := engine.New(engine.Config{NumCPUs: 2, Seed: 1})
		disk := host.NewPMemDisk("pmem0", device.NewPMem(64<<20, device.DefaultPMemConfig()))
		osim := host.NewOS(e, disk, 16<<20)
		e.Spawn(0, "fuzz", func(p *engine.Proc) {
			opts := Options{LogBytes: 4 << 20, IndexBytes: 1 << 20, L0Entries: 100000}
			size := uint64(pageSize) + opts.LogBytes + opts.IndexBytes
			fl := osim.FS.Create(p, "kreon.data", size)
			m := osim.MmapKmmap(p, fl, size)
			db := OpenWithMapping(p, opts, m)
			const nprefix = 5
			for i := uint64(0); i < nprefix; i++ {
				db.Put(p, ycsb.KeyBytes(i), ycsb.Value(i, 64))
			}
			db.Msync(p)
			prefixEnd := db.logHead

			// Forge the crash state: the tail bytes land in the log window and
			// the superblock's head covers them, as if the head sync completed
			// while the record writes may not have.
			if prefixEnd+uint64(len(tail)) > db.idxBase {
				return
			}
			if len(tail) > 0 {
				db.m.Store(p, prefixEnd, tail)
			}
			db.logHead = prefixEnd + uint64(len(tail))
			db.writeSuperblock(p)
			db.m.Msync(p)

			db2 := Reopen(p, opts, m)
			if db2.Recov.FreshStore {
				t.Fatal("valid superblock reported as fresh store")
			}
			if db2.Recov.ReplayedRecords < nprefix {
				t.Fatalf("replayed %d records, committed prefix has %d",
					db2.Recov.ReplayedRecords, nprefix)
			}
			if db2.logHead < prefixEnd || db2.logHead > prefixEnd+uint64(len(tail)) {
				t.Fatalf("recovered logHead %d outside [%d, %d]",
					db2.logHead, prefixEnd, prefixEnd+uint64(len(tail)))
			}
			if db2.Recov.TruncatedBytes > uint64(len(tail)) {
				t.Fatalf("truncated %d bytes from a %d-byte tail",
					db2.Recov.TruncatedBytes, len(tail))
			}
			for i := uint64(0); i < nprefix; i++ {
				v, ok := db2.Get(p, ycsb.KeyBytes(i))
				if !ok || !ycsb.CheckValue(i, v) {
					t.Fatalf("committed key %d lost after recovery", i)
				}
			}
			// The store must keep working on top of whatever was truncated.
			db2.Put(p, ycsb.KeyBytes(100), ycsb.Value(100, 64))
			if v, ok := db2.Get(p, ycsb.KeyBytes(100)); !ok || !ycsb.CheckValue(100, v) {
				t.Fatal("post-recovery put/get failed")
			}
		})
		e.Run()
	})
}

// validRecord builds one well-formed value-log record.
func validRecord(key, value []byte) []byte {
	k := makeKey(key)
	key = k[:]
	rec := make([]byte, recHeader+len(key)+len(value))
	binary.LittleEndian.PutUint16(rec, uint16(len(key)))
	binary.LittleEndian.PutUint16(rec[2:], uint16(len(value)))
	copy(rec[recHeader:], key)
	copy(rec[recHeader+len(key):], value)
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(rec[recHeader:]))
	return rec
}
