package lsm

import (
	"encoding/binary"
	"fmt"

	"aquila/internal/sim/engine"
)

// Durability: the store persists a MANIFEST naming every live table per
// level (rewritten on each flush/compaction, as RocksDB's version edits
// accumulate into a manifest) and replays the WAL into the memtable on
// reopen, so a "crash" (dropping the DB object) loses nothing that was
// acknowledged.

const manifestMagic = 0x4D414E49 // "MANI"

// manifestName is the manifest file's name in the namespace.
const manifestName = "MANIFEST"

// writeManifest persists the current level layout.
func (db *DB) writeManifest(p *engine.Proc) {
	if db.manifest == nil {
		return
	}
	buf := make([]byte, 0, 512)
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], manifestMagic)
	buf = append(buf, tmp[:4]...)
	binary.LittleEndian.PutUint64(tmp[:], db.nextID)
	buf = append(buf, tmp[:]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(db.levels)))
	buf = append(buf, tmp[:4]...)
	for _, level := range db.levels {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(len(level)))
		buf = append(buf, tmp[:4]...)
		for _, t := range level {
			name := t.file.Name()
			binary.LittleEndian.PutUint16(tmp[:2], uint16(len(name)))
			buf = append(buf, tmp[:2]...)
			buf = append(buf, name...)
			binary.LittleEndian.PutUint64(tmp[:], t.id)
			buf = append(buf, tmp[:]...)
		}
	}
	// Length-prefix the whole record so reopen knows where it ends.
	out := make([]byte, 4+len(buf))
	binary.LittleEndian.PutUint32(out, uint32(len(buf)))
	copy(out[4:], buf)
	db.manifest.Pwrite(p, out, 0)
	db.manifest.Fsync(p)
}

// Reopen recovers a DB from its namespace: manifest -> tables, WAL ->
// memtable. Options must match the original (same block size and mode).
func Reopen(p *engine.Proc, e *engine.Engine, opts Options) *DB {
	db := Open(p, e, opts)
	if !db.opts.NS.(interface{ Exists(string) bool }).Exists(manifestName) {
		panic("lsm: reopen without a manifest (was the DB opened with DisableWAL and never flushed?)")
	}
	db.manifest = db.opts.NS.Open(p, manifestName)
	hdr := make([]byte, 4)
	db.manifest.Pread(p, hdr, 0)
	n := binary.LittleEndian.Uint32(hdr)
	buf := make([]byte, n)
	db.manifest.Pread(p, buf, 4)
	if binary.LittleEndian.Uint32(buf) != manifestMagic {
		panic("lsm: bad manifest magic")
	}
	pos := 4
	db.nextID = binary.LittleEndian.Uint64(buf[pos:])
	pos += 8
	nLevels := int(binary.LittleEndian.Uint32(buf[pos:]))
	pos += 4
	db.levels = make([][]*SST, nLevels)
	for lvl := 0; lvl < nLevels; lvl++ {
		cnt := int(binary.LittleEndian.Uint32(buf[pos:]))
		pos += 4
		for i := 0; i < cnt; i++ {
			nameLen := int(binary.LittleEndian.Uint16(buf[pos:]))
			pos += 2
			name := string(buf[pos : pos+nameLen])
			pos += nameLen
			id := binary.LittleEndian.Uint64(buf[pos:])
			pos += 8
			db.levels[lvl] = append(db.levels[lvl],
				openSST(p, db.opts.NS, name, id, blockBytes, db.mmio()))
		}
	}
	db.replayWAL(p)
	return db
}

// replayWAL reconstructs the memtable from the write-ahead log.
func (db *DB) replayWAL(p *engine.Proc) {
	if db.wal == nil {
		return
	}
	// Read the WAL region in chunks and replay until the terminator.
	const chunk = 1 << 20
	size := db.wal.Size()
	buf := make([]byte, 0, chunk)
	var fileOff uint64
	fill := func(need int) bool {
		for len(buf) < need && fileOff < size {
			get := uint64(chunk)
			if fileOff+get > size {
				get = size - fileOff
			}
			tmp := make([]byte, get)
			db.wal.Pread(p, tmp, fileOff)
			fileOff += get
			buf = append(buf, tmp...)
		}
		return len(buf) >= need
	}
	replayed := 0
	for {
		if !fill(4) {
			break
		}
		kl := int(binary.LittleEndian.Uint16(buf[0:]))
		vl := int(binary.LittleEndian.Uint16(buf[2:]))
		if kl == 0 {
			break // terminator
		}
		if !fill(4 + kl + vl) {
			break // torn tail record: discard
		}
		hops := db.mem.put(buf[4:4+kl], buf[4+kl:4+kl+vl])
		p.AdvanceUser(costMemtableBase + costMemtableHop*uint64(hops))
		consumed := 4 + kl + vl
		buf = buf[consumed:]
		db.walOff += uint64(consumed)
		replayed++
	}
	db.Replayed = uint64(replayed)
}

// checkManifestConsistency panics if a manifest references a missing table
// (corruption diagnostics for tests).
func (db *DB) checkManifestConsistency() {
	for lvl, level := range db.levels {
		for _, t := range level {
			if t.blockCount == 0 && t.entries != 0 {
				panic(fmt.Sprintf("lsm: level %d table %d inconsistent", lvl, t.id))
			}
		}
	}
}
