// Package kreon implements a Kreon-like persistent key-value store
// (Papagiannis et al., SoCC '18 / TOS '21), the second store the paper
// evaluates (§5, Fig 9). Unlike an SST-based LSM, Kreon appends all keys and
// values to a value log and indexes them with a B-tree per level; all device
// access goes through memory-mapped I/O in the common path, over either
// kmmap (its custom in-kernel path) or Aquila.
//
// The store lives in a single file: a superblock, a value-log region that
// grows forward, and an index region where immutable B-trees are bulk-built
// on every level-0 spill. Spills merge level 0 with the previous tree, so
// there is always at most one on-device level (the paper's Kreon uses more
// levels; one suffices for the evaluated workloads and keeps spills cheap at
// the scaled dataset sizes).
package kreon

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"aquila/internal/iface"
	"aquila/internal/scratch"
	"aquila/internal/sim/engine"
	"aquila/internal/ycsb"
)

// Fixed on-device geometry.
const (
	pageSize = 4096
	// keySize is the fixed key length (YCSB keys are 30 bytes, §6.1).
	keySize = 30
	// recHeader is the value-log record header: key length (u16), value
	// length (u16), CRC-32 of key+value (u32). The CRC lets recovery tell a
	// committed record from torn or never-completed tail garbage.
	recHeader = 8
	// leafEntrySize is key + log offset.
	leafEntrySize = keySize + 8
	// nodeHeader is count(u16) + isLeaf(u8) + pad.
	nodeHeader = 8
	// entriesPerNode is the B-tree fan-out at 4 KB nodes.
	entriesPerNode = (pageSize - nodeHeader) / leafEntrySize
)

// Kreon's (deliberately small) software overheads in cycles: no block cache,
// no decode stage — §5: "reduces I/O amplification and CPU cycles in the
// common path". Every world runs these values.
const (
	costGetBase   = 1400 // per-get bookkeeping
	costPutBase   = 1900 // per-put bookkeeping (log reservation, L0 insert)
	costNodeVisit = 380  // per B-tree node binary search
	costL0Lookup  = 600  // level-0 in-memory index probe
	costScanStep  = 300  // per scanned record
)

// Options configure a store.
type Options struct {
	// NS is the world's namespace.
	NS iface.Namespace
	// LogBytes and IndexBytes size the two file regions.
	LogBytes   uint64
	IndexBytes uint64
	// L0Entries spills level 0 at this many keys (default 16384).
	L0Entries int
}

// DB is the store.
//
// Several simulated threads may run Get, Scan and Put on one DB as long as no
// Put reaches the level-0 limit: between two yields (every m.Load, m.Store
// and AdvanceUser is one) each of them leaves the store consistent — Put
// reserves its log range before its Store yields, level 0 changes in one step
// after it, and every scratch buffer is held by exactly one thread from
// Borrow to GiveBack. spill is not safe to run beside anything: it reads level
// 0, yields through the whole merge and build, and only then empties level 0
// and swaps the tree in, so a Put that lands in between is lost from the
// index. Msync is not either: a head it publishes may cover a record whose
// Store is still in flight. Callers that share a DB size L0Entries so no
// spill runs, or serialise around Put.
//
// A Put whose Store panics (a device error delivered as SIGBUS) has already
// reserved its log range; the range holds no committed record, so Reopen's
// replay would end there. The one caller that absorbs such a panic and keeps
// using the store (bench/'s guarded put) runs without a fault plan.
type DB struct {
	opts Options
	m    iface.Mapping

	logHead uint64 // next append offset (within log region)
	logBase uint64 // start of log region
	idxBase uint64 // start of index region
	idxHead uint64 // next node allocation offset

	// Level 0: l0 maps a key to its slot in l0ents, which holds the
	// (key, log offset) pairs in first-insertion order — one slab, which a
	// spill copies and sorts (sortedL0); no map walk, no allocation per key.
	l0      map[fixedKey]int
	l0ents  []entry
	rootOff uint64 // current B-tree root node (0: empty)
	treeN   int    // entries in the current tree
	// bufs lends the node being read or built, the log record being written
	// and the record header being parsed (scratch.Stack: why a LIFO, why no
	// defer gives back).
	bufs scratch.Stack
	// held is where Get lends its values, one buffer per thread (scratch.Held).
	held scratch.Held
	// logCheckpoint marks the log position covered by the on-device tree;
	// recovery replays [checkpoint, logHead) into level 0.
	logCheckpoint uint64
	// lastSyncLog/lastSyncIdx mark how far the previous msync reached:
	// the custom ranged msync (§7.2) only syncs what grew since. The log
	// and index regions are append-only, so ranges never re-dirty.
	lastSyncLog uint64
	lastSyncIdx uint64
	// leafRegionEnd bounds the contiguous leaf allocation of the current
	// tree (set by bulkBuild; the leaf level doubles as the leaf chain).
	leafRegionEnd uint64

	// Stats.
	Gets, Puts, Spills uint64
	// Recov describes what the last Reopen found (zero if Open'd fresh).
	Recov RecoverStats
}

// RecoverStats summarizes a Reopen's recovery pass.
type RecoverStats struct {
	// FreshStore is set when no valid superblock was found (never msync'd,
	// or the crash predates the first sync): the store opens empty.
	FreshStore bool
	// ReplayedRecords counts committed log records re-indexed into level 0.
	ReplayedRecords int
	// TruncatedBytes is the length of the discarded log tail — records whose
	// CRC failed or that were cut short (torn or never-completed writes).
	TruncatedBytes uint64
}

var _ ycsb.KV = (*DB)(nil)

// Open creates the store's file through ns and maps it with ns.Mmap.
func Open(p *engine.Proc, opts Options) *DB {
	if opts.LogBytes == 0 {
		opts.LogBytes = 64 << 20
	}
	if opts.IndexBytes == 0 {
		opts.IndexBytes = 16 << 20
	}
	f := opts.NS.Create(p, "kreon.data", pageSize+opts.LogBytes+opts.IndexBytes)
	m := opts.NS.Mmap(p, f, pageSize+opts.LogBytes+opts.IndexBytes)
	return OpenWithMapping(p, opts, m)
}

// OpenWithMapping builds the store over an existing mapping (used to run
// over kmmap, which is created through a host-specific call).
func OpenWithMapping(p *engine.Proc, opts Options, m iface.Mapping) *DB {
	if opts.LogBytes == 0 {
		opts.LogBytes = 64 << 20
	}
	if opts.IndexBytes == 0 {
		opts.IndexBytes = 16 << 20
	}
	if opts.L0Entries == 0 {
		opts.L0Entries = 16384
	}
	db := &DB{
		opts: opts, m: m,
		logBase: pageSize,
		idxBase: pageSize + opts.LogBytes,
		l0:      make(map[fixedKey]int),
	}
	db.logHead = db.logBase
	db.logCheckpoint = db.logBase
	db.idxHead = db.idxBase
	db.lastSyncLog = db.logBase
	db.lastSyncIdx = db.idxBase
	return db
}

// superblock layout (page 0): magic, logHead, logCheckpoint, idxHead,
// rootOff, treeN, leafRegionEnd.
const sbMagic = 0x4B52454F // "KREO"

// writeSuperblock stores the heads in page 0; Msync makes them durable.
func (db *DB) writeSuperblock(p *engine.Proc) {
	sb := make([]byte, 52)
	binary.LittleEndian.PutUint32(sb[0:], sbMagic)
	binary.LittleEndian.PutUint64(sb[4:], db.logHead)
	binary.LittleEndian.PutUint64(sb[12:], db.logCheckpoint)
	binary.LittleEndian.PutUint64(sb[20:], db.idxHead)
	binary.LittleEndian.PutUint64(sb[28:], db.rootOff)
	binary.LittleEndian.PutUint64(sb[36:], uint64(db.treeN))
	binary.LittleEndian.PutUint64(sb[44:], db.leafRegionEnd)
	db.m.Store(p, 0, sb)
}

// Reopen recovers a store from its mapping: superblock state, then a
// CRC-validating replay of the un-spilled log window into level 0. Data
// written after the last Msync is lost, matching the durability contract of
// msync-based stores. Reopen never panics on a damaged image: a missing or
// foreign superblock opens an empty store (Recov.FreshStore), and a log tail
// that fails validation — torn sectors, never-completed appends — is
// truncated (Recov.TruncatedBytes) so garbage is never served.
//
// The superblock itself needs no checksum: it is 52 bytes inside the first
// 512-byte sector, and the device guarantees sector atomicity, so a crashed
// superblock write leaves either the old or the new superblock — never a mix.
func Reopen(p *engine.Proc, opts Options, m iface.Mapping) *DB {
	db := OpenWithMapping(p, opts, m)
	sb := make([]byte, 52)
	db.m.Load(p, 0, sb)
	if binary.LittleEndian.Uint32(sb[0:]) != sbMagic {
		db.Recov.FreshStore = true
		return db
	}
	logHead := binary.LittleEndian.Uint64(sb[4:])
	logCheckpoint := binary.LittleEndian.Uint64(sb[12:])
	idxHead := binary.LittleEndian.Uint64(sb[20:])
	if logHead < db.logBase || logHead > db.idxBase ||
		logCheckpoint < db.logBase || logCheckpoint > logHead ||
		idxHead < db.idxBase || idxHead > db.m.Size() {
		// Geometry mismatch (file reopened with different region sizes);
		// a crashed superblock write cannot cause this (sector atomicity).
		db.Recov.FreshStore = true
		return db
	}
	db.logHead = logHead
	db.logCheckpoint = logCheckpoint
	db.idxHead = idxHead
	db.rootOff = binary.LittleEndian.Uint64(sb[28:])
	db.treeN = int(binary.LittleEndian.Uint64(sb[36:]))
	db.leafRegionEnd = binary.LittleEndian.Uint64(sb[44:])
	// Replay the un-spilled log window into level 0, validating each record;
	// the first record that is cut short or fails its CRC ends the committed
	// prefix and the rest of the window is truncated.
	off := db.logCheckpoint
	hdr := db.bufs.Borrow(recHeader)
	for off < db.logHead {
		if off+recHeader > db.logHead {
			break
		}
		db.m.Load(p, off, hdr)
		kl := int(binary.LittleEndian.Uint16(hdr[0:]))
		vl := int(binary.LittleEndian.Uint16(hdr[2:]))
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if kl == 0 || kl > keySize || off+recHeader+uint64(kl+vl) > db.logHead {
			break
		}
		kv := db.bufs.Borrow(kl + vl)
		db.m.Load(p, off+recHeader, kv)
		ok := crc32.ChecksumIEEE(kv) == crc
		if ok {
			// Put writes whole keys only; a shorter one indexes as a spill
			// would write it into a leaf, zero-padded.
			db.index(makeKey(kv[:kl]), off)
		}
		db.bufs.GiveBack(kv)
		if !ok {
			break
		}
		db.Recov.ReplayedRecords++
		off += recHeader + uint64(kl+vl)
	}
	db.bufs.GiveBack(hdr)
	if off < db.logHead {
		db.Recov.TruncatedBytes = db.logHead - off
		db.logHead = off
	}
	// Everything at or below the recovered heads is durable; only future
	// appends need syncing.
	db.lastSyncLog = db.logHead
	db.lastSyncIdx = db.idxHead
	return db
}

// L0Size returns the current level-0 entry count (tests).
func (db *DB) L0Size() int { return len(db.l0ents) }

// TreeEntries returns the entry count of the on-device tree (tests).
func (db *DB) TreeEntries() int { return db.treeN }

// fixedKey is a key at its on-device size: makeKey zero-pads a shorter one.
// The record format cannot hold a longer one (Reopen reads kl > keySize as a
// corrupt record) and cutting it would alias every key that shares its first
// keySize bytes, so Put, Get and Scan panic on one, as Put does on a value
// the header cannot describe.
type fixedKey [keySize]byte

func makeKey(k []byte) (out fixedKey) {
	if len(k) > keySize {
		panic(fmt.Sprintf("kreon: key of %d bytes exceeds the fixed key size of %d", len(k), keySize))
	}
	copy(out[:], k)
	return out
}

// entry is one (key, log offset) pair, laid out as level 0 and the merge hold
// it; a leaf stores the same pair packed (leafEntrySize).
type entry struct {
	key fixedKey
	off uint64
}

func compareEntries(a, b entry) int { return bytes.Compare(a.key[:], b.key[:]) }

// index points k at the record at log offset off in level 0.
func (db *DB) index(k fixedKey, off uint64) {
	if i, ok := db.l0[k]; ok {
		db.l0ents[i].off = off
		return
	}
	db.l0[k] = len(db.l0ents)
	db.l0ents = append(db.l0ents, entry{k, off})
}

// sortedL0 returns level 0's entries with key >= start in key order. A copy:
// l0 indexes l0ents by position, and lookups go on while the caller yields.
func (db *DB) sortedL0(start fixedKey) []entry {
	var out []entry
	for _, e := range db.l0ents {
		if bytes.Compare(e.key[:], start[:]) >= 0 {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, compareEntries)
	return out
}

// Put appends the record to the value log and indexes it in level 0. It
// copies key and value into the log: both are the caller's again on return.
func (db *DB) Put(p *engine.Proc, key, value []byte) {
	p.BeginSpan("kv.put")
	defer p.EndSpan()
	db.Puts++
	if len(value) > math.MaxUint16 {
		panic(fmt.Sprintf("kreon: value of %d bytes exceeds the record header's 16-bit length", len(value)))
	}
	k := makeKey(key)
	rec := db.bufs.Borrow(recHeader + keySize + len(value))
	binary.LittleEndian.PutUint16(rec, keySize)
	binary.LittleEndian.PutUint16(rec[2:], uint16(len(value)))
	copy(rec[recHeader:], k[:])
	copy(rec[recHeader+keySize:], value)
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(rec[recHeader:]))
	off := db.logHead
	if off+uint64(len(rec)) > db.idxBase {
		panic("kreon: value log full")
	}
	// Reserve before Store yields inside its faults: a second thread's Put
	// must not read the same head.
	db.logHead += uint64(len(rec))
	db.m.Store(p, off, rec)
	db.bufs.GiveBack(rec)
	db.index(k, off)
	p.AdvanceUser(costPutBase)
	if len(db.l0ents) >= db.opts.L0Entries {
		db.spill(p)
	}
}

// Get returns the newest value for key, lent (ycsb.KV): read-only and valid
// until p's next call on the store.
func (db *DB) Get(p *engine.Proc, key []byte) ([]byte, bool) {
	p.BeginSpan("kv.get")
	defer p.EndSpan()
	db.Gets++
	k := makeKey(key)
	p.AdvanceUser(costGetBase + costL0Lookup)
	if i, ok := db.l0[k]; ok {
		return db.readValue(p, db.l0ents[i].off), true
	}
	if db.rootOff == 0 {
		return nil, false
	}
	off, ok := db.treeLookup(p, k[:])
	if !ok {
		return nil, false
	}
	return db.readValue(p, off), true
}

// Scan visits up to n records in key order starting at startKey, reading each
// value into p's held buffer.
func (db *DB) Scan(p *engine.Proc, startKey []byte, n int) int {
	p.BeginSpan("kv.scan")
	defer p.EndSpan()
	start := makeKey(startKey)
	// Merge the sorted L0 keys with the tree's leaf chain.
	fresh := db.sortedL0(start)
	tree := db.treeRange(p, start[:], n, nil)
	seen := 0
	var last *fixedKey
	for seen < n && (len(fresh) > 0 || len(tree) > 0) {
		var e *entry
		if len(tree) == 0 || (len(fresh) > 0 && compareEntries(fresh[0], tree[0]) <= 0) {
			e, fresh = &fresh[0], fresh[1:]
		} else {
			e, tree = &tree[0], tree[1:]
		}
		if last != nil && e.key == *last {
			continue
		}
		last = &e.key
		at, vl := db.readHeader(p, e.off)
		db.m.Load(p, at, db.held.Lend(p.ID(), vl))
		p.AdvanceUser(costScanStep)
		seen++
	}
	return seen
}

// Msync persists outstanding log and index pages plus the superblock using
// Kreon's custom ranged msync (§7.2): only the superblock page and the
// append-only windows written since the previous Msync are flushed, instead
// of scanning every dirty page of the store.
//
// Ordering is the crash-consistency linchpin: the data windows reach their
// durability point *before* the superblock that references them. A crash
// anywhere inside Msync leaves the old superblock pointing at the old
// consistent state; the new heads become visible only once everything below
// them is durable. (Syncing the superblock first — as an earlier version did
// — let a crash between the two syncs persist heads that point at data still
// in the device's volatile tier.)
func (db *DB) Msync(p *engine.Proc) {
	p.BeginSpan("kv.msync")
	defer p.EndSpan()
	if db.logHead > db.lastSyncLog {
		db.m.MsyncRange(p, db.lastSyncLog, db.logHead-db.lastSyncLog)
		db.lastSyncLog = db.logHead
	}
	if db.idxHead > db.lastSyncIdx {
		db.m.MsyncRange(p, db.lastSyncIdx, db.idxHead-db.lastSyncIdx)
		db.lastSyncIdx = db.idxHead
	}
	db.writeSuperblock(p)
	db.m.MsyncRange(p, 0, pageSize) // superblock last
}

// readValue fetches the value of the log record at off via mmio into p's held
// buffer: Get's result, lent until p's next call.
func (db *DB) readValue(p *engine.Proc, off uint64) []byte {
	at, vl := db.readHeader(p, off)
	val := db.held.Lend(p.ID(), vl)
	db.m.Load(p, at, val)
	return val
}

// readHeader reads the header of the log record at off and returns where the
// record's value starts and how long it is.
func (db *DB) readHeader(p *engine.Proc, off uint64) (uint64, int) {
	hdr := db.bufs.Borrow(recHeader)
	db.m.Load(p, off, hdr)
	kl := int(binary.LittleEndian.Uint16(hdr[0:]))
	vl := int(binary.LittleEndian.Uint16(hdr[2:]))
	db.bufs.GiveBack(hdr)
	return off + recHeader + uint64(kl), vl
}

// readNode reads a B-tree node (one page) via mmio into a borrowed buffer;
// the caller gives it back when it is done with the node.
func (db *DB) readNode(p *engine.Proc, off uint64) []byte {
	buf := db.bufs.Borrow(pageSize)
	db.m.Load(p, off, buf)
	p.AdvanceUser(costNodeVisit)
	return buf
}

func nodeCount(n []byte) int   { return int(binary.LittleEndian.Uint16(n)) }
func nodeIsLeaf(n []byte) bool { return n[2] == 1 }

func nodeKey(n []byte, i int) []byte {
	base := nodeHeader + i*leafEntrySize
	return n[base : base+keySize]
}

func nodeVal(n []byte, i int) uint64 {
	base := nodeHeader + i*leafEntrySize + keySize
	return binary.LittleEndian.Uint64(n[base : base+8])
}

// nodeChild returns the child of internal node n that covers a key whose
// upper bound in n is ub: the last entry with a separator <= key, and child 0
// for keys below the smallest separator.
func nodeChild(n []byte, ub int) uint64 { return nodeVal(n, max(ub, 1)-1) }

// nodeUpperBound returns the index of n's first entry with a key > target.
func nodeUpperBound(n, target []byte) int {
	lo, hi := 0, nodeCount(n)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); bytes.Compare(nodeKey(n, mid), target) > 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// treeLookup walks the B-tree from the root to a leaf.
func (db *DB) treeLookup(p *engine.Proc, key []byte) (uint64, bool) {
	off := db.rootOff
	for {
		n := db.readNode(p, off)
		i := nodeUpperBound(n, key)
		// An empty node ends the walk as a leaf without the key does.
		leaf := nodeIsLeaf(n) || nodeCount(n) == 0
		hit := leaf && i > 0 && bytes.Equal(nodeKey(n, i-1), key)
		var val uint64
		if hit {
			val = nodeVal(n, i-1)
		} else if !leaf {
			off = nodeChild(n, i)
		}
		db.bufs.GiveBack(n)
		if leaf {
			return val, hit
		}
	}
}

// treeRange appends up to n tree entries with key >= startKey to out by
// walking the leaf level.
func (db *DB) treeRange(p *engine.Proc, startKey []byte, n int, out []entry) []entry {
	if db.rootOff == 0 {
		return out
	}
	// Descend to the leaf containing startKey.
	off := db.rootOff
	for {
		node := db.readNode(p, off)
		leaf := nodeIsLeaf(node)
		if !leaf {
			off = nodeChild(node, nodeUpperBound(node, startKey))
		}
		db.bufs.GiveBack(node)
		if leaf {
			break
		}
	}
	// Leaves are allocated contiguously during bulk build, so the leaf
	// chain is a sequential walk of the leaf region.
	want := len(out) + n
	for len(out) < want && off < db.leafRegionEnd {
		node := db.readNode(p, off)
		cnt := nodeCount(node)
		for i := 0; i < cnt && len(out) < want; i++ {
			if k := nodeKey(node, i); bytes.Compare(k, startKey) >= 0 {
				out = append(out, entry{makeKey(k), nodeVal(node, i)})
			}
		}
		db.bufs.GiveBack(node)
		off += pageSize
	}
	return out
}

// spill merges level 0 into the on-device B-tree, bulk-building a fresh
// immutable tree (Kreon's level spill). Three phases, each with the device
// accesses it always had: read the old leaf chain, merge in memory, build.
func (db *DB) spill(p *engine.Proc) {
	p.BeginSpan("kv.spill")
	defer p.EndSpan()
	db.Spills++
	var old []entry
	if db.rootOff != 0 {
		old = db.treeRange(p, make([]byte, keySize), db.treeN, make([]entry, 0, db.treeN))
	}
	fresh := db.sortedL0(fixedKey{})
	// Gather all live entries: L0 wins over the old tree.
	merged := make([]entry, 0, len(old)+len(fresh))
	for len(old) > 0 && len(fresh) > 0 {
		switch c := compareEntries(old[0], fresh[0]); {
		case c < 0:
			merged, old = append(merged, old[0]), old[1:]
		case c > 0:
			merged, fresh = append(merged, fresh[0]), fresh[1:]
		default:
			old = old[1:]
		}
	}
	merged = append(append(merged, old...), fresh...)
	db.bulkBuild(p, merged)
	clear(db.l0)
	db.l0ents = db.l0ents[:0]
	db.treeN = len(merged)
	db.logCheckpoint = db.logHead
}

// bulkBuild writes a fresh B-tree bottom-up from the sorted entries:
// contiguous leaves, then internal levels, and sets the new root.
func (db *DB) bulkBuild(p *engine.Proc, ents []entry) {
	if len(ents) == 0 {
		db.rootOff = 0
		return
	}
	buf := db.bufs.Borrow(pageSize)
	// writeLevel packs one level's entries into nodes and returns one
	// (firstKey, nodeOff) entry per node written: the level above.
	writeLevel := func(isLeaf bool, below []entry) (up []entry) {
		for len(below) > 0 {
			node := below[:min(entriesPerNode, len(below))]
			below = below[len(node):]
			off := db.idxHead
			db.idxHead += pageSize
			if db.idxHead > db.m.Size() {
				panic("kreon: index region full")
			}
			clear(buf)
			binary.LittleEndian.PutUint16(buf, uint16(len(node)))
			if isLeaf {
				buf[2] = 1
			}
			for i, e := range node {
				base := nodeHeader + i*leafEntrySize
				copy(buf[base:base+keySize], e.key[:])
				binary.LittleEndian.PutUint64(buf[base+keySize:], e.off)
			}
			db.m.Store(p, off, buf)
			up = append(up, entry{node[0].key, off})
		}
		return up
	}
	leafStart := db.idxHead
	level := writeLevel(true, ents) // contiguous: the leaf chain
	db.leafRegionEnd = leafStart + uint64(len(level))*pageSize
	for len(level) > 1 {
		level = writeLevel(false, level)
	}
	db.bufs.GiveBack(buf)
	db.rootOff = level[0].off
}
