package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"aquila/internal/iface"
	"aquila/internal/obs"
	"aquila/internal/scratch"
	"aquila/internal/sim/engine"
	"aquila/internal/ycsb"
)

// The store's user-space software overheads in cycles, calibrated so the
// paper's Figure 7 decomposition reproduces: with a user-space cache, RocksDB
// spends ~15.3 K cycles in get processing, ~32 K in cache lookups/evictions
// and ~13 K in miss syscalls per random read. Every world runs these values.
const (
	costMemtableHop       = 35    // per skiplist pointer hop
	costMemtableBase      = 900   // per memtable probe/insert
	costBloomCheck        = 450   // per table filter probe
	costIndexSearch       = 900   // per table index binary search
	costBlockEntry        = 220   // per record visited in a block scan
	costBlockDecode       = 1700  // per block checksum/decode
	costGetFinish         = 8000  // per-get residual (version lookup, stats, pinning)
	costMmapBlockOverhead = 2500  // extra per-block work in mmap mode (no prefetch, pinning)
	costPutFinish         = 2500  // per-put residual
	costCacheLookup       = 4500  // block-cache probe under shard lock
	costCacheInsert       = 20000 // block-cache insert (allocation, LRU, refcount)
	costCacheEvict        = 10000 // per evicted block
	costWALAppend         = 1200  // per WAL record, excluding the device write
	costIterNext          = 320   // per merged-iterator step
)

// IOMode selects how the store reaches its tables (§5).
type IOMode int

// The two RocksDB configurations Fig 5 runs.
const (
	// IODirectCached: O_DIRECT reads with a user-space block cache — the
	// recommended RocksDB configuration ("read/write" in Fig 5).
	IODirectCached IOMode = iota
	// IOMmap: tables are memory-mapped; reads are loads ("mmap"/Aquila).
	IOMmap
)

// The data-block size, the number of L0 tables at which L0 compacts into
// L1, the memtable size past which it flushes and the write-ahead log's size
// (filling it forces a memtable flush). Every world runs these values, so
// they are not Options.
const (
	blockBytes           = 4096
	l0Trigger            = 4
	defaultMemtableBytes = 1 << 20
	defaultWALBytes      = 64 << 20
)

// Options configure a DB.
type Options struct {
	// NS is the world's namespace (Linux direct or mmap, or Aquila).
	NS iface.Namespace
	// Mode selects the table read path.
	Mode IOMode
	// BlockCacheBytes sizes the user-space cache (IODirectCached only).
	BlockCacheBytes uint64
	// SSTTargetBytes bounds one table (default 8 MB; the paper's RocksDB
	// uses 64 MB — scaled with the datasets).
	SSTTargetBytes int
	// DisableWAL skips write-ahead logging.
	DisableWAL bool
	// Seed for the memtable skiplist.
	Seed int64

	// memtableBytes and walBytes override defaultMemtableBytes and
	// defaultWALBytes when nonzero. Only the package's tests set them.
	memtableBytes int
	walBytes      uint64
}

// DB is the store.
type DB struct {
	opts Options

	writeLock *engine.Mutex
	mem       *skiplist
	wal       iface.File
	walOff    uint64

	levels [][]*SST // levels[0] newest-first; levels[1..] sorted by smallest
	nextID uint64

	cache    *BlockCache
	manifest iface.File

	// bufs lends the WAL record put builds and the block a point lookup
	// searches (scratch.Stack: why a LIFO, why no defer gives back).
	bufs scratch.Stack
	// vals is where a table hit's value is carved: Get's result, the caller's
	// to keep. The memtable copies each Put on its own: an overwrite leaves
	// the memtable's size as it was, so an arena there would grow with no
	// flush to bound it.
	vals scratch.Arena

	// Replayed counts WAL records recovered on reopen.
	Replayed uint64

	// Break attributes per-category cycles for the Fig 7 decomposition:
	// "get" (store processing), "put", "cache" (user-space block cache
	// management), "io" (read path to storage, including syscalls),
	// "mmio" (mapped reads: faults + loads). It is interned in the engine's
	// registry as "lsm_cycles".
	Break *obs.Breakdown

	// Stats.
	Gets, Puts, Flushes, Compactions uint64
	BlocksRead                       uint64
}

// charge advances p as user time and attributes the cycles to a category.
func (db *DB) charge(p *engine.Proc, cat string, cycles uint64) {
	p.AdvanceUser(cycles)
	db.Break.Add(cat, cycles)
}

var _ ycsb.KV = (*DB)(nil)

// Open creates a DB in the given namespace.
func Open(p *engine.Proc, e *engine.Engine, opts Options) *DB {
	if opts.memtableBytes == 0 {
		opts.memtableBytes = defaultMemtableBytes
	}
	if opts.walBytes == 0 {
		opts.walBytes = defaultWALBytes
	}
	if opts.SSTTargetBytes == 0 {
		opts.SSTTargetBytes = 8 << 20
	}
	db := &DB{
		opts:      opts,
		writeLock: engine.NewMutex(e, "lsm_write"),
		mem:       newSkiplist(opts.Seed + 1),
		levels:    make([][]*SST, 4),
	}
	reg, labels := e.Metrics()
	db.Break = reg.Breakdown("lsm_cycles", labels...)
	if opts.Mode == IODirectCached {
		cap := opts.BlockCacheBytes
		if cap == 0 {
			cap = 32 << 20
		}
		db.cache = NewBlockCache(e, cap)
	}
	if !opts.DisableWAL {
		if opts.NS.Exists("WAL") {
			db.wal = opts.NS.Open(p, "WAL")
		} else {
			db.wal = opts.NS.Create(p, "WAL", opts.walBytes)
		}
		if opts.NS.Exists(manifestName) {
			db.manifest = opts.NS.Open(p, manifestName)
		} else {
			db.manifest = opts.NS.Create(p, manifestName, 1<<20)
		}
	}
	return db
}

// Cache exposes the block cache (nil unless IODirectCached).
func (db *DB) Cache() *BlockCache { return db.cache }

// Levels returns per-level table counts (tests/stats).
func (db *DB) Levels() []int {
	out := make([]int, len(db.levels))
	for i, l := range db.levels {
		out[i] = len(l)
	}
	return out
}

// mmio reports whether tables are memory-mapped.
func (db *DB) mmio() bool { return db.opts.Mode == IOMmap }

// tombstone is the value encoding of a deletion. Real LSMs flag the record
// header; a reserved single-byte value keeps the on-disk format unchanged.
var tombstone = []byte{0xDE}

func isTombstone(v []byte) bool { return len(v) == 1 && v[0] == 0xDE }

// Delete removes a key by writing a tombstone; the key disappears from gets
// and scans immediately and from disk when compaction drops the tombstone
// at the bottom level.
func (db *DB) Delete(p *engine.Proc, key []byte) {
	db.put(p, key, tombstone)
}

// Put inserts or updates a record.
func (db *DB) Put(p *engine.Proc, key, value []byte) {
	if isTombstone(value) {
		panic("lsm: value collides with the tombstone encoding")
	}
	db.put(p, key, value)
}

// put copies key and value into the WAL record and the memtable; both are
// the caller's again on return.
func (db *DB) put(p *engine.Proc, key, value []byte) {
	p.BeginSpan("kv.put")
	defer p.EndSpan()
	db.writeLock.Lock(p)
	db.Puts++
	if db.wal != nil {
		// Record plus a 4-byte zero terminator; the next append
		// overwrites the terminator, so replay always finds a clean end.
		rec := db.bufs.Borrow(4 + len(key) + len(value) + 4)
		binary.LittleEndian.PutUint16(rec, uint16(len(key)))
		binary.LittleEndian.PutUint16(rec[2:], uint16(len(value)))
		copy(rec[4:], key)
		copy(rec[4+len(key):], value)
		clear(rec[len(rec)-4:])
		db.charge(p, "put", costWALAppend)
		if db.walOff+uint64(len(rec)) > db.wal.Size() {
			db.flushLocked(p) // out of log space: flush resets the WAL
		}
		db.wal.Pwrite(p, rec, db.walOff)
		db.walOff += uint64(len(rec)) - 4
		db.bufs.GiveBack(rec)
	}
	hops := db.mem.put(key, value)
	db.charge(p, "put", costMemtableBase+costMemtableHop*uint64(hops)+costPutFinish)
	if db.mem.size >= db.opts.memtableBytes {
		db.flushLocked(p)
	}
	db.writeLock.Unlock(p)
}

// Get returns the newest value for key: a memtable hit shares the memtable's
// copy, a table hit is a carve of the store's value arena (cap == len).
func (db *DB) Get(p *engine.Proc, key []byte) ([]byte, bool) {
	p.BeginSpan("kv.get")
	defer p.EndSpan()
	db.Gets++
	v, ok, hops := db.mem.get(key)
	db.charge(p, "get", costMemtableBase+costMemtableHop*uint64(hops))
	if ok {
		db.charge(p, "get", costGetFinish)
		if isTombstone(v) {
			return nil, false
		}
		return v, true
	}
	// L0: newest first, ranges overlap.
	for _, t := range db.levels[0] {
		if v, ok := db.searchTable(p, t, key); ok {
			db.charge(p, "get", costGetFinish)
			if isTombstone(v) {
				return nil, false
			}
			return v, true
		}
	}
	// L1+: non-overlapping, binary search by range.
	for lvl := 1; lvl < len(db.levels); lvl++ {
		tables := db.levels[lvl]
		i := sort.Search(len(tables), func(i int) bool {
			return bytes.Compare(tables[i].largest, key) >= 0
		})
		if i < len(tables) && tables[i].contains(key) {
			if v, ok := db.searchTable(p, tables[i], key); ok {
				db.charge(p, "get", costGetFinish)
				if isTombstone(v) {
					return nil, false
				}
				return v, true
			}
		}
	}
	db.charge(p, "get", costGetFinish)
	return nil, false
}

// searchTable probes one SST.
func (db *DB) searchTable(p *engine.Proc, t *SST, key []byte) ([]byte, bool) {
	db.charge(p, "get", costBloomCheck)
	if !t.filter.mayContain(key) {
		return nil, false
	}
	db.charge(p, "get", costIndexSearch)
	blkIdx := t.blockFor(key)
	// The block is done with once the value is copied out of it, so an mmio
	// lookup lends readBlock the buffer. (Cached mode keeps allocating: a
	// miss hands its block to the cache, which keeps that very buffer, and
	// a hit returns one the cache owns.)
	var lent []byte
	if db.mmio() {
		lent = db.bufs.Borrow(blockBytes)
	}
	blk := db.readBlock(p, t, uint64(blkIdx), lent)
	var out []byte
	found := false
	visited := scanBlock(blk, func(k, v []byte) bool {
		cmp := bytes.Compare(k, key)
		if cmp == 0 {
			out = db.vals.Alloc(len(v))
			copy(out, v)
			found = true
			return false
		}
		return cmp < 0
	})
	if lent != nil {
		db.bufs.GiveBack(lent)
	}
	db.charge(p, "get", costBlockEntry*uint64(visited))
	return out, found
}

// readBlock fetches one data block through the configured I/O mode. An mmio
// read lands in buf when the caller lends one (of blockBytes); nil allocates.
// In cached mode a miss reads into a new block that the cache then keeps, so
// the caller reads the block but never writes it.
// Iterators pass nil: mergeIter.next returns slices into a block that must
// outlive the advance which loads the next one, so those blocks have no point
// at which they could be handed back — that aliasing is left as it is.
func (db *DB) readBlock(p *engine.Proc, t *SST, blkIdx uint64, buf []byte) []byte {
	db.BlocksRead++
	off := blkIdx * uint64(blockBytes)
	if db.mmio() {
		// mmio: a load; hits cost nothing beyond the copy.
		if buf == nil {
			buf = make([]byte, blockBytes)
		}
		t0 := p.Now()
		t.mapping.Load(p, off, buf)
		db.Break.Add("mmio", p.Now()-t0)
		db.charge(p, "get", costMmapBlockOverhead)
		return buf
	}
	t0 := p.Now()
	blk := db.cache.Get(p, t.id, blkIdx)
	db.Break.Add("cache", p.Now()-t0)
	if blk != nil {
		return blk
	}
	buf = make([]byte, blockBytes)
	t0 = p.Now()
	t.file.Pread(p, buf, off)
	db.Break.Add("io", p.Now()-t0)
	db.charge(p, "get", costBlockDecode)
	t0 = p.Now()
	db.cache.Insert(p, t.id, blkIdx, buf)
	db.Break.Add("cache", p.Now()-t0)
	return buf
}

// Scan visits up to n records starting at startKey, returning the number
// seen (merged across memtable and all levels, newest version wins).
func (db *DB) Scan(p *engine.Proc, startKey []byte, n int) int {
	p.BeginSpan("kv.scan")
	defer p.EndSpan()
	it := db.newMergeIter(p, startKey)
	seen := 0
	for seen < n {
		_, v, ok := it.next(p)
		if !ok {
			break
		}
		db.charge(p, "get", costIterNext)
		if isTombstone(v) {
			continue
		}
		seen++
	}
	return seen
}

// Flush persists the memtable as an L0 table.
func (db *DB) Flush(p *engine.Proc) {
	db.writeLock.Lock(p)
	db.flushLocked(p)
	db.writeLock.Unlock(p)
}

func (db *DB) flushLocked(p *engine.Proc) {
	if db.mem.entries == 0 {
		return
	}
	p.BeginSpan("kv.flush")
	defer p.EndSpan()
	db.Flushes++
	b := newSSTBuilder(blockBytes, db.mem.size)
	for n := db.mem.first(); n != nil; n = n.next[0] {
		b.add(n.key, n.value)
	}
	t, _ := b.finish(p, db.opts.NS, db.sstName(), db.nextSSTID(), db.mmio())
	db.levels[0] = append([]*SST{t}, db.levels[0]...)
	db.mem = newSkiplist(db.opts.Seed + int64(db.nextID) + 1)
	db.walOff = 0
	if db.wal != nil {
		db.wal.Pwrite(p, []byte{0, 0, 0, 0}, 0) // truncate the log
	}
	if len(db.levels[0]) >= l0Trigger {
		db.compactL0(p)
	}
	db.writeManifest(p)
}

func (db *DB) nextSSTID() uint64 {
	db.nextID++
	return db.nextID
}

func (db *DB) sstName() string { return fmt.Sprintf("sst-%06d", db.nextID+1) }

// compactL0 merges all of L0 with L1 into a fresh L1 and deletes the
// replaced tables, returning their space to the namespace.
func (db *DB) compactL0(p *engine.Proc) {
	p.BeginSpan("kv.compact")
	defer p.EndSpan()
	db.Compactions++
	// Sources: L0 newest-first then L1 (older priority).
	var sources []*SST
	sources = append(sources, db.levels[0]...)
	sources = append(sources, db.levels[1]...)
	merged := db.mergeTables(p, sources)
	db.levels[0] = nil
	db.levels[1] = merged
	for _, t := range sources {
		if t.mapping != nil {
			t.mapping.Munmap(p)
			t.mapping = nil
		}
		db.opts.NS.Delete(p, t.file.Name())
	}
}

// mergeTables k-way merges tables (earlier sources win on duplicate keys)
// into target-size tables.
func (db *DB) mergeTables(p *engine.Proc, sources []*SST) []*SST {
	iters := make([]*sstIter, len(sources))
	for i, t := range sources {
		iters[i] = newSSTIter(db, t, nil)
	}
	h := &iterHeap{}
	for pri, it := range iters {
		if k, v, ok := it.current(p); ok {
			h.push(heapItem{k, v, pri, it})
		}
	}
	var out []*SST
	b := newSSTBuilder(blockBytes, db.opts.SSTTargetBytes)
	var lastKey []byte
	emit := func(k, v []byte) {
		if b.estimatedSize() >= db.opts.SSTTargetBytes {
			out = append(out, db.writeTable(p, b))
		}
		b.add(k, v)
	}
	for h.len() > 0 {
		item := h.pop()
		if lastKey == nil || !bytes.Equal(item.key, lastKey) {
			// The merged output is the bottom level: tombstones have
			// shadowed every older version and can be dropped.
			if !isTombstone(item.value) {
				emit(item.key, item.value)
			}
			lastKey = append(lastKey[:0], item.key...)
		}
		item.it.advance(p)
		if k, v, ok := item.it.current(p); ok {
			h.push(heapItem{k, v, item.pri, item.it})
		}
	}
	if b.entries > 0 {
		out = append(out, db.writeTable(p, b))
	}
	return out
}

// writeTable writes b's table and empties b for the next one, which it builds
// in the same image: a bulk load or a compaction allocates one image however
// many tables it closes.
func (db *DB) writeTable(p *engine.Proc, b *sstBuilder) *SST {
	t, image := b.finish(p, db.opts.NS, db.sstName(), db.nextSSTID(), db.mmio())
	b.reuse(image)
	return t
}

// BulkLoad writes `records` pre-sorted records straight into L1 (the
// standard trick for building read-only evaluation datasets quickly).
func (db *DB) BulkLoad(p *engine.Proc, records uint64, valueSize int) {
	b := newSSTBuilder(blockBytes, db.opts.SSTTargetBytes)
	var key, val []byte
	for id := uint64(0); id < records; id++ {
		if b.estimatedSize() >= db.opts.SSTTargetBytes {
			db.levels[1] = append(db.levels[1], db.writeTable(p, b))
		}
		key = ycsb.AppendKey(key[:0], id)
		val = ycsb.AppendValue(val[:0], id, valueSize)
		b.add(key, val)
	}
	if b.entries > 0 {
		db.levels[1] = append(db.levels[1], db.writeTable(p, b))
	}
	db.writeManifest(p)
}
