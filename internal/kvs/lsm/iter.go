package lsm

import (
	"bytes"
	"encoding/binary"

	"aquila/internal/sim/engine"
)

// sstIter streams one table's records in key order, reading blocks through
// the DB's configured I/O mode.
type sstIter struct {
	db     *DB
	t      *SST
	blkIdx int
	blk    []byte
	pos    int
	curKey []byte
	curVal []byte
	loaded bool
	done   bool
	seek   []byte
}

// newSSTIter positions an iterator at the first key >= startKey (nil: start).
func newSSTIter(db *DB, t *SST, startKey []byte) *sstIter {
	it := &sstIter{db: db, t: t, seek: startKey}
	if startKey != nil {
		it.blkIdx = t.blockFor(startKey)
	}
	return it
}

// load fetches the current block and decodes the first entry at/after seek.
func (it *sstIter) load(p *engine.Proc) {
	for {
		if it.blkIdx >= it.t.blockCount {
			it.done = true
			return
		}
		it.blk = it.db.readBlock(p, it.t, uint64(it.blkIdx), nil)
		it.pos = 0
		if it.decode() {
			// Skip entries before the seek key.
			for it.seek != nil && bytes.Compare(it.curKey, it.seek) < 0 {
				if !it.step() {
					break
				}
			}
			if !it.done && (it.seek == nil || bytes.Compare(it.curKey, it.seek) >= 0) {
				it.seek = nil
				return
			}
			if it.done {
				return
			}
		}
		it.blkIdx++
	}
}

// decode parses the entry at pos into curKey/curVal.
func (it *sstIter) decode() bool {
	if it.pos+4 > len(it.blk) {
		return false
	}
	kl := int(binary.LittleEndian.Uint16(it.blk[it.pos:]))
	vl := int(binary.LittleEndian.Uint16(it.blk[it.pos+2:]))
	if kl == 0 {
		return false
	}
	it.curKey = it.blk[it.pos+4 : it.pos+4+kl]
	it.curVal = it.blk[it.pos+4+kl : it.pos+4+kl+vl]
	return true
}

// step moves to the next entry within the current block, or marks the block
// exhausted (caller advances the block).
func (it *sstIter) step() bool {
	kl := int(binary.LittleEndian.Uint16(it.blk[it.pos:]))
	vl := int(binary.LittleEndian.Uint16(it.blk[it.pos+2:]))
	it.pos += 4 + kl + vl
	return it.decode()
}

// current returns the iterator's record, loading lazily.
func (it *sstIter) current(p *engine.Proc) ([]byte, []byte, bool) {
	if it.done {
		return nil, nil, false
	}
	if !it.loaded {
		it.loaded = true
		it.load(p)
		if it.done {
			return nil, nil, false
		}
	}
	return it.curKey, it.curVal, true
}

// advance moves to the next record.
func (it *sstIter) advance(p *engine.Proc) {
	if it.done || !it.loaded {
		it.current(p)
		if it.done {
			return
		}
	}
	if it.step() {
		return
	}
	it.blkIdx++
	it.load(p)
}

// heapItem is one merge-heap element; lower pri = newer source.
type heapItem struct {
	key, value []byte
	pri        int
	it         *sstIter
}

// iterHeap is a small binary min-heap ordered by (key, pri).
type iterHeap struct {
	items []heapItem
}

func (h *iterHeap) len() int { return len(h.items) }

func (h *iterHeap) less(a, b heapItem) bool {
	c := bytes.Compare(a.key, b.key)
	if c != 0 {
		return c < 0
	}
	return a.pri < b.pri
}

func (h *iterHeap) push(x heapItem) {
	h.items = append(h.items, x)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *iterHeap) pop() heapItem {
	top := h.items[0]
	n := len(h.items)
	h.items[0] = h.items[n-1]
	h.items = h.items[:n-1]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.items) && h.less(h.items[l], h.items[smallest]) {
			smallest = l
		}
		if r < len(h.items) && h.less(h.items[r], h.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}

// mergeIter merges the memtable and every table, newest source winning on
// duplicate keys.
type mergeIter struct {
	memNode *skipNode
	heap    *iterHeap
	lastKey []byte
}

// newMergeIter builds a merged iterator positioned at startKey.
func (db *DB) newMergeIter(p *engine.Proc, startKey []byte) *mergeIter {
	m := &mergeIter{heap: &iterHeap{}}
	m.memNode = db.mem.seek(startKey)
	pri := 1
	for _, t := range db.levels[0] {
		it := newSSTIter(db, t, startKey)
		if k, v, ok := it.current(p); ok {
			m.heap.push(heapItem{k, v, pri, it})
		}
		pri++
	}
	for lvl := 1; lvl < len(db.levels); lvl++ {
		for _, t := range db.levels[lvl] {
			if bytes.Compare(t.largest, startKey) < 0 {
				continue
			}
			it := newSSTIter(db, t, startKey)
			if k, v, ok := it.current(p); ok {
				m.heap.push(heapItem{k, v, pri, it})
			}
		}
		pri++
	}
	return m
}

// next returns the next merged record.
func (m *mergeIter) next(p *engine.Proc) ([]byte, []byte, bool) {
	for {
		// Candidate from memtable (priority 0: newest).
		var memKey []byte
		if m.memNode != nil {
			memKey = m.memNode.key
		}
		useMem := false
		if memKey != nil {
			if m.heap.len() == 0 || bytes.Compare(memKey, m.heap.items[0].key) <= 0 {
				useMem = true
			}
		}
		var k, v []byte
		if useMem {
			k, v = m.memNode.key, m.memNode.value
			m.memNode = m.memNode.next[0]
		} else {
			if m.heap.len() == 0 {
				return nil, nil, false
			}
			item := m.heap.pop()
			k, v = item.key, item.value
			item.it.advance(p)
			if nk, nv, ok := item.it.current(p); ok {
				m.heap.push(heapItem{nk, nv, item.pri, item.it})
			}
		}
		if m.lastKey != nil && bytes.Equal(k, m.lastKey) {
			continue // older duplicate
		}
		m.lastKey = append(m.lastKey[:0], k...)
		return k, v, true
	}
}
