// Package lsm implements a RocksDB-like persistent key-value store: an
// LSM-tree with a skiplist memtable, a write-ahead log, fixed-size sorted
// tables (SSTs) with block indexes and bloom filters, leveled compaction,
// and the two I/O configurations Fig 5 runs: direct I/O with a user-space
// block cache (the recommended RocksDB mode), and mmio.
package lsm

import (
	"bytes"
	"math/rand"
)

const maxSkipLevel = 12

// skiplist is the memtable: a deterministic-probabilistic skiplist over
// byte-slice keys.
type skiplist struct {
	head    *skipNode
	rng     *rand.Rand
	size    int // approximate bytes
	entries int
}

type skipNode struct {
	key, value []byte
	next       [maxSkipLevel]*skipNode
	level      int
}

func newSkiplist(seed int64) *skiplist {
	return &skiplist{
		head: &skipNode{level: maxSkipLevel},
		rng:  rand.New(rand.NewSource(seed)),
	}
}

func (s *skiplist) randomLevel() int {
	lvl := 1
	for lvl < maxSkipLevel && s.rng.Intn(4) == 0 {
		lvl++
	}
	return lvl
}

// put inserts or overwrites a key, copying what it keeps: the value always
// (a replaced value may be in a reader's hands and is never written again),
// the key only when a new node is inserted. Returns the number of pointer
// hops, used for cost charging.
func (s *skiplist) put(key, value []byte) int {
	var update [maxSkipLevel]*skipNode
	hops := 0
	x := s.head
	for i := maxSkipLevel - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].key, key) < 0 {
			x = x.next[i]
			hops++
		}
		update[i] = x
	}
	value = append([]byte(nil), value...)
	if n := x.next[0]; n != nil && bytes.Equal(n.key, key) {
		s.size += len(value) - len(n.value)
		n.value = value
		return hops
	}
	lvl := s.randomLevel()
	n := &skipNode{key: append([]byte(nil), key...), value: value, level: lvl}
	for i := 0; i < lvl; i++ {
		n.next[i] = update[i].next[i]
		update[i].next[i] = n
	}
	s.size += len(key) + len(value) + 64
	s.entries++
	return hops
}

// get looks a key up. Returns value, found, and pointer hops.
func (s *skiplist) get(key []byte) ([]byte, bool, int) {
	hops := 0
	x := s.head
	for i := maxSkipLevel - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].key, key) < 0 {
			x = x.next[i]
			hops++
		}
	}
	if n := x.next[0]; n != nil && bytes.Equal(n.key, key) {
		return n.value, true, hops
	}
	return nil, false, hops
}

// seek returns the first node with key >= target.
func (s *skiplist) seek(key []byte) *skipNode {
	x := s.head
	for i := maxSkipLevel - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].key, key) < 0 {
			x = x.next[i]
		}
	}
	return x.next[0]
}

// first returns the smallest node.
func (s *skiplist) first() *skipNode { return s.head.next[0] }
