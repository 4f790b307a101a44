package lsm

import (
	"aquila/internal/sim/engine"
)

// BlockCache is the user-space cache of the paper's Figure 1(b): a sharded
// LRU over decoded data blocks, in the style of RocksDB's LRUCache. Every
// access — including hits — pays lookup, locking and reference-counting
// costs; this is precisely the overhead the paper's Figure 7 decomposes and
// Aquila's mmio path eliminates. A block is cached as the buffer Insert is
// handed, without a copy, and is never written again: readers on a hit and
// iterators across yields hold it as it is, and eviction only drops it.
type BlockCache struct {
	shards []cacheShard

	// Stats.
	Hits, Misses, Evictions uint64
}

type cacheKey struct {
	sst uint64
	blk uint64
}

type cacheShard struct {
	lock     *engine.Mutex
	blocks   map[cacheKey]*cacheBlock
	lruHead  *cacheBlock
	lruTail  *cacheBlock
	capacity int
	used     int
}

type cacheBlock struct {
	key        cacheKey
	data       []byte
	prev, next *cacheBlock
}

// NewBlockCache creates a cache with the given byte capacity across 16
// shards.
func NewBlockCache(e *engine.Engine, capacity uint64) *BlockCache {
	const nShards = 16
	c := &BlockCache{}
	per := int(capacity) / nShards
	for i := 0; i < nShards; i++ {
		c.shards = append(c.shards, cacheShard{
			lock:     engine.NewMutex(e, "blockcache"),
			blocks:   make(map[cacheKey]*cacheBlock),
			capacity: per,
		})
	}
	return c
}

func (c *BlockCache) shard(k cacheKey) *cacheShard {
	h := k.sst*0x9E3779B97F4A7C15 ^ k.blk*0xC2B2AE3D27D4EB4F
	return &c.shards[h%uint64(len(c.shards))]
}

// Get returns the cached block or nil, charging lookup costs.
func (c *BlockCache) Get(p *engine.Proc, sst, blk uint64) []byte {
	k := cacheKey{sst, blk}
	s := c.shard(k)
	s.lock.Lock(p)
	p.AdvanceUser(costCacheLookup)
	b := s.blocks[k]
	if b != nil {
		s.lruRemove(b)
		s.lruPush(b)
		c.Hits++
	} else {
		c.Misses++
	}
	s.lock.Unlock(p)
	if b == nil {
		return nil
	}
	return b.data
}

// Insert caches data itself, evicting LRU blocks as needed. The caller hands
// the buffer over and does not write it again.
func (c *BlockCache) Insert(p *engine.Proc, sst, blk uint64, data []byte) {
	k := cacheKey{sst, blk}
	s := c.shard(k)
	s.lock.Lock(p)
	p.AdvanceUser(costCacheInsert)
	if _, ok := s.blocks[k]; ok {
		s.lock.Unlock(p)
		return
	}
	for s.used+len(data) > s.capacity && s.lruTail != nil {
		victim := s.lruTail
		s.lruRemove(victim)
		delete(s.blocks, victim.key)
		s.used -= len(victim.data)
		c.Evictions++
		p.AdvanceUser(costCacheEvict)
	}
	b := &cacheBlock{key: k, data: data}
	s.blocks[k] = b
	s.lruPush(b)
	s.used += len(data)
	s.lock.Unlock(p)
}

// Resident returns the number of cached blocks (tests).
func (c *BlockCache) Resident() int {
	n := 0
	for i := range c.shards {
		n += len(c.shards[i].blocks)
	}
	return n
}

func (s *cacheShard) lruPush(b *cacheBlock) {
	b.prev = nil
	b.next = s.lruHead
	if s.lruHead != nil {
		s.lruHead.prev = b
	}
	s.lruHead = b
	if s.lruTail == nil {
		s.lruTail = b
	}
}

func (s *cacheShard) lruRemove(b *cacheBlock) {
	if b.prev != nil {
		b.prev.next = b.next
	} else if s.lruHead == b {
		s.lruHead = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else if s.lruTail == b {
		s.lruTail = b.prev
	}
	b.prev, b.next = nil, nil
}
