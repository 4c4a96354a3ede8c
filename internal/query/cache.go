package query

import (
	"sync"
	"time"

	"nnlqp/internal/graphhash"
)

// This file adds the L1 serving tier: a sharded in-process LRU in front of
// the durable store (which becomes the L2 tier). The database is the paper's
// "evolving database" and stays the source of truth — the L1 holds only
// records that are already durable (write-through on measurement, promotion
// on L2 hit), so an L1 entry is always a subset of the database and degraded
// (predictor-estimated) answers can never enter it. Known-absent keys are
// cached as negative entries with a TTL so miss storms skip the L2 round
// trip on their way to the farm.

// DefaultCacheEntries is the default total L1 capacity.
const DefaultCacheEntries = 8192

// DefaultNegativeTTL is the default lifetime of a negative (known-absent)
// entry. Positive entries never expire: latency measurements are immutable
// once recorded, so only absence can go stale.
const DefaultNegativeTTL = 30 * time.Second

const cacheShards = 16

// CacheKey identifies one latency record in the L1 tier — the same
// (graph hash, platform, batch) triple the database keys on.
type CacheKey struct {
	Hash     graphhash.Key
	Platform string
	Batch    int
}

// CacheValue is the payload of a positive L1 entry: the measured latency and
// the database row IDs so an L1 hit can answer without touching the store.
type CacheValue struct {
	LatencyMS  float64
	ModelID    uint64
	PlatformID uint64
}

type cacheEntry struct {
	key        CacheKey
	val        CacheValue
	negative   bool
	expires    time.Time // zero for positive entries
	prev, next *cacheEntry
}

type cacheShard struct {
	mu         sync.Mutex
	entries    map[CacheKey]*cacheEntry
	head, tail *cacheEntry // intrusive LRU list (head = most recent)
	hits       uint64
	negHits    uint64
	misses     uint64
	evictions  uint64
}

// CacheStats is a point-in-time snapshot of L1 counters.
type CacheStats struct {
	Hits      uint64 // positive-entry hits
	NegHits   uint64 // un-expired negative-entry hits
	Misses    uint64
	Evictions uint64
	Size      int // total entries (positive + negative)
	Negatives int // negative entries
}

// Cache is the sharded L1. Shards are independently locked so concurrent
// serving goroutines contend only when their keys collide on a shard.
type Cache struct {
	shards []cacheShard
	cap    int // per-shard capacity
	negTTL time.Duration
	now    func() time.Time // injectable for TTL tests
}

// NewCache builds an L1 holding up to entries records in total (<=0 →
// DefaultCacheEntries) with the given negative-entry TTL (<=0 →
// DefaultNegativeTTL).
func NewCache(entries int, negTTL time.Duration) *Cache {
	if entries <= 0 {
		entries = DefaultCacheEntries
	}
	if negTTL <= 0 {
		negTTL = DefaultNegativeTTL
	}
	c := &Cache{
		shards: make([]cacheShard, cacheShards),
		cap:    (entries + cacheShards - 1) / cacheShards,
		negTTL: negTTL,
		now:    time.Now,
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[CacheKey]*cacheEntry)
	}
	return c
}

// SetClock overrides the TTL clock (tests only; not safe once serving).
func (c *Cache) SetClock(now func() time.Time) { c.now = now }

func (c *Cache) shard(k CacheKey) *cacheShard {
	h := uint64(k.Hash) ^ uint64(k.Batch)*0x9e3779b97f4a7c15
	return &c.shards[(h^h>>32)%cacheShards]
}

// Get probes the L1. The three outcomes are (val, hit=true, negative=false)
// for a positive entry, (zero, false, true) for an un-expired negative entry
// — the caller should skip the L2 probe and go measure — and (zero, false,
// false) for a miss. Expired negative entries are dropped and count as
// misses.
func (c *Cache) Get(k CacheKey) (CacheValue, bool, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok {
		s.misses++
		return CacheValue{}, false, false
	}
	if e.negative {
		if c.now().After(e.expires) {
			s.unlink(e)
			delete(s.entries, k)
			s.misses++
			return CacheValue{}, false, false
		}
		s.negHits++
		s.moveToFront(e)
		return CacheValue{}, false, true
	}
	s.hits++
	s.moveToFront(e)
	return e.val, true, false
}

// GetHit is Get restricted to positive entries: a hit counts and refreshes
// exactly as Get's does, while a negative entry or a miss returns false and
// touches neither the LRU order nor any counter. A caller that falls back to
// the full query path on false (which probes with Get) thus leaves every
// counter as if it had never looked.
func (c *Cache) GetHit(k CacheKey) (CacheValue, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok || e.negative {
		return CacheValue{}, false
	}
	s.hits++
	s.moveToFront(e)
	return e.val, true
}

// Capacity returns the total number of entries the cache can hold.
func (c *Cache) Capacity() int { return c.cap * len(c.shards) }

// Peek reports whether k has a positive entry, without touching LRU order or
// any counter — a read-only probe for callers (the active-measurement
// scheduler) that must not distort serving statistics.
func (c *Cache) Peek(k CacheKey) bool {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	return ok && !e.negative
}

// Put records a durable measurement (write-through from the store path or
// promotion from an L2 hit). It replaces a negative entry for the same key.
func (c *Cache) Put(k CacheKey, v CacheValue) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok {
		e.val = v
		e.negative = false
		e.expires = time.Time{}
		s.moveToFront(e)
		return
	}
	s.insert(&cacheEntry{key: k, val: v}, c.cap)
}

// PutNegative records that the database has no row for k, valid for the
// negative TTL. It never downgrades a positive entry: a concurrent
// write-through may have landed between this caller's L2 miss and now, and
// the durable record must win.
func (c *Cache) PutNegative(k CacheKey) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	exp := c.now().Add(c.negTTL)
	if e, ok := s.entries[k]; ok {
		if !e.negative {
			return
		}
		e.expires = exp
		s.moveToFront(e)
		return
	}
	s.insert(&cacheEntry{key: k, negative: true, expires: exp}, c.cap)
}

// Invalidate drops the entry for k (positive or negative), reporting whether
// one existed. This is the hook for anything that distrusts a cached row —
// the chaos harness uses it after injected store faults.
func (c *Cache) Invalidate(k CacheKey) bool {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok {
		return false
	}
	s.unlink(e)
	delete(s.entries, k)
	return true
}

// Flush empties the cache (counters are kept).
func (c *Cache) Flush() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = make(map[CacheKey]*cacheEntry)
		s.head, s.tail = nil, nil
		s.mu.Unlock()
	}
}

// Stats sums counters and sizes across shards.
func (c *Cache) Stats() CacheStats {
	var st CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.NegHits += s.negHits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Size += len(s.entries)
		for e := s.head; e != nil; e = e.next {
			if e.negative {
				st.Negatives++
			}
		}
		s.mu.Unlock()
	}
	return st
}

// insert links a new entry at the front and evicts the LRU tail when the
// shard is over capacity. Callers hold mu.
func (s *cacheShard) insert(e *cacheEntry, cap int) {
	s.entries[e.key] = e
	s.pushFront(e)
	if len(s.entries) > cap {
		victim := s.tail
		s.unlink(victim)
		delete(s.entries, victim.key)
		s.evictions++
	}
}

// pushFront links e as most recently used. Callers hold mu.
func (s *cacheShard) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// unlink removes e from the LRU list. Callers hold mu.
func (s *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveToFront marks e most recently used. Callers hold mu.
func (s *cacheShard) moveToFront(e *cacheEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
