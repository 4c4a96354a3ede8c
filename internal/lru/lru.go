// Package lru provides the sharded, fixed-capacity LRU map behind the
// serving path's content-addressed memos (core.PredictMemo and the server's
// wire memo). Keys must be immutable values; each shard is independently
// locked, so concurrent serving goroutines contend only when their keys land
// on one shard.
package lru

import "sync"

// Sharded is a fixed-capacity LRU map split into independently locked
// shards. The shard of a key is chosen from hash(key), so a caller whose
// keys already carry a well-mixed hash pays no extra hashing.
type Sharded[K comparable, V any] struct {
	shards []shard[K, V]
	mask   uint64
	cap    int // per-shard capacity
	hash   func(K) uint64
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V] // intrusive LRU list (head = most recent)
}

type shard[K comparable, V any] struct {
	mu         sync.Mutex
	entries    map[K]*entry[K, V]
	head, tail *entry[K, V]
	hits       uint64
	misses     uint64
	evictions  uint64
}

// Stats is a point-in-time snapshot of a Sharded map's counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Size      int
}

// New builds a map holding up to entries values in total, split evenly over
// shards (a power of two). hash picks a key's shard; its high and low halves
// are folded together first.
func New[K comparable, V any](entries, shards int, hash func(K) uint64) *Sharded[K, V] {
	if shards < 1 || shards&(shards-1) != 0 {
		panic("lru: shard count must be a power of two")
	}
	c := &Sharded[K, V]{
		shards: make([]shard[K, V], shards),
		mask:   uint64(shards - 1),
		cap:    (entries + shards - 1) / shards,
		hash:   hash,
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[K]*entry[K, V])
	}
	return c
}

// Capacity returns the total number of entries the map can hold.
func (c *Sharded[K, V]) Capacity() int { return c.cap * len(c.shards) }

func (c *Sharded[K, V]) shard(k K) *shard[K, V] {
	h := c.hash(k)
	return &c.shards[(h^h>>32)&c.mask]
}

// Get returns the value stored under k, marking it most recently used.
func (c *Sharded[K, V]) Get(k K) (V, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok {
		s.misses++
		var zero V
		return zero, false
	}
	s.hits++
	s.moveToFront(e)
	return e.val, true
}

// Put stores v under k, evicting the shard's least recently used entry when
// the shard is over capacity.
func (c *Sharded[K, V]) Put(k K, v V) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok {
		e.val = v
		s.moveToFront(e)
		return
	}
	e := &entry[K, V]{key: k, val: v}
	s.entries[k] = e
	s.pushFront(e)
	if len(s.entries) > c.cap {
		victim := s.tail
		s.unlink(victim)
		delete(s.entries, victim.key)
		s.evictions++
	}
}

// Stats sums counters and sizes across shards.
func (c *Sharded[K, V]) Stats() Stats {
	var st Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Size += len(s.entries)
		s.mu.Unlock()
	}
	return st
}

// pushFront links e as the most recently used entry. Callers hold mu.
func (s *shard[K, V]) pushFront(e *entry[K, V]) {
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
func (s *shard[K, V]) unlink(e *entry[K, V]) {
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
func (s *shard[K, V]) moveToFront(e *entry[K, V]) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
