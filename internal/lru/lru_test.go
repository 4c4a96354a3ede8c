package lru

import (
	"sync"
	"testing"
)

func identity(k uint64) uint64 { return k }

func TestShardedEvictsPerShardLRU(t *testing.T) {
	c := New[uint64, string](8, 4, identity) // 2 entries per shard
	if c.Capacity() != 8 {
		t.Fatalf("capacity %d, want 8", c.Capacity())
	}
	// Keys 0, 4 and 8 share shard 0.
	c.Put(0, "a")
	c.Put(4, "b")
	if v, ok := c.Get(0); !ok || v != "a" {
		t.Fatalf("Get(0) = %q, %v", v, ok)
	}
	c.Put(8, "c") // evicts 4, the least recently used in shard 0
	if _, ok := c.Get(4); ok {
		t.Fatal("key 4 should have been evicted")
	}
	c.Put(0, "a2")
	if v, _ := c.Get(0); v != "a2" {
		t.Fatalf("Put did not replace: %q", v)
	}
	c.Put(1, "d") // another shard: no eviction
	st := c.Stats()
	if st.Size != 3 || st.Evictions != 1 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestShardedConcurrent(t *testing.T) {
	c := New[uint64, int](64, 16, identity)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := uint64((i * (w + 1)) % 200)
				if i%2 == 0 {
					c.Put(k, i)
				} else {
					c.Get(k)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.Stats().Size; n > c.Capacity() {
		t.Fatalf("size %d exceeds capacity %d", n, c.Capacity())
	}
}
