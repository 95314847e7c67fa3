package serve

import (
	"sync"
	"testing"
	"time"
)

func testModel(name string, gen uint64) *Model {
	return &Model{Name: name, Est: newFakeEst(2), Generation: gen, LoadedAt: time.Now()}
}

func TestCacheHitMissAndLRUEviction(t *testing.T) {
	c := NewCache(CacheConfig{Capacity: 2})
	m := testModel("m", 1)

	k1 := c.Key(m, []float64{1, 2}, 0.1)
	k2 := c.Key(m, []float64{3, 4}, 0.2)
	k3 := c.Key(m, []float64{5, 6}, 0.3)

	if _, ok := c.Get(k1); ok {
		t.Fatal("empty cache returned a hit")
	}
	// Each key is admitted on its second Put.
	admit := func(k string, v float64) { c.Put(k, v); c.Put(k, v) }
	admit(k1, 10)
	admit(k2, 20)
	if v, ok := c.Get(k1); !ok || v != 10 {
		t.Fatalf("Get(k1) = %v, %v", v, ok)
	}
	// k1 is now most recent; inserting k3 must evict k2.
	admit(k3, 30)
	if _, ok := c.Get(k2); ok {
		t.Fatal("k2 should have been evicted (LRU)")
	}
	if v, ok := c.Get(k1); !ok || v != 10 {
		t.Fatalf("k1 evicted out of LRU order: %v, %v", v, ok)
	}
	st := c.Stats()
	if st.Size != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want size 2, evictions 1", st)
	}
}

func TestCacheQuantization(t *testing.T) {
	c := NewCache(CacheConfig{Capacity: 8, Quantum: 1e-3})
	m := testModel("m", 1)

	// Inputs within the same 1e-3 grid cell share a key...
	a := c.Key(m, []float64{0.10002, 0.5}, 0.20004)
	b := c.Key(m, []float64{0.10004, 0.5}, 0.19996)
	if a != b {
		t.Fatal("nearby inputs should quantize to the same key")
	}
	// ...and distinct cells do not.
	far := c.Key(m, []float64{0.102, 0.5}, 0.2)
	if a == far {
		t.Fatal("distinct inputs collided")
	}
	// Negative/positive zero normalize to one key.
	nz := c.Key(m, []float64{-1e-9, 0.5}, 0.2)
	pz := c.Key(m, []float64{1e-9, 0.5}, 0.2)
	if nz != pz {
		t.Fatal("-0.0 and +0.0 cells should share a key")
	}
}

func TestCacheKeySeparatesModelsAndGenerations(t *testing.T) {
	c := NewCache(CacheConfig{Capacity: 8})
	x := []float64{1, 2}
	if c.Key(testModel("a", 1), x, 0.1) == c.Key(testModel("b", 1), x, 0.1) {
		t.Fatal("different model names collided")
	}
	// A hot-swapped model bumps its generation, invalidating old entries.
	if c.Key(testModel("a", 1), x, 0.1) == c.Key(testModel("a", 2), x, 0.1) {
		t.Fatal("different generations collided")
	}
}

func TestCacheAdmitsOnSecondMiss(t *testing.T) {
	c := NewCache(CacheConfig{Capacity: 4})
	m := testModel("m", 1)
	k := c.Key(m, []float64{1, 2}, 0.1)
	c.Put(k, 5)
	if _, ok := c.Get(k); ok || c.Len() != 0 {
		t.Fatalf("first Put stored the key (size %d)", c.Len())
	}
	c.Put(k, 5)
	if v, ok := c.Get(k); !ok || v != 5 {
		t.Fatalf("second Put: Get = %v, %v, want 5, true", v, ok)
	}
	// A refresh of an admitted key takes effect at once.
	c.Put(k, 6)
	if v, _ := c.Get(k); v != 6 {
		t.Fatalf("refreshed value = %v, want 6", v)
	}
}

// A stream of distinct keys, as a caller that never repeats a query
// sends, stores nothing and evicts nothing: admission needs a full
// 64-bit hash match in the key's doorkeeper slot.
func TestCacheDistinctKeysStoreNothing(t *testing.T) {
	const capacity = 64
	c := NewCache(CacheConfig{Capacity: capacity})
	m := testModel("m", 1)
	for i := 0; i < 10*capacity; i++ {
		c.Put(c.Key(m, []float64{float64(i), 0}, 0.5), float64(i))
	}
	if st := c.Stats(); st.Size != 0 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want size 0 and no evictions", st)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(CacheConfig{Capacity: 0})
	m := testModel("m", 1)
	k := c.Key(m, []float64{1, 2}, 0.1)
	c.Put(k, 5)
	if _, ok := c.Get(k); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if st := c.Stats(); st.Size != 0 || st.Misses == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCacheConcurrentGetPut hammers one key from readers and writers;
// run with -race (Get must read the entry's value under the lock, since
// Put refreshes entries in place).
func TestCacheConcurrentGetPut(t *testing.T) {
	c := NewCache(CacheConfig{Capacity: 4})
	m := testModel("m", 1)
	k := c.Key(m, []float64{1, 2}, 0.1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if g%2 == 0 {
					c.Put(k, float64(i))
				} else if v, ok := c.Get(k); ok && v < 0 {
					t.Error("impossible cached value")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
