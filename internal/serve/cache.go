package serve

import (
	"container/list"
	"encoding/binary"
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"
)

// CacheConfig tunes the estimate cache.
type CacheConfig struct {
	// Capacity is the maximum number of cached estimates; 0 disables the
	// cache entirely.
	Capacity int
	// Quantum is the grid step used to quantize query coordinates and
	// thresholds into cache keys (0 takes DefaultCacheConfig's). Two
	// requests landing in the same grid cell share a cache entry, so a
	// coarser quantum trades estimate fidelity for hit rate. SelNet estimates are continuous and
	// piece-wise linear in t, so nearby inputs give nearby outputs.
	Quantum float64
}

// DefaultCacheConfig returns the cache selestd starts with: 4096
// entries on a 1e-6 grid.
func DefaultCacheConfig() CacheConfig {
	return CacheConfig{Capacity: 4096, Quantum: 1e-6}
}

func (c CacheConfig) withDefaults() CacheConfig {
	if c.Quantum <= 0 {
		c.Quantum = DefaultCacheConfig().Quantum
	}
	return c
}

// CacheStats is a snapshot of cache effectiveness counters.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Size      int    `json:"size"`
	Capacity  int    `json:"capacity"`
	Evictions uint64 `json:"evictions"`
}

// Cache is an LRU map from (model generation, quantized query vector,
// quantized threshold) to a previously computed estimate. Keying on the
// model's registry generation — not just its name — makes hot-swaps
// self-invalidating: entries for the old weights simply stop being
// requested and age out.
//
// A key is admitted on its second miss: a direct-mapped doorkeeper of
// Capacity key hashes remembers the first, so a stream of distinct
// requests neither retains keys nor evicts entries that do repeat. The
// LRU compares full keys, so a hash collision can only admit a key one
// miss early, never return a wrong estimate.
type Cache struct {
	cfg  CacheConfig
	seed maphash.Seed

	mu    sync.Mutex
	door  []uint64   // door[h%len] = h for the last first-miss key hashing there
	ll    *list.List // front = most recent
	items map[string]*list.Element

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type cacheEntry struct {
	key string
	val float64
}

// NewCache returns an LRU estimate cache; capacity 0 yields a disabled
// cache whose Get always misses.
func NewCache(cfg CacheConfig) *Cache {
	cfg = cfg.withDefaults()
	return &Cache{
		cfg:   cfg,
		seed:  maphash.MakeSeed(),
		door:  make([]uint64, max(cfg.Capacity, 0)),
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// Key builds the cache key for a request against one published model.
// The quantized binary form is compact and allocation-friendly as a map
// key (Go interns string map keys per entry, not globally).
func (c *Cache) Key(m *Model, x []float64, t float64) string {
	q := c.cfg.Quantum
	buf := make([]byte, 0, 8*(len(x)+3)+len(m.Name))
	buf = append(buf, m.Name...)
	buf = binary.LittleEndian.AppendUint64(buf, m.Generation)
	for _, v := range x {
		buf = binary.LittleEndian.AppendUint64(buf, quantize(v, q))
	}
	buf = binary.LittleEndian.AppendUint64(buf, quantize(t, q))
	return string(buf)
}

// quantize maps v onto the grid index round(v/q), encoded so that
// distinct cells give distinct uint64s (including negatives and the
// -0.0/+0.0 pair).
func quantize(v, q float64) uint64 {
	cell := math.Round(v / q)
	return math.Float64bits(cell + 0) // +0 normalizes -0.0 to +0.0
}

// Enabled reports whether the cache stores anything; callers can skip
// key construction entirely when it does not.
func (c *Cache) Enabled() bool { return c.cfg.Capacity > 0 }

// Get returns the cached estimate for key, if present, and marks it most
// recently used.
func (c *Cache) Get(key string) (float64, bool) {
	if c.cfg.Capacity <= 0 {
		c.misses.Add(1)
		return 0, false
	}
	c.mu.Lock()
	el, ok := c.items[key]
	var v float64
	if ok {
		c.ll.MoveToFront(el)
		// Read val under the lock: Put refreshes entries in place.
		v = el.Value.(*cacheEntry).val
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return 0, false
	}
	c.hits.Add(1)
	return v, true
}

// Put refreshes a cached estimate, or stores a new one if its key
// already missed once before, evicting the least recently used entry
// when over capacity. A key's first Put only marks it in the doorkeeper.
func (c *Cache) Put(key string, val float64) {
	if c.cfg.Capacity <= 0 {
		return
	}
	h := maphash.String(c.seed, key)
	slot := &c.door[h%uint64(len(c.door))]
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	if *slot != h {
		*slot = h
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.cfg.Capacity {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Size:      c.Len(),
		Capacity:  c.cfg.Capacity,
		Evictions: c.evictions.Load(),
	}
}
