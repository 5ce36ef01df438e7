// Package cache provides a capacity-bounded, rotation-aware LRU for
// pairing precomputation artifacts: the dlr transport tables (one
// Miller-loop line table set per encrypted-share ciphertext) are
// expensive to build — κ+1 cold Miller precomputations per ciphertext —
// but deterministic functions of a share state, so they can be reused
// across P1 instances until the next proactive refresh replaces that
// share state.
//
// # Why keys carry an epoch
//
// The tables are built from P1's encrypted share, which is public
// memory (it transits the public channel anyway), so a cached table
// holds nothing the leakage adversary does not already see. A stale
// table is still a correctness bug: replayed after a rotation it
// transports against ciphertexts P2 no longer holds the matching share
// for, and the decryption comes out wrong.
//
// The design therefore does NOT rely on eager invalidation for
// correctness. Every key carries the owner's rotation epoch, and the
// owner bumps its epoch on every operation that replaces share state
// (refresh, period begin, share rebuild). A post-refresh lookup can
// never hit a pre-refresh entry because the keys differ. Eager
// invalidation (InvalidateTenant, called from the refresh paths) is
// purely memory hygiene: it drops the now-unreachable old-epoch
// entries immediately instead of waiting for LRU pressure to evict
// them.
//
// # Future-epoch prewarming
//
// The epoch keying also gives prewarming for free: a refresh pipeline
// may Put entries under (tenant, epoch+1) while the owner is
// still serving at epoch. Those entries are unaddressable until the
// owner actually commits the rotation — every lookup is keyed by the
// owner's *current* epoch counter, and the counter only advances at
// commit — so admission of future-epoch entries can never leak
// next-epoch tables into pre-commit serving. At commit the owner
// calls InvalidateTenantBelow(tenant, newEpoch), which drops the
// retiring epochs' entries while leaving the prewarmed next-epoch
// entries in place for the first post-flip lookup to hit.
//
// # Concurrency and capacity
//
// All methods are safe for concurrent use. Capacity bounds the entry
// count, not bytes: entries are few and large (a transport table is
// κ+1 line tables), so count is the natural unit. Eviction is
// strict LRU. The zero capacity disables caching entirely (every Get
// misses, Put is a no-op), which keeps call sites branch-free.
package cache

import (
	"container/list"
	"sync"
)

// Key identifies one cached transport-table set. Tenant scopes entries
// to one key-share owner (one P1 instance, one logical customer), and
// Epoch is that owner's rotation epoch at build time.
type Key struct {
	Tenant string
	Epoch  uint64
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Len       int
	Capacity  int
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type entry struct {
	key Key
	val any
}

// Cache is a thread-safe LRU keyed by Key. The zero value is unusable;
// use New.
type Cache struct {
	mu       sync.Mutex
	capacity int
	//dlr:guarded-by mu
	ll *list.List // front = most recently used
	//dlr:guarded-by mu
	index map[Key]*list.Element
	// byTenant is a secondary index from tenant to that tenant's live
	// keys, so per-rotation invalidation touches only the rotating
	// tenant's entries instead of walking the whole LRU list (which is
	// O(total entries across all tenants) — at fleet scale a single
	// tenant's rotation must not pay for everyone else's cache).
	//dlr:guarded-by mu
	byTenant map[string]map[Key]*list.Element
	//dlr:guarded-by mu
	hits uint64
	//dlr:guarded-by mu
	misses uint64
	//dlr:guarded-by mu
	evictions uint64
}

// New returns a cache holding at most capacity entries. capacity <= 0
// disables caching: Get always misses and Put is a no-op.
func New(capacity int) *Cache {
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		index:    make(map[Key]*list.Element),
		byTenant: make(map[string]map[Key]*list.Element),
	}
}

// removeLocked drops el from the list and both indices. Callers hold
// c.mu.
//
//dlr:locked mu
func (c *Cache) removeLocked(el *list.Element) {
	k := el.Value.(*entry).key
	c.ll.Remove(el)
	delete(c.index, k)
	if keys := c.byTenant[k.Tenant]; keys != nil {
		delete(keys, k)
		if len(keys) == 0 {
			delete(c.byTenant, k.Tenant)
		}
	}
}

// Get returns the value under k and marks it most recently used.
func (c *Cache) Get(k Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Put inserts or replaces the value under k, evicting the least
// recently used entries if the capacity is exceeded. Concurrent
// builders racing to Put the same key are benign: the artifacts are
// deterministic per (tenant, epoch), so either build is valid
// and the later Put simply replaces an equal value.
func (c *Cache) Put(k Key, v any) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[k]; ok {
		el.Value.(*entry).val = v
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&entry{key: k, val: v})
	c.index[k] = el
	keys := c.byTenant[k.Tenant]
	if keys == nil {
		keys = make(map[Key]*list.Element)
		c.byTenant[k.Tenant] = keys
	}
	keys[k] = el
	for c.ll.Len() > c.capacity {
		c.removeLocked(c.ll.Back())
		c.evictions++
	}
}

// InvalidateTenant removes every entry belonging to tenant, across
// all epochs, and returns how many were dropped. Refresh
// paths call this after bumping their epoch: correctness never
// depends on it (the new epoch can't address old entries), it just
// reclaims the dead entries' memory immediately.
func (c *Cache) InvalidateTenant(tenant string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for _, el := range c.byTenant[tenant] {
		c.removeLocked(el)
		dropped++
	}
	return dropped
}

// InvalidateTenantBelow removes tenant's entries whose Epoch is
// strictly below epoch and returns how many were dropped. The
// pipelined refresh path uses this at commit time: next-epoch entries
// prewarmed under the future (tenant, epoch+1) key during staging must
// survive the flip — that warmth is the whole point of the pipeline —
// while everything from the retiring epochs is dropped eagerly, same
// hygiene contract as InvalidateTenant.
func (c *Cache) InvalidateTenantBelow(tenant string, epoch uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for k, el := range c.byTenant[tenant] {
		if k.Epoch < epoch {
			c.removeLocked(el)
			dropped++
		}
	}
	return dropped
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the effectiveness counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Len:       c.ll.Len(),
		Capacity:  c.capacity,
	}
}
