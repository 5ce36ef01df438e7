package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPutBasic(t *testing.T) {
	c := New(4)
	k := Key{Tenant: "t1", Epoch: 0}
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, "v0")
	v, ok := c.Get(k)
	if !ok || v.(string) != "v0" {
		t.Fatalf("got (%v,%v), want (v0,true)", v, ok)
	}
	// Replacing under the same key keeps Len at 1.
	c.Put(k, "v1")
	if c.Len() != 1 {
		t.Fatalf("Len=%d after replace, want 1", c.Len())
	}
	if v, _ := c.Get(k); v.(string) != "v1" {
		t.Fatalf("replace not visible: got %v", v)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("stats %+v, want 2 hits / 1 miss", s)
	}
}

// TestLRUEviction fills past capacity and checks the least recently
// USED (not least recently inserted) entry is the one dropped.
func TestLRUEviction(t *testing.T) {
	c := New(3)
	ks := make([]Key, 4)
	for i := range ks {
		ks[i] = Key{Tenant: "t", Epoch: uint64(i)}
	}
	c.Put(ks[0], 0)
	c.Put(ks[1], 1)
	c.Put(ks[2], 2)
	// Touch ks[0] so ks[1] becomes the LRU entry.
	if _, ok := c.Get(ks[0]); !ok {
		t.Fatal("ks[0] should be cached")
	}
	c.Put(ks[3], 3)
	if _, ok := c.Get(ks[1]); ok {
		t.Fatal("ks[1] should have been evicted (LRU)")
	}
	for _, k := range []Key{ks[0], ks[2], ks[3]} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%+v should have survived eviction", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Len != 3 {
		t.Fatalf("stats %+v, want 1 eviction and Len 3", s)
	}
}

// TestEpochKeysNeverCollide is the cache-layer half of the rotation
// guarantee: entries written under epoch e are unreachable from epoch
// e+1 even when nobody invalidates.
func TestEpochKeysNeverCollide(t *testing.T) {
	c := New(8)
	pre := Key{Tenant: "t", Epoch: 7}
	c.Put(pre, "pre-refresh table")
	post := pre
	post.Epoch = 8
	if _, ok := c.Get(post); ok {
		t.Fatal("post-refresh key must not hit a pre-refresh entry")
	}
}

func TestInvalidateTenant(t *testing.T) {
	c := New(16)
	for e := uint64(0); e < 6; e++ {
		c.Put(Key{Tenant: "a", Epoch: e}, e)
	}
	for e := uint64(0); e < 3; e++ {
		c.Put(Key{Tenant: "b", Epoch: e}, e)
	}
	if n := c.InvalidateTenant("a"); n != 6 {
		t.Fatalf("invalidated %d entries of tenant a, want 6", n)
	}
	if c.Len() != 3 {
		t.Fatalf("Len=%d after invalidation, want 3 (tenant b untouched)", c.Len())
	}
	for e := uint64(0); e < 3; e++ {
		if _, ok := c.Get(Key{Tenant: "b", Epoch: e}); !ok {
			t.Fatalf("tenant b epoch %d lost to tenant a's invalidation", e)
		}
	}
}

// TestInvalidateTenantBelow is the pipelined-rotation contract:
// committing at epoch e drops everything below e but leaves both the
// new-current epoch e and any prewarmed future epochs untouched.
func TestInvalidateTenantBelow(t *testing.T) {
	c := New(16)
	for e := uint64(0); e < 4; e++ {
		c.Put(Key{Tenant: "a", Epoch: e}, e)
		c.Put(Key{Tenant: "b", Epoch: e}, e)
	}
	if n := c.InvalidateTenantBelow("a", 2); n != 2 {
		t.Fatalf("dropped %d entries below epoch 2, want 2", n)
	}
	for e := uint64(0); e < 2; e++ {
		if _, ok := c.Get(Key{Tenant: "a", Epoch: e}); ok {
			t.Fatalf("tenant a epoch %d survived InvalidateTenantBelow(2)", e)
		}
	}
	for e := uint64(2); e < 4; e++ {
		if _, ok := c.Get(Key{Tenant: "a", Epoch: e}); !ok {
			t.Fatalf("tenant a epoch %d (>= cutoff) must survive", e)
		}
	}
	for e := uint64(0); e < 4; e++ {
		if _, ok := c.Get(Key{Tenant: "b", Epoch: e}); !ok {
			t.Fatalf("tenant b epoch %d lost to tenant a's partial invalidation", e)
		}
	}
}

// TestFutureEpochPrewarm pins the admission semantics the rotation
// pipeline relies on: entries Put under a future epoch are invisible
// to current-epoch lookups, survive an InvalidateTenantBelow at
// commit, and are hit by the first post-flip lookup.
func TestFutureEpochPrewarm(t *testing.T) {
	c := New(8)
	cur := Key{Tenant: "t", Epoch: 3}
	next := cur
	next.Epoch = 4
	c.Put(cur, "current tables")
	c.Put(next, "prewarmed tables")
	// Pre-commit: serving at epoch 3 can only see epoch-3 entries.
	if v, ok := c.Get(cur); !ok || v.(string) != "current tables" {
		t.Fatal("current-epoch entry must still hit during prewarm")
	}
	// Commit: epoch advances to 4, retiring epochs dropped.
	if n := c.InvalidateTenantBelow("t", 4); n != 1 {
		t.Fatalf("commit dropped %d entries, want 1 (the epoch-3 entry)", n)
	}
	v, ok := c.Get(next)
	if !ok || v.(string) != "prewarmed tables" {
		t.Fatal("first post-flip lookup must hit the prewarmed entry")
	}
	if _, ok := c.Get(cur); ok {
		t.Fatal("retired epoch-3 entry must be gone after commit")
	}
}

// TestTenantIndexConsistency cross-checks the per-tenant secondary
// index against the primary index through a Put/evict/invalidate
// churn: every key reachable via Get must be counted by exactly one
// tenant, and invalidation totals must match Len deltas.
func TestTenantIndexConsistency(t *testing.T) {
	c := New(8)
	for i := 0; i < 64; i++ {
		tenant := fmt.Sprintf("t%d", i%3)
		c.Put(Key{Tenant: tenant, Epoch: uint64(i % 4)}, i)
	}
	total := 0
	for i := 0; i < 3; i++ {
		total += c.InvalidateTenant(fmt.Sprintf("t%d", i))
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("Len=%d after invalidating every tenant, want 0", got)
	}
	if total != 8 {
		t.Fatalf("invalidation dropped %d entries total, want 8 (capacity)", total)
	}
	// The tenant index must not retain ghosts: re-inserting after a
	// full purge behaves like a fresh cache.
	k := Key{Tenant: "t0", Epoch: 9}
	c.Put(k, "fresh")
	if v, ok := c.Get(k); !ok || v.(string) != "fresh" {
		t.Fatal("cache unusable after full invalidation churn")
	}
}

func TestZeroCapacityDisables(t *testing.T) {
	c := New(0)
	k := Key{Tenant: "t"}
	c.Put(k, "v")
	if _, ok := c.Get(k); ok {
		t.Fatal("zero-capacity cache must never hit")
	}
	if c.Len() != 0 {
		t.Fatal("zero-capacity cache must stay empty")
	}
}

// TestConcurrentMixedOps hammers Get/Put/InvalidateTenant/Stats from
// many goroutines; run under -race this is the cache's thread-safety
// proof.
func TestConcurrentMixedOps(t *testing.T) {
	c := New(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", g%3)
			for i := 0; i < 400; i++ {
				k := Key{Tenant: tenant, Epoch: uint64(i % 5)}
				switch i % 7 {
				case 0:
					c.Put(k, i)
				case 3:
					c.InvalidateTenant(tenant)
				case 6:
					c.InvalidateTenantBelow(tenant, uint64(i%5))
				case 5:
					_ = c.Stats()
					_ = c.Len()
				default:
					if v, ok := c.Get(k); ok {
						_ = v.(int) // values must remain well-typed
					}
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Len > 32 {
		t.Fatalf("capacity breached under concurrency: Len=%d", s.Len)
	}
}
