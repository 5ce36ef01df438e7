package dlr

import (
	"crypto/rand"
	"fmt"
	"sync"
	"testing"

	"repro/internal/bn254"
	"repro/internal/cache"
	"repro/internal/opcount"
	"repro/internal/params"
)

// encryptN returns n fresh ciphertexts with their plaintexts.
func encryptN(t *testing.T, pk *PublicKey, n int) ([]*Ciphertext, []*bn254.GT) {
	t.Helper()
	cs := make([]*Ciphertext, n)
	ms := make([]*bn254.GT, n)
	for i := range cs {
		m, err := RandMessage(rand.Reader, pk)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := Encrypt(rand.Reader, pk, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		cs[i], ms[i] = ct, m
	}
	return cs, ms
}

// decryptAll runs the two-party Dec protocol once per ciphertext and
// sums the transcript statistics.
func decryptAll(p1 *P1, p2 *P2, cs []*Ciphertext) ([]*bn254.GT, *Stats, error) {
	out := make([]*bn254.GT, len(cs))
	total := &Stats{}
	for i, c := range cs {
		m, st, err := Decrypt(rand.Reader, p1, p2, c)
		if err != nil {
			return nil, nil, err
		}
		out[i] = m
		total.BytesP1 += st.BytesP1
		total.BytesP2 += st.BytesP2
	}
	return out, total, nil
}

func checkMessages(t *testing.T, got, want []*bn254.GT) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decrypted %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("message %d wrong", i)
		}
	}
}

// TestTransportCacheDecrypt decrypts several ciphertexts in both modes
// with a cache attached: every request decrypts correctly and every
// one is a real round trip with P2.
func TestTransportCacheDecrypt(t *testing.T) {
	for _, mode := range []params.Mode{params.ModeBasic, params.ModeOptimalRate} {
		pk, p1, p2 := genTest(t, mode)
		p1.AttachCache(cache.New(8), "tenant-a")
		cs, ms := encryptN(t, pk, 5)
		for i, c := range cs {
			got, stats, err := Decrypt(rand.Reader, p1, p2, c)
			if err != nil {
				t.Fatalf("mode %v: Decrypt %d: %v", mode, i, err)
			}
			if !got.Equal(ms[i]) {
				t.Fatalf("mode %v: message %d wrong", mode, i)
			}
			if stats.BytesP1 == 0 || stats.BytesP2 == 0 {
				t.Fatalf("mode %v: request %d decrypted without a round trip", mode, i)
			}
		}
	}
}

// TestTransportCacheMatchesUncached checks that transport tables
// replayed from the cache give exactly what an uncached instance
// computes from freshly built tables.
func TestTransportCacheMatchesUncached(t *testing.T) {
	pk, p1, p2 := genTest(t, params.ModeOptimalRate)
	c := cache.New(8)
	p1.AttachCache(c, "tenant-a")
	cs, ms := encryptN(t, pk, 3)
	if _, _, err := decryptAll(p1, p2, cs[:1]); err != nil { // publish the tables
		t.Fatal(err)
	}

	raw, err := p1.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cached, err := UnmarshalP1(pk, raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	cached.AttachCache(c, "tenant-a")
	uncached, err := UnmarshalP1(pk, raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	hitsBefore := c.Stats().Hits
	fromCache, _, err := decryptAll(cached, p2, cs)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Hits == hitsBefore {
		t.Fatal("restored instance did not replay the cached tables")
	}
	fresh, _, err := decryptAll(uncached, p2, cs)
	if err != nil {
		t.Fatal(err)
	}
	checkMessages(t, fromCache, ms)
	checkMessages(t, fresh, fromCache)
}

// TestTransportCacheAcrossRefresh decrypts with a cache attached after
// a refresh and a period rotation.
func TestTransportCacheAcrossRefresh(t *testing.T) {
	pk, p1, p2 := genTest(t, params.ModeOptimalRate)
	p1.AttachCache(cache.New(8), "tenant-a")
	cs, ms := encryptN(t, pk, 2)
	if _, _, err := decryptAll(p1, p2, cs); err != nil {
		t.Fatal(err)
	}
	if _, err := Refresh(rand.Reader, p1, p2); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if err := p1.BeginPeriod(rand.Reader); err != nil {
		t.Fatalf("BeginPeriod: %v", err)
	}
	got, _, err := decryptAll(p1, p2, cs)
	if err != nil {
		t.Fatal(err)
	}
	checkMessages(t, got, ms)
}

// TestTransportCacheOpCounts pins the per-request cost of the Dec
// protocol when the transport tables come from the cache: P1 pays the
// (ℓ+1)(κ+1) transport pairings plus κ for the random GT coins of
// Enc'(B) (group.GT.Rand pairs a hashed point); P2 pays none and
// combines ℓ ciphertexts of κ+1 coordinates.
func TestTransportCacheOpCounts(t *testing.T) {
	ctrP1, ctrP2 := opcount.New(), opcount.New()
	pk, p1, p2, err := Gen(rand.Reader, testParams(t), WithCounters(ctrP1, ctrP2))
	if err != nil {
		t.Fatal(err)
	}
	p1.AttachCache(cache.New(8), "tenant-a")
	cs, ms := encryptN(t, pk, 4)
	if _, _, err := decryptAll(p1, p2, cs[:1]); err != nil { // build the tables
		t.Fatal(err)
	}
	ctrP1.Reset()
	ctrP2.Reset()
	got, _, err := decryptAll(p1, p2, cs)
	if err != nil {
		t.Fatal(err)
	}
	checkMessages(t, got, ms)
	prm := p1.Params()
	wantPair := int64(len(cs) * ((prm.Ell+1)*(prm.Kappa+1) + prm.Kappa))
	if n := ctrP1.Get(opcount.Pairing); n != wantPair {
		t.Fatalf("P1 pairings = %d, want %d", n, wantPair)
	}
	if n := ctrP2.Get(opcount.Pairing); n != 0 {
		t.Fatalf("P2 pairings = %d, want 0", n)
	}
	wantExp := int64(len(cs) * prm.Ell * (prm.Kappa + 1))
	if n := ctrP2.Get(opcount.GTExp); n != wantExp {
		t.Fatalf("P2 GT exps = %d, want %d", n, wantExp)
	}
}

// TestTransportCacheWarmHit runs two decryptions in the same epoch and
// checks the second one replays the first one's tables instead of
// rebuilding: within one P1 instance via the in-struct tables (no
// further cache traffic at all), and across instances — the restart
// scenario the cache exists for — via a cache hit from a second P1
// restored from the first one's serialized state.
func TestTransportCacheWarmHit(t *testing.T) {
	pk, p1, p2 := genTest(t, params.ModeOptimalRate)
	c := cache.New(8)
	p1.AttachCache(c, "tenant-a")

	cs, ms := encryptN(t, pk, 3)
	got, _, err := decryptAll(p1, p2, cs[:1])
	if err != nil {
		t.Fatal(err)
	}
	checkMessages(t, got, ms[:1])
	if s := c.Stats(); s.Hits != 0 {
		t.Fatalf("cold decrypt reported %d hits", s.Hits)
	}
	missesAfterCold := c.Stats().Misses

	// Same instance: the in-struct tables serve the next requests with
	// no rebuild and no new misses.
	got, _, err = decryptAll(p1, p2, cs[1:])
	if err != nil {
		t.Fatal(err)
	}
	checkMessages(t, got, ms[1:])
	if s := c.Stats(); s.Misses != missesAfterCold {
		t.Fatalf("warm decrypt rebuilt tables: stats %+v", s)
	}

	// Cross-instance: a P1 restored from serialized state (same share,
	// same tenant, fresh epoch counter starting at 0 — matching the
	// original's unrotated epoch) must hit the published entry.
	raw, err := p1.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	p1b, err := UnmarshalP1(pk, raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	p1b.AttachCache(c, "tenant-a")
	hitsBefore := c.Stats().Hits
	got, _, err = decryptAll(p1b, p2, cs)
	if err != nil {
		t.Fatal(err)
	}
	checkMessages(t, got, ms)
	if s := c.Stats(); s.Hits == hitsBefore {
		t.Fatalf("restored instance missed the published tables: stats %+v", s)
	}
}

// TestTransportCacheRefreshInvalidates is the rotation regression
// test: a decrypt after a refresh must never replay a pre-refresh
// table — neither via the cache (epoch changed AND the tenant was
// invalidated) nor via any in-struct pointer — and must still decrypt
// correctly under the rotated shares.
func TestTransportCacheRefreshInvalidates(t *testing.T) {
	for _, mode := range []params.Mode{params.ModeBasic, params.ModeOptimalRate} {
		t.Run(mode.String(), func(t *testing.T) {
			pk, p1, p2 := genTest(t, mode)
			c := cache.New(8)
			p1.AttachCache(c, "tenant-a")

			cs, ms := encryptN(t, pk, 2)
			got, _, err := decryptAll(p1, p2, cs)
			if err != nil {
				t.Fatal(err)
			}
			checkMessages(t, got, ms)
			epochBefore := p1.Epoch()
			if c.Len() == 0 {
				t.Fatal("cold decrypt published nothing")
			}

			if _, err := Refresh(rand.Reader, p1, p2); err != nil {
				t.Fatalf("Refresh: %v", err)
			}
			if p1.Epoch() == epochBefore {
				t.Fatal("refresh did not bump the rotation epoch")
			}
			if c.Len() != 0 {
				t.Fatalf("refresh left %d stale entries in the cache", c.Len())
			}

			// The post-refresh decrypt must build fresh tables (a miss,
			// not a hit) and still decrypt correctly.
			hitsBefore := c.Stats().Hits
			got, _, err = decryptAll(p1, p2, cs)
			if err != nil {
				t.Fatal(err)
			}
			checkMessages(t, got, ms)
			if c.Stats().Hits != hitsBefore {
				t.Fatal("post-refresh decrypt hit the cache — replayed a pre-refresh table")
			}
		})
	}
}

// TestTransportCachePeriodRotationInvalidates checks the same
// guarantee for BeginPeriod, which re-encrypts the share under a new
// period key without running the refresh protocol.
func TestTransportCachePeriodRotationInvalidates(t *testing.T) {
	pk, p1, p2 := genTest(t, params.ModeOptimalRate)
	c := cache.New(8)
	p1.AttachCache(c, "tenant-a")

	cs, ms := encryptN(t, pk, 2)
	got, _, err := decryptAll(p1, p2, cs)
	if err != nil {
		t.Fatal(err)
	}
	checkMessages(t, got, ms)
	epochBefore := p1.Epoch()

	if err := p1.BeginPeriod(rand.Reader); err != nil {
		t.Fatal(err)
	}
	if p1.Epoch() == epochBefore {
		t.Fatal("BeginPeriod did not bump the rotation epoch")
	}
	hitsBefore := c.Stats().Hits
	got, _, err = decryptAll(p1, p2, cs)
	if err != nil {
		t.Fatal(err)
	}
	checkMessages(t, got, ms)
	if c.Stats().Hits != hitsBefore {
		t.Fatal("post-rotation decrypt hit the cache")
	}
}

// TestTransportCacheMultiTenantConcurrent shares one cache between
// several tenants' P1 instances decrypting and refreshing
// concurrently; under -race this is the integration-level
// thread-safety check, and each tenant's decrypts must stay correct
// throughout.
func TestTransportCacheMultiTenantConcurrent(t *testing.T) {
	const tenants = 3
	c := cache.New(2 * tenants)

	type tenantState struct {
		pk *PublicKey
		p1 *P1
		p2 *P2
	}
	sts := make([]*tenantState, tenants)
	for i := range sts {
		pk, p1, p2 := genTest(t, params.ModeOptimalRate)
		p1.AttachCache(c, fmt.Sprintf("tenant-%d", i))
		sts[i] = &tenantState{pk: pk, p1: p1, p2: p2}
	}

	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for i, st := range sts {
		wg.Add(1)
		go func(i int, st *tenantState) {
			defer wg.Done()
			cs, ms := encryptN(t, st.pk, 2)
			for round := 0; round < 3; round++ {
				got, _, err := decryptAll(st.p1, st.p2, cs)
				if err != nil {
					errs <- fmt.Errorf("tenant %d round %d: %w", i, round, err)
					return
				}
				for j := range ms {
					if !got[j].Equal(ms[j]) {
						errs <- fmt.Errorf("tenant %d round %d: wrong message %d", i, round, j)
						return
					}
				}
				if round == 1 {
					if _, err := Refresh(rand.Reader, st.p1, st.p2); err != nil {
						errs <- fmt.Errorf("tenant %d refresh: %w", i, err)
						return
					}
				}
			}
		}(i, st)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
