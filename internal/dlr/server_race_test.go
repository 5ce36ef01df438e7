// Refresh-during-window race tests through the batch-window server
// path: concurrent clients decrypt across share rotations and the
// assertions pin the two invariants the server's quiescing protocol
// promises — no request is lost or misanswered, and no pre-rotation
// pairing table is replayed after the epoch advances.
//
// This file is an external test package (dlr_test) because it imports
// internal/server, which itself imports internal/dlr.
package dlr_test

import (
	"crypto/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/bn254"
	"repro/internal/cache"
	"repro/internal/dlr"
	"repro/internal/params"
	"repro/internal/server"
)

func serverRaceSetup(t *testing.T) (*dlr.PublicKey, *dlr.P1, *dlr.P2) {
	t.Helper()
	pk, p1, p2, err := dlr.Gen(rand.Reader, params.MustNew(40, 128))
	if err != nil {
		t.Fatal(err)
	}
	return pk, p1, p2
}

// TestServerRefreshEpochInvalidatesTables alternates batches of
// concurrent client decrypts with share refreshes and asserts, via the
// epoch-keyed table cache, that no post-rotation window can replay a
// pre-rotation table: each rotation bumps the epoch and drops every
// older entry, so the retired epoch's keys become unaddressable AND
// absent. The two rotation paths differ in what the first post-rotation
// window then does — the cold path rebuilds (fresh misses), the
// pipelined path finds prewarmed tables (no new misses at all) — and
// both expectations are pinned here.
func TestServerRefreshEpochInvalidatesTables(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cold      bool
		epochStep uint64
	}{
		// Cold: +1 share refresh, +1 period rotation, tables rebuilt by
		// the first post-rotation window.
		{name: "cold", cold: true, epochStep: 2},
		// Pipelined: one fused bump, tables prewarmed at commit.
		{name: "pipelined", cold: false, epochStep: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testServerRefreshEpochInvalidatesTables(t, tc.cold, tc.epochStep)
		})
	}
}

func testServerRefreshEpochInvalidatesTables(t *testing.T, cold bool, epochStep uint64) {
	pk, p1, p2 := serverRaceSetup(t)
	tabCache := cache.New(16)
	p1.AttachCache(tabCache, "alice")

	s := server.New(server.Config{BatchSize: 4, Window: 5 * time.Millisecond, ColdRefresh: cold})
	if err := s.RegisterLocal("alice", p1, p2); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	defer func() {
		s.Shutdown()
		if err := <-serveDone; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	c, err := server.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const perRound, rounds = 4, 3
	decryptRound := func() {
		t.Helper()
		msgs := make([]*bn254.GT, perRound)
		cts := make([]*dlr.Ciphertext, perRound)
		for i := range cts {
			if msgs[i], err = dlr.RandMessage(rand.Reader, pk); err != nil {
				t.Fatal(err)
			}
			if cts[i], err = dlr.Encrypt(rand.Reader, pk, msgs[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for i := 0; i < perRound; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got, err := c.Decrypt("alice", cts[i])
				if err != nil {
					t.Errorf("decrypt %d: %v", i, err)
					return
				}
				if !got.Equal(msgs[i]) {
					t.Errorf("decrypt %d: wrong plaintext", i)
				}
			}(i)
		}
		wg.Wait()
	}

	epoch, ok := s.TenantEpoch("alice")
	if !ok {
		t.Fatal("tenant not registered")
	}
	for r := 0; r < rounds; r++ {
		decryptRound()
		oldEpoch := epoch
		newEpoch, err := c.Refresh("alice")
		if err != nil {
			t.Fatalf("refresh %d: %v", r, err)
		}
		if newEpoch != epoch+epochStep {
			t.Fatalf("refresh %d: epoch = %d, want %d", r, newEpoch, epoch+epochStep)
		}
		epoch = newEpoch
		// Every retired-epoch entry is gone from the cache — the
		// no-stale-table invariant, independent of rotation path.
		for e := oldEpoch; e < newEpoch; e++ {
			if _, ok := tabCache.Get(cache.Key{Tenant: "alice", Epoch: e}); ok {
				t.Fatalf("refresh %d: entry of retired epoch %d survived the rotation", r, e)
			}
		}
		// Sample the counters only now: the absence probes above count as
		// misses themselves.
		before := tabCache.Stats()
		decryptRound()
		after := tabCache.Stats()
		if cold {
			// The cold rotation re-keyed the namespace with nothing staged:
			// the first post-rotation window must rebuild, showing up as
			// fresh misses.
			if after.Misses <= before.Misses {
				t.Fatalf("refresh %d: no cache misses after cold rotation (before %d, after %d) — a pre-rotation table was replayed",
					r, before.Misses, after.Misses)
			}
		} else {
			// The pipelined rotation prewarmed the new epoch's tables at
			// commit: the first post-rotation window must not rebuild
			// anything.
			if after.Misses != before.Misses {
				t.Fatalf("refresh %d: %d cache misses after pipelined rotation — prewarm did not take",
					r, after.Misses-before.Misses)
			}
		}
	}
}

// TestServerRefreshMidStreamLosesNothing races a share refresh against
// a stream of concurrent single-request clients and asserts the
// ledger balances: every accepted request is answered, every answer is
// the right plaintext, and the refresh completes. This is the
// lost-request race the window loop's between-windows quiescing
// prevents.
func TestServerRefreshMidStreamLosesNothing(t *testing.T) {
	pk, p1, p2 := serverRaceSetup(t)
	s := server.New(server.Config{BatchSize: 4, Window: 2 * time.Millisecond, CacheCap: 8})
	if err := s.RegisterLocal("alice", p1, p2); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	defer func() {
		s.Shutdown()
		if err := <-serveDone; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	const clients = 3
	const perClient = 4
	msgs := make([]*bn254.GT, clients*perClient)
	cts := make([]*dlr.Ciphertext, clients*perClient)
	for i := range cts {
		if msgs[i], err = dlr.RandMessage(rand.Reader, pk); err != nil {
			t.Fatal(err)
		}
		if cts[i], err = dlr.Encrypt(rand.Reader, pk, msgs[i], nil); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c, err := server.Dial(ln.Addr().String())
			if err != nil {
				t.Errorf("client %d: %v", cl, err)
				return
			}
			defer c.Close()
			for k := 0; k < perClient; k++ {
				i := cl*perClient + k
				got, err := c.Decrypt("alice", cts[i])
				if err != nil {
					t.Errorf("client %d request %d: %v", cl, k, err)
					return
				}
				if !got.Equal(msgs[i]) {
					t.Errorf("client %d request %d: wrong plaintext across rotation", cl, k)
				}
			}
		}(cl)
	}
	// Rotate mid-stream, from yet another session.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := server.Dial(ln.Addr().String())
		if err != nil {
			t.Errorf("refresh client: %v", err)
			return
		}
		defer c.Close()
		time.Sleep(time.Millisecond)
		if _, err := c.Refresh("alice"); err != nil {
			t.Errorf("mid-stream refresh: %v", err)
		}
	}()
	wg.Wait()

	m := s.Metrics().Snapshot()
	if m.Responses != m.Requests {
		t.Fatalf("ledger: %d requests accepted but %d answered — a request was lost",
			m.Requests, m.Responses)
	}
	if m.Requests != clients*perClient {
		t.Fatalf("requests = %d, want %d", m.Requests, clients*perClient)
	}
	if m.Errors != 0 {
		t.Fatalf("errors = %d, want 0", m.Errors)
	}
	if got := m.Refreshes; got != 1 {
		t.Fatalf("refreshes = %d, want 1", got)
	}
}
