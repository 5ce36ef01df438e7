package server_test

import (
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bn254"
	"repro/internal/device"
	"repro/internal/dlr"
	"repro/internal/params"
	"repro/internal/server"
	"repro/internal/wire"
)

func testParams(t *testing.T) params.Params {
	t.Helper()
	return params.MustNew(40, 128)
}

// testInstance generates one DLR instance for a tenant.
func testInstance(t *testing.T) (*dlr.PublicKey, *dlr.P1, *dlr.P2) {
	t.Helper()
	pk, p1, p2, err := dlr.Gen(rand.Reader, testParams(t))
	if err != nil {
		t.Fatal(err)
	}
	return pk, p1, p2
}

// startServer brings up a server on a loopback listener and returns
// its address. The listener's Serve loop and Shutdown are managed by
// the test cleanup.
func startServer(t *testing.T, s *server.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String()
}

func dialClient(t *testing.T, addr string) *server.Client {
	t.Helper()
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// encryptN draws n random messages and encrypts them under pk.
func encryptN(t *testing.T, pk *dlr.PublicKey, n int) ([]*bn254.GT, []*dlr.Ciphertext) {
	t.Helper()
	msgs := make([]*bn254.GT, n)
	cts := make([]*dlr.Ciphertext, n)
	for i := range cts {
		m, err := dlr.RandMessage(rand.Reader, pk)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := dlr.Encrypt(rand.Reader, pk, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		msgs[i], cts[i] = m, ct
	}
	return msgs, cts
}

// TestServerRoundTrip drives concurrent single-request clients through
// one batch-window server and checks every decryption — requests from
// different goroutines coalesce into shared windows and fan back to
// the right callers.
func TestServerRoundTrip(t *testing.T) {
	pk, p1, p2 := testInstance(t)
	s := server.New(server.Config{BatchSize: 8, Window: 20 * time.Millisecond, CacheCap: 8})
	if err := s.RegisterLocal("alice", p1, p2); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, s)
	c := dialClient(t, addr)

	const n = 10
	msgs, cts := encryptN(t, pk, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := c.Decrypt("alice", cts[i])
			if err != nil {
				errs[i] = err
				return
			}
			if !got.Equal(msgs[i]) {
				t.Errorf("request %d decrypted wrong", i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	m := s.Metrics().Snapshot()
	if m.Responses != n {
		t.Fatalf("responses = %d, want %d", m.Responses, n)
	}
	if m.Windows == 0 || m.Windows > n {
		t.Fatalf("windows = %d, want 1..%d", m.Windows, n)
	}
	if m.Errors != 0 {
		t.Fatalf("errors = %d, want 0", m.Errors)
	}
	var histTotal uint64
	for size, count := range m.BatchHist {
		histTotal += uint64(size) * count
	}
	if histTotal != n {
		t.Fatalf("batch histogram accounts for %d requests, want %d", histTotal, n)
	}
}

// TestServerMultiTenant checks that two tenants' requests route to
// their own share state over one connection.
func TestServerMultiTenant(t *testing.T) {
	pkA, p1A, p2A := testInstance(t)
	pkB, p1B, p2B := testInstance(t)
	s := server.New(server.Config{BatchSize: 4, Window: 10 * time.Millisecond})
	if err := s.RegisterLocal("alice", p1A, p2A); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterLocal("bob", p1B, p2B); err != nil {
		t.Fatal(err)
	}
	if got := s.Tenants(); len(got) != 2 {
		t.Fatalf("Tenants() = %v, want 2 entries", got)
	}
	addr := startServer(t, s)
	c := dialClient(t, addr)

	msgsA, ctsA := encryptN(t, pkA, 2)
	msgsB, ctsB := encryptN(t, pkB, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			got, err := c.Decrypt("alice", ctsA[i])
			if err != nil {
				t.Errorf("alice %d: %v", i, err)
				return
			}
			if !got.Equal(msgsA[i]) {
				t.Errorf("alice %d decrypted wrong", i)
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			got, err := c.Decrypt("bob", ctsB[i])
			if err != nil {
				t.Errorf("bob %d: %v", i, err)
				return
			}
			if !got.Equal(msgsB[i]) {
				t.Errorf("bob %d decrypted wrong", i)
			}
		}(i)
	}
	wg.Wait()
}

func TestServerUnknownTenant(t *testing.T) {
	pk, p1, p2 := testInstance(t)
	s := server.New(server.Config{})
	if err := s.RegisterLocal("alice", p1, p2); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, s)
	c := dialClient(t, addr)

	_, cts := encryptN(t, pk, 1)
	if _, err := c.Decrypt("mallory", cts[0]); err == nil ||
		!strings.Contains(err.Error(), "unknown tenant") {
		t.Fatalf("decrypt for unregistered tenant: err = %v, want unknown-tenant error", err)
	}
	if _, err := c.Refresh("mallory"); err == nil ||
		!strings.Contains(err.Error(), "unknown tenant") {
		t.Fatalf("refresh for unregistered tenant: err = %v, want unknown-tenant error", err)
	}
}

// gatedChannel blocks protocol sends until the gate closes — it stalls
// a tenant's window mid-drain so tests can observe queue backpressure
// and shutdown draining deterministically.
type gatedChannel struct {
	device.Channel
	gate chan struct{}
}

func (g *gatedChannel) Send(m wire.Msg) error {
	<-g.gate
	return g.Channel.Send(m)
}

// cutChannel fails every send once cut is set — a device link that
// has gone away. It is a stand-in for an attacker who has compromised
// P1 and can keep P2 out of the exchange.
type cutChannel struct {
	device.Channel
	cut atomic.Bool
}

func (c *cutChannel) Send(m wire.Msg) error {
	if c.cut.Load() {
		return errors.New("device link cut")
	}
	return c.Channel.Send(m)
}

// TestWarmP1CannotDecryptAlone pins the paper's two-device guarantee on
// the path the server runs: however warm P1 is, a decryption needs P2.
// Once the device link is cut, the next decrypt must fail rather than
// be answered from state P1 kept from earlier round trips — neither
// after two served decrypts, nor right after a pipelined rotation
// (whose commit round trip is the last thing P1 saw from P2).
func TestWarmP1CannotDecryptAlone(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rotate bool
	}{
		{name: "warm"},
		{name: "rotated", rotate: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pk, p1, p2 := testInstance(t)
			a, b := device.NewLocalPair()
			go func() { _ = p2.ServeLoop(b) }()
			dev := &cutChannel{Channel: a}
			s := server.New(server.Config{CacheCap: 8})
			if err := s.RegisterTenant("alice", p1, dev, a.Close); err != nil {
				t.Fatal(err)
			}
			c := dialClient(t, startServer(t, s))

			msgs, cts := encryptN(t, pk, 3)
			for i := 0; i < 2; i++ {
				got, err := c.Decrypt("alice", cts[i])
				if err != nil {
					t.Fatalf("decrypt %d with the device attached: %v", i, err)
				}
				if !got.Equal(msgs[i]) {
					t.Fatalf("decrypt %d: wrong plaintext", i)
				}
			}
			if tc.rotate {
				if err := s.RefreshTenant("alice"); err != nil {
					t.Fatal(err)
				}
			}
			dev.cut.Store(true)
			if got, err := c.Decrypt("alice", cts[2]); err == nil {
				t.Fatalf("P1 decrypted without P2 (plaintext correct: %v)", got.Equal(msgs[2]))
			}
		})
	}
}

// TestServerBackpressure fills a depth-1 queue behind a stalled window
// and checks the overflow request is bounced with a busy frame rather
// than buffered or dropped — and that the stalled requests complete
// once the window unblocks.
func TestServerBackpressure(t *testing.T) {
	pk, p1, p2 := testInstance(t)
	a, b := device.NewLocalPair()
	go func() { _ = p2.ServeLoop(b) }()
	gate := make(chan struct{})
	dev := &gatedChannel{Channel: a, gate: gate}

	s := server.New(server.Config{BatchSize: 1, Window: -1, QueueDepth: 1})
	if err := s.RegisterTenant("alice", p1, dev, a.Close); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, s)
	c := dialClient(t, addr)

	msgs, cts := encryptN(t, pk, 3)
	results := make([]error, 2)
	var wg sync.WaitGroup
	send := func(i int) {
		defer wg.Done()
		got, err := c.Decrypt("alice", cts[i])
		if err == nil && !got.Equal(msgs[i]) {
			err = fmt.Errorf("request %d decrypted wrong", i)
		}
		results[i] = err
	}

	// First request: dequeued immediately, stalls at the gate.
	wg.Add(1)
	go send(0)
	waitFor(t, func() bool {
		return s.Metrics().Snapshot().Requests == 1 && s.QueueDepth() == 0
	}, "first request entering its window")

	// Second request: sits in the depth-1 queue.
	wg.Add(1)
	go send(1)
	waitFor(t, func() bool { return s.QueueDepth() == 1 }, "second request queued")

	// Third request: queue full → busy. No retries so the rejection is
	// observable.
	c2 := dialClient(t, addr)
	c2.MaxBusyRetries = 0
	if _, err := c2.Decrypt("alice", cts[2]); err == nil ||
		!strings.Contains(err.Error(), "busy") {
		t.Fatalf("overflow request: err = %v, want busy rejection", err)
	}
	if got := s.Metrics().Snapshot().Rejected; got == 0 {
		t.Fatalf("rejected counter = %d, want ≥ 1", got)
	}

	close(gate)
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Fatalf("stalled request %d failed: %v", i, err)
		}
	}
}

// TestServerRefreshUnderTraffic refreshes a tenant's shares while
// concurrent clients decrypt through it: every request must succeed
// (refresh quiesces between windows, dropping nothing) and the
// tenant's rotation epoch must advance — once for the 2-party refresh,
// once for the period rotation.
func TestServerRefreshUnderTraffic(t *testing.T) {
	pk, p1, p2 := testInstance(t)
	s := server.New(server.Config{BatchSize: 4, Window: 5 * time.Millisecond, CacheCap: 8})
	if err := s.RegisterLocal("alice", p1, p2); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, s)
	c := dialClient(t, addr)

	epochBefore, ok := s.TenantEpoch("alice")
	if !ok {
		t.Fatal("TenantEpoch: tenant not found")
	}

	const n = 8
	msgs, cts := encryptN(t, pk, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := c.Decrypt("alice", cts[i])
			if err != nil {
				errs[i] = err
				return
			}
			if !got.Equal(msgs[i]) {
				t.Errorf("request %d decrypted wrong across refresh", i)
			}
		}(i)
		if i == n/2 {
			epoch, err := c.Refresh("alice")
			if err != nil {
				t.Fatal(err)
			}
			// The pipelined rotation folds the share refresh and the
			// period rotation into one epoch bump.
			if epoch != epochBefore+1 {
				t.Fatalf("epoch after refresh = %d, want %d (single pipelined bump)",
					epoch, epochBefore+1)
			}
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := s.Metrics().Snapshot().Refreshes; got != 1 {
		t.Fatalf("refreshes = %d, want 1", got)
	}
}

// TestServerGracefulShutdown stalls a window, queues requests behind
// it, starts Shutdown, and checks every queued request is answered —
// the drain guarantee — before the connections close.
func TestServerGracefulShutdown(t *testing.T) {
	pk, p1, p2 := testInstance(t)
	a, b := device.NewLocalPair()
	go func() { _ = p2.ServeLoop(b) }()
	gate := make(chan struct{})
	dev := &gatedChannel{Channel: a, gate: gate}

	s := server.New(server.Config{BatchSize: 2, Window: -1, QueueDepth: 8})
	if err := s.RegisterTenant("alice", p1, dev, a.Close); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	c := dialClient(t, ln.Addr().String())

	const n = 4
	msgs, cts := encryptN(t, pk, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := c.Decrypt("alice", cts[i])
			if err == nil && !got.Equal(msgs[i]) {
				err = fmt.Errorf("request %d decrypted wrong", i)
			}
			errs[i] = err
		}(i)
	}
	waitFor(t, func() bool {
		m := s.Metrics().Snapshot()
		return m.Requests == n
	}, "all requests accepted")

	shutdownDone := make(chan struct{})
	go func() { s.Shutdown(); close(shutdownDone) }()
	// Shutdown must be draining, not dropping: the stalled window holds
	// it open until the gate lifts.
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while a window was stalled with queued requests")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	<-shutdownDone
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("queued request %d not answered across shutdown: %v", i, err)
		}
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	// The server is down; new sessions must be refused.
	if _, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
