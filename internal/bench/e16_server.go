package bench

import (
	"crypto/rand"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/bn254"
	"repro/internal/dlr"
	"repro/internal/server"
)

// E16 measures the multiplexed decrypt server: N concurrent
// single-request clients drive real TCP sessions against the
// internal/server daemon, whose adaptive batch windows drain every
// request through the two-party Dec protocol. The clients are
// closed-loop (each sends its next request only after its previous
// answer), so every window's occupancy is earned by genuine
// concurrency, not by a pre-batched caller.

// e16WindowWait is the batch-window deadline the E16 server runs with —
// long enough that closed-loop clients re-arrive within the window on a
// loaded 1-CPU box, short enough to stay honest as a latency bound.
const e16WindowWait = 10 * time.Millisecond

// ServerPoint is one measured concurrency cell of E16.
type ServerPoint struct {
	Clients   int
	Requests  int
	Wall      time.Duration
	PerReq    time.Duration // amortized: Wall / Requests
	ReqPerSec float64
	// Window-scheduler shape for the run.
	Windows       uint64
	MeanOccupancy float64
	P50, P99      time.Duration
	// Client-facing wire traffic for the run (E18's bytes-per-request
	// accounting).
	BytesIn, BytesOut   uint64
	FramesIn, FramesOut uint64
}

// E16WindowRun stands up a fresh DLR instance behind a batch-window
// server on a loopback listener — windows close at 32 requests or
// e16WindowWait, with a table cache attached — drives it with
// `clients` concurrent single-request sessions issuing perClient
// requests each, verifies every plaintext, and reports the amortized
// cost. Exported for the dlrbench -server sweep.
func E16WindowRun(clients, perClient int) (*ServerPoint, error) {
	pk, p1, p2, err := dlr.Gen(rand.Reader, e13Params())
	if err != nil {
		return nil, err
	}
	s := server.New(server.Config{BatchSize: 32, Window: e16WindowWait, CacheCap: 4})
	if err := s.RegisterLocal("e16", p1, p2); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	defer func() {
		s.Shutdown()
		<-serveDone
	}()

	total := clients * perClient
	msgs := make([]*bn254.GT, total)
	cts := make([]*dlr.Ciphertext, total)
	for i := range cts {
		if msgs[i], err = dlr.RandMessage(rand.Reader, pk); err != nil {
			return nil, err
		}
		if cts[i], err = dlr.Encrypt(rand.Reader, pk, msgs[i], nil); err != nil {
			return nil, err
		}
	}

	// Every client dials its own session up front so the timed region
	// is pure request traffic.
	conns := make([]*server.Client, clients)
	for i := range conns {
		if conns[i], err = server.Dial(ln.Addr().String()); err != nil {
			return nil, err
		}
		defer conns[i].Close()
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	start := time.Now()
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				i := cl*perClient + k
				got, err := conns[cl].Decrypt("e16", cts[i])
				if err == nil && !got.Equal(msgs[i]) {
					err = fmt.Errorf("bench: E16 client %d request %d decrypted wrong", cl, k)
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	wall := time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}

	snap := s.Metrics().Snapshot()
	return &ServerPoint{
		Clients:       clients,
		Requests:      total,
		Wall:          wall,
		PerReq:        wall / time.Duration(total),
		ReqPerSec:     float64(total) / wall.Seconds(),
		Windows:       snap.Windows,
		MeanOccupancy: snap.MeanOccupancy,
		P50:           snap.P50,
		P99:           snap.P99,
		BytesIn:       snap.BytesIn,
		BytesOut:      snap.BytesOut,
		FramesIn:      snap.FramesIn,
		FramesOut:     snap.FramesOut,
	}, nil
}

// E16Server regenerates the E16 table: throughput, window occupancy
// and latency at 1, 8 and 32 concurrent single-request clients.
func E16Server() (*Table, error) {
	t := &Table{
		ID:     "E16",
		Title:  "multiplexed decrypt server: batch windows drained through two-party Dec",
		Header: []string{"clients", "req/s", "per-request", "mean window", "p50", "p99"},
	}
	for _, clients := range []int{1, 8, 32} {
		perClient := 2
		if clients == 1 {
			perClient = 4
		}
		pt, err := E16WindowRun(clients, perClient)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", pt.Clients),
			fmt.Sprintf("%.1f", pt.ReqPerSec),
			ms(pt.PerReq), fmt.Sprintf("%.1f", pt.MeanOccupancy), ms(pt.P50), ms(pt.P99),
		})
	}
	t.Notes = append(t.Notes,
		"every request is one dlr.RunDec round trip with P2",
		"clients are closed-loop over real TCP sessions; window occupancy is earned by concurrency, not pre-batched callers",
		fmt.Sprintf("window scheduler: batch=32, deadline=%s, epoch-keyed table cache attached", e16WindowWait),
	)
	return t, nil
}
