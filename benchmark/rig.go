package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/opcount"
	"repro/internal/server"
	"repro/internal/wire"
)

// base anchors every timestamp of a run on the monotonic clock.
var base = time.Now()

// now returns nanoseconds since base.
func now() int64 { return int64(time.Since(base)) }

// exchange is one device round trip as one end of the P1↔P2 link saw
// it: on P1's end from Send to the reply's Recv, on P2's end from the
// request's Recv to the reply's Send.
type exchange struct {
	kind       string // the request frame's kind
	start, end int64  // end is 0 until the exchange completes
	up, down   int    // frame bytes P1→P2 and P2→P1
}

// link is a timing wrapper around one end of a device channel. It reads
// only frame kinds and sizes, never payloads.
type link struct {
	device.Channel
	p2 bool // P2's end: an exchange opens on Recv and closes on Send

	mu  sync.Mutex
	log []exchange
}

func (l *link) Send(m wire.Msg) error {
	t := now()
	l.mu.Lock()
	if l.p2 {
		l.close(t, m.Size())
	} else {
		l.log = append(l.log, exchange{kind: m.Kind, start: t, up: m.Size()})
	}
	l.mu.Unlock()
	return l.Channel.Send(m)
}

func (l *link) Recv() (wire.Msg, error) {
	m, err := l.Channel.Recv()
	if err != nil {
		return m, err
	}
	t := now()
	l.mu.Lock()
	if l.p2 {
		l.log = append(l.log, exchange{kind: m.Kind, start: t, up: m.Size()})
	} else {
		l.close(t, m.Size())
	}
	l.mu.Unlock()
	return m, nil
}

// close ends the open exchange; the caller holds mu.
func (l *link) close(t int64, down int) {
	if n := len(l.log); n > 0 && l.log[n-1].end == 0 {
		l.log[n-1].end = t
		l.log[n-1].down = down
	}
}

// since returns a copy of the exchanges that started at or after t.
func (l *link) since(t int64) []exchange {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []exchange
	for _, e := range l.log {
		if e.start >= t {
			out = append(out, e)
		}
	}
	return out
}

// serverConfig is dlrserver's default configuration.
func serverConfig() server.Config {
	return server.Config{BatchSize: 32, Window: 2 * time.Millisecond, QueueDepth: 4 * 32, CacheCap: 8}
}

// tenantRig is one registered tenant: the wrapped ends of its device
// link, its counters when traced, and the P2 serve loop.
type tenantRig struct {
	p1, p2       *link // p2 is nil unless traced
	ctrP1, ctrP2 *opcount.Counter
	p2done       chan struct{}
}

// rig is one set-up of a workload: the server, one P2 per tenant over
// loopback TCP, and the client connections.
type rig struct {
	srv     *server.Server
	ln      net.Listener // the server's client listener
	served  chan error
	tenants []*tenantRig
	clients []*server.Client
}

// clientConns is how many client connections a workload that wants n
// gets: never more than the host has CPUs.
func clientConns(n int) int { return max(1, min(n, runtime.NumCPU())) }

// startRig generates every tenant's keys, starts its P2 behind a TCP
// link, registers it with a fresh server and dials the clients.
func startRig(in *inputs, w workload, traced bool) (*rig, error) {
	r := &rig{srv: server.New(serverConfig())}
	for i := range in.tenants {
		if err := r.addTenant(in, i, traced); err != nil {
			r.stop()
			return nil, err
		}
	}
	var err error
	if r.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		r.stop()
		return nil, err
	}
	r.served = make(chan error, 1)
	go func() { r.served <- r.srv.Serve(r.ln) }()
	for k := 0; k < clientConns(w.conns); k++ {
		c, err := server.Dial(r.ln.Addr().String())
		if err != nil {
			r.stop()
			return nil, err
		}
		r.clients = append(r.clients, c)
	}
	return r, nil
}

func (r *rig) addTenant(in *inputs, i int, traced bool) error {
	ti := &in.tenants[i]
	tr := &tenantRig{}
	if traced {
		tr.ctrP1, tr.ctrP2 = opcount.New(), opcount.New()
	}
	pk, p1, p2, err := genKeys(in.seed, i, tr.ctrP1, tr.ctrP2)
	if err != nil {
		return err
	}
	if err := ti.checkKeys(pk); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	p1conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	p2conn, err := ln.Accept()
	if err != nil {
		p1conn.Close()
		return err
	}
	var p2ch device.Channel = device.NewConnChannel(p2conn)
	if traced {
		tr.p2 = &link{Channel: p2ch, p2: true}
		p2ch = tr.p2
	}
	tr.p2done = make(chan struct{})
	go func() {
		defer close(tr.p2done)
		// ServeLoop returns once the server closes P1's end.
		_ = p2.ServeLoop(p2ch)
		_ = p2ch.Close()
	}()
	r.tenants = append(r.tenants, tr)

	tr.p1 = &link{Channel: device.NewConnChannel(p1conn)}
	if err := r.srv.RegisterTenant(ti.name, p1, tr.p1, tr.p1.Close); err != nil {
		tr.p1.Close()
		return err
	}
	return nil
}

// stop shuts the rig down and waits until the server and every P2 loop
// have exited.
func (r *rig) stop() {
	r.closeClients()
	r.srv.Shutdown()
	if r.served != nil {
		// Shutdown closes the listener only once Serve has registered it.
		_ = r.ln.Close()
		<-r.served
	}
	for _, t := range r.tenants {
		<-t.p2done
	}
}

func (r *rig) closeClients() {
	for _, c := range r.clients {
		_ = c.Close()
	}
}

// awaitOrAbort waits for wg until deadline; past it, the clients are
// closed so every call still blocked in them fails, and it waits again.
func (r *rig) awaitOrAbort(wg *sync.WaitGroup, deadline time.Time) {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		r.closeClients()
		<-done
	}
}

// warmUpPerTenant is the untimed request count each tenant serves
// before measurement, so lazily built tables exist.
const warmUpPerTenant = 4

var errWrongPlaintext = errors.New("decrypt returned a wrong plaintext")

// warmUp sends warmUpPerTenant requests per tenant, all tenants at
// once, and checks each plaintext.
func (r *rig) warmUp(in *inputs) error {
	errs := make([]error, len(in.tenants))
	var wg sync.WaitGroup
	for pos, ti := range in.order {
		wg.Add(1)
		go func(pos, ti int) {
			defer wg.Done()
			t := &in.tenants[ti]
			cl := r.clients[pos%len(r.clients)]
			for k := 0; k < warmUpPerTenant; k++ {
				got, err := cl.Decrypt(t.name, t.cts[k])
				if err == nil && !got.Equal(t.msgs[k]) {
					err = errWrongPlaintext
				}
				if err != nil {
					errs[ti] = fmt.Errorf("warm-up of tenant %s: %w", t.name, err)
					return
				}
			}
		}(pos, ti)
	}
	r.awaitOrAbort(&wg, time.Now().Add(warmUpPerTenant*latencyCap))
	return errors.Join(errs...)
}
