package server

import (
	"crypto/rand"
	"time"

	"repro/internal/bn254"
)

// windowLoop is the single goroutine that owns a tenant's P1 and
// device channel. Requests are served in batch windows; control
// operations (share refresh) run strictly between windows, so a
// rotation can never interleave with a drain on the device channel and
// a window never mixes requests across a rotation boundary.
func (s *Server) windowLoop(t *tenant) {
	defer s.loopWG.Done()
	defer close(t.done)
	for {
		select {
		case c := <-t.ctl:
			c.done <- c.run()
		case req, ok := <-t.queue:
			if !ok {
				// Shutdown closed the queue after draining intake; all
				// buffered requests have been received and answered.
				return
			}
			s.serveWindow(t, req)
		}
	}
}

// serveWindow collects one adaptive batch window — it closes when
// either BatchSize requests have coalesced or Window has elapsed since
// the first request — and drains it through the paper's Dec protocol,
// one dlr.RunDec round trip per request, in arrival order. Every
// decryption needs P2's combination; P1 alone cannot answer one.
//
// A failed round trip may leave the device channel mid-exchange, so
// the rest of the window is not sent on it: those requests fail with
// the same error.
func (s *Server) serveWindow(t *tenant, first *request) {
	batch := append(make([]*request, 0, s.cfg.BatchSize), first)
	batch = s.collect(t, batch)
	s.metrics.recordWindow(len(batch))

	var err error
	for _, req := range batch {
		var m *bn254.GT
		if err == nil {
			m, err = t.p1.RunDec(rand.Reader, t.dev, req.ct)
		}
		req.respond(m, err)
	}
	flushSessions(batch)
}

// flushSessions flushes each distinct session in the drained window
// exactly once: respond only enqueued the frames, so this is where the
// window's responses hit the wire — one write syscall per connection
// rather than one per response. Windows are small (BatchSize ≤ a few
// dozen), so the quadratic dedup beats allocating a set.
func flushSessions(batch []*request) {
	for i, req := range batch {
		if req.sess == nil {
			continue
		}
		seen := false
		for _, prev := range batch[:i] {
			if prev.sess == req.sess {
				seen = true
				break
			}
		}
		if !seen {
			req.sess.flush()
		}
	}
}

// collect fills the window up to BatchSize, waiting at most Window for
// stragglers. A non-positive Window takes only what is already queued
// (eager drain). A closed queue closes the window early with whatever
// has coalesced.
func (s *Server) collect(t *tenant, batch []*request) []*request {
	if s.cfg.Window <= 0 {
		for len(batch) < s.cfg.BatchSize {
			select {
			case req, ok := <-t.queue:
				if !ok {
					return batch
				}
				batch = append(batch, req)
			default:
				return batch
			}
		}
		return batch
	}
	timer := time.NewTimer(s.cfg.Window)
	defer timer.Stop()
	for len(batch) < s.cfg.BatchSize {
		select {
		case req, ok := <-t.queue:
			if !ok {
				return batch
			}
			batch = append(batch, req)
		case <-timer.C:
			return batch
		}
	}
	return batch
}
