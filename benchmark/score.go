package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// latencyCap is the client's timeout. A call that takes longer has
// failed, and every failed call is scored at the cap on top of the
// (capped) time it took.
const latencyCap = 5 * time.Second

// status is the verdict on one call.
type status uint8

const (
	statusOK       status = iota
	statusUnbacked        // right plaintext, but no P2 round trip inside the call
	statusError           // error reply, busy refusal or broken connection
	statusTimeout         // took longer than latencyCap
	statusWrong           // wrong plaintext
)

// classify applies the correctness rule to one call. rts are the P1-side
// exchanges of the call's tenant, in start order. A decrypt succeeds
// only if its plaintext is right and it is device-backed: a round trip
// whose request frame kind starts with "dlr.dec" started after the call
// was sent and ended before its response arrived. Refresh round trips
// never back a decrypt; one window round trip backs every call around
// it.
func classify(o op, rts []exchange) status {
	switch {
	case o.wrong:
		return statusWrong
	case o.end-o.sched > int64(latencyCap):
		return statusTimeout
	case o.err:
		return statusError
	case !o.refresh && backing(o, rts) < 0:
		return statusUnbacked
	}
	return statusOK
}

// decKind prefixes the frame kinds of the Dec protocol's round trips,
// batched or not; refresh frames start with "dlr.ref".
const decKind = "dlr.dec"

// backing returns the index in rts of the first decrypt round trip that
// backs o, or -1.
func backing(o op, rts []exchange) int {
	i := sort.Search(len(rts), func(i int) bool { return rts[i].start >= o.start })
	for ; i < len(rts) && rts[i].start < o.end; i++ {
		e := rts[i]
		if e.end != 0 && e.end <= o.end && strings.HasPrefix(e.kind, decKind) {
			return i
		}
	}
	return -1
}

// latencyMS is a call's client-observed latency from when it was due,
// capped at latencyCap.
func latencyMS(o op) float64 {
	return float64(min(o.end-o.sched, int64(latencyCap))) / 1e6
}

// scoreMS is the latency a call is scored at: its latency, plus the cap
// if it did not succeed. Scored at the bare cap, a run that serves
// nothing securely would read exactly 5000 ms on every run, which
// measures nothing.
func scoreMS(o op, s status) float64 {
	if s != statusOK {
		return latencyMS(o) + float64(latencyCap)/1e6
	}
	return latencyMS(o)
}

// quantile returns the nearest-rank q-quantile of ascending xs (0 when
// empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(k, len(sorted)-1))]
}

// p90 is the reported tail. At the secure path's rate (about 17 req/s
// for 20 s) the 90th percentile is the highest one that keeps at least
// ten samples beyond it, so it is refused below floor samples (100 in
// every real run).
func p90(sorted []float64, floor int) (float64, error) {
	if len(sorted) < floor {
		return 0, fmt.Errorf("p90 refused: %d samples, need at least %d", len(sorted), floor)
	}
	return quantile(sorted, 0.90), nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	sort.Float64s(xs)
	return xs
}

// tenantOf returns the exchanges a call is matched against.
func tenantOf(rts [][]exchange, o op) []exchange {
	if o.tenant < len(rts) {
		return rts[o.tenant]
	}
	return nil
}

// verdicts classifies every call in ops.
func verdicts(ops []op, rts [][]exchange) []status {
	st := make([]status, len(ops))
	for i, o := range ops {
		st[i] = classify(o, tenantOf(rts, o))
	}
	return st
}

// stepPasses reports whether one ladder step met its latency limit with
// few enough failures.
func stepPasses(ops []op, rts []exchange, floor int) bool {
	var lat []float64
	failed := 0
	for _, o := range ops {
		s := classify(o, rts)
		if s != statusOK {
			failed++
		}
		lat = append(lat, scoreMS(o, s))
	}
	tail, err := p90(sorted(lat), floor)
	return err == nil && tail <= float64(ladderP90Limit)/1e6 &&
		float64(failed) <= ladderFailLimit*float64(len(ops))
}

// split separates a pass's calls into decrypts and refreshes.
func split(ops []op) (dec, ref []op) {
	for _, o := range ops {
		if o.refresh {
			ref = append(ref, o)
		} else {
			dec = append(dec, o)
		}
	}
	return dec, ref
}

// headline is the set of decrypts the end-to-end latencies describe:
// the ladder's first (8 req/s) step, or every decrypt of the region.
func (p *pass) headline() []op {
	if len(p.steps) > 0 {
		return p.steps[0].ops
	}
	dec, _ := split(p.ops)
	return dec
}

// tally counts a pass for the result line. Every call is attempted;
// failed counts errors, refusals, timeouts and wrong plaintexts. An
// unbacked decrypt is not failed here: it answered correctly, and the
// end-to-end metrics score it as missing the secure path.
type tally struct {
	attempted, failed, wrong, unbacked int
}

func (p *pass) tally() tally {
	var t tally
	for _, s := range verdicts(p.ops, p.rts) {
		t.attempted++
		switch s {
		case statusUnbacked:
			t.unbacked++
		case statusError, statusTimeout:
			t.failed++
		case statusWrong:
			t.failed++
			t.wrong++
		}
	}
	return t
}

// endToEnd computes the end-to-end metrics of an untraced pass.
func endToEnd(p *pass, setup float64, floor int) (map[string]float64, error) {
	dec := p.headline()
	var scores []float64
	for i, s := range verdicts(dec, p.rts) {
		scores = append(scores, scoreMS(dec[i], s))
	}
	scores = sorted(scores)
	tail, err := p90(scores, floor)
	if err != nil {
		return nil, fmt.Errorf("lat_p90_ms: %w", err)
	}
	return map[string]float64{
		"setup_s":     setup,
		"lat_p50_ms":  quantile(scores, 0.5),
		"lat_p90_ms":  tail,
		"lat_mean_ms": mean(scores),
	}, nil
}
