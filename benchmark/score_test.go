package main

import (
	"testing"
	"time"
)

const ms = int64(time.Millisecond)

// call is a closed-loop decrypt of tenant 0 sent at start (ms) and
// answered at end (ms).
func call(start, end int64) op {
	return op{sched: start * ms, start: start * ms, end: end * ms}
}

func rt(kind string, start, end int64) exchange {
	return exchange{kind: kind, start: start * ms, end: end * ms}
}

func TestBackedAndUnbacked(t *testing.T) {
	rts := []exchange{rt("dlr.dec1", 10, 20)}
	cases := []struct {
		name string
		o    op
		want status
	}{
		{"round trip inside the call", call(5, 25), statusOK},
		{"round trip started before the call was sent", call(12, 30), statusUnbacked},
		{"response arrived before the round trip ended", call(1, 15), statusUnbacked},
		{"no round trip at all", call(40, 50), statusUnbacked},
	}
	for _, c := range cases {
		if got := classify(c.o, rts); got != c.want {
			t.Errorf("%s: status %d, want %d", c.name, got, c.want)
		}
	}
	if got := classify(call(5, 25), []exchange{{kind: "dlr.dec1", start: 10 * ms}}); got != statusUnbacked {
		t.Errorf("a round trip still open backs nothing: status %d", got)
	}
}

func TestRefreshRoundTripBacksNothing(t *testing.T) {
	for _, kind := range []string{"dlr.ref1", "dlr.refp1"} {
		if got := classify(call(5, 25), []exchange{rt(kind, 10, 20)}); got != statusUnbacked {
			t.Errorf("%s round trip backed a decrypt: status %d", kind, got)
		}
	}
}

func TestWindowRoundTripBacksAllItsRequests(t *testing.T) {
	// One batched round trip for a window of five requests that all
	// arrived before it started and were answered after it ended.
	rts := []exchange{rt("dlr.decb1", 10, 20)}
	for i := int64(0); i < 5; i++ {
		if got := classify(call(5+i, 21+i), rts); got != statusOK {
			t.Errorf("request %d of the window: status %d, want backed", i, got)
		}
	}
}

func TestWrongPlaintextFailsAndExitsNonZero(t *testing.T) {
	wrong := call(5, 25)
	wrong.wrong = true
	rts := [][]exchange{{rt("dlr.dec1", 10, 20), rt("dlr.dec1", 40, 50)}}
	if got := classify(wrong, rts[0]); got != statusWrong {
		t.Fatalf("backed call with a wrong plaintext: status %d", got)
	}
	p := &pass{ops: []op{wrong, call(35, 55)}, rts: rts}
	tl := p.tally()
	if tl.attempted != 2 || tl.failed != 1 || tl.wrong != 1 {
		t.Fatalf("tally %+v, want 2 attempted, 1 failed, 1 wrong", tl)
	}
	l := line(tl, endToEndDefs, map[string]float64{})
	if l.Correct {
		t.Fatal("result line reads correct with a wrong plaintext")
	}
	if code := exitCode(l); code == 0 {
		t.Fatal("wrong plaintext gave exit code 0")
	}
	if code := exitCode(resultLine{Correct: true}); code != 0 {
		t.Fatalf("correct run gave exit code %d", code)
	}
}

func TestFailuresScoredAtCap(t *testing.T) {
	capMS := float64(latencyCap) / 1e6
	rts := []exchange{rt("dlr.dec1", 10, 20)}
	ok := call(5, 25)
	errored := call(5, 25)
	errored.err = true
	slow := call(0, 7000) // backed, but past the timeout
	unbacked := call(30, 33)
	cases := []struct {
		name string
		o    op
		want float64
	}{
		{"success", ok, 20},
		{"error", errored, 20 + capMS},
		{"timeout", slow, capMS + capMS},
		{"unbacked", unbacked, 3 + capMS},
	}
	for _, c := range cases {
		if got := scoreMS(c.o, classify(c.o, rts)); got != c.want {
			t.Errorf("%s scored %v ms, want %v", c.name, got, c.want)
		}
	}
	if got := classify(slow, rts); got != statusTimeout {
		t.Errorf("call over the cap: status %d, want timeout", got)
	}
}

// TestOnlyTheMeanSeesAFewFailures is why lat_mean_ms is an end-to-end
// metric: when fewer than a tenth of the decrypts miss the secure path,
// p50 and p90 do not move, and the mean is the metric that does.
func TestOnlyTheMeanSeesAFewFailures(t *testing.T) {
	metrics := func(unbacked int) map[string]float64 {
		var ops []op
		var rts []exchange
		for i := int64(0); i < 200; i++ {
			ops = append(ops, call(100*i, 100*i+50))
			if i >= int64(unbacked) {
				rts = append(rts, rt("dlr.dec1", 100*i+10, 100*i+40))
			}
		}
		m, err := endToEnd(&pass{ops: ops, rts: [][]exchange{rts}}, 1, 100)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	all, some := metrics(0), metrics(10) // 5% unbacked
	for _, name := range []string{"lat_p50_ms", "lat_p90_ms"} {
		if all[name] != some[name] {
			t.Errorf("%s moved from %v to %v", name, all[name], some[name])
		}
	}
	if some["lat_mean_ms"] < 1.1*all["lat_mean_ms"] {
		t.Errorf("lat_mean_ms moved from %v to %v, less than a tenth", all["lat_mean_ms"], some["lat_mean_ms"])
	}
}

func TestP90RefusesFewSamples(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := p90(xs, 100); err == nil {
		t.Fatal("p90 reported from 99 samples")
	}
	xs = append(xs, 100)
	got, err := p90(xs, 100)
	if err != nil || got != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", got, err)
	}

	var ops []op
	for i := int64(0); i < 99; i++ {
		ops = append(ops, call(10*i, 10*i+5))
	}
	if _, err := endToEnd(&pass{ops: ops, rts: [][]exchange{nil}}, 1, 100); err == nil {
		t.Fatal("endToEnd reported lat_p90_ms from 99 samples")
	}
}
