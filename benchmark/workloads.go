package main

import (
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/opcount"
	"repro/internal/server"
)

// workload is one traffic mix. Closed-loop workloads keep one request
// in flight per worker; the open-loop ladder sends on a Poisson
// schedule whatever the replies do.
type workload struct {
	name    string
	tenants int
	conns   int           // client connections wanted; clientConns caps them at nproc
	workers int           // closed loop: requests in flight; 0 means the open-loop ladder
	every   time.Duration // per-tenant Client.Refresh cadence under load; 0 means none
	rates   []float64     // ladder steps, req/s
}

// The reason for each workload is in BENCHMARK.json and README.md.
var workloads = []workload{
	// One request in flight: windows hold one request, so batching
	// cannot move it while per-request compute shows in full.
	{name: "single", tenants: 1, conns: 1, workers: 1},
	// Arrivals that do not wait for replies: queueing, window fill and
	// busy backpressure.
	{name: "ladder", tenants: 1, conns: 2, rates: []float64{8, 16, 32, 64, 128}},
	// Refreshes beside reads on one tenant.
	{name: "rotate", tenants: 1, conns: 2, workers: 2, every: 250 * time.Millisecond},
	// Twelve window loops and their tables competing for the cores and
	// the 8-entry table cache.
	{name: "tenants", tenants: 12, conns: 2, workers: 12, every: 3 * time.Second},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ladderStepRequests is each ladder step's request count: 6 per second
// of -seconds, so 120 at the default 20 s.
func ladderStepRequests(seconds float64) int { return max(1, int(math.Round(6*seconds))) }

// A ladder step passes when its p90 stays within ladderP90Limit with at
// most ladderFailLimit of its requests failed; the ladder stops after
// the first step that does not.
const (
	ladderP90Limit  = 250 * time.Millisecond
	ladderFailLimit = 0.01
)

// op is one client call: a decrypt or a refresh.
type op struct {
	tenant  int
	refresh bool
	// sched is when the call was due: the open loop's scheduled time,
	// otherwise the same as start. Latency counts from sched.
	sched, start, end int64
	err               bool // the call returned an error
	wrong             bool // the plaintext differed from the message encrypted
}

// step is one rate of the ladder.
type step struct {
	rate       float64
	ops        []op
	lag        []int64 // send time minus scheduled time, per request
	begin, end int64
	passed     bool
}

// pass is everything one timed region recorded.
type pass struct {
	w          workload
	begin, end int64
	ops        []op               // decrypts and refreshes started in the timed region
	steps      []step             // the ladder's steps (their ops are in ops too)
	rts, p2    [][]exchange       // per tenant, the device-link logs of the region
	vars0      map[string]float64 // the server's expvar map before and after
	vars1      map[string]float64
	polls      []poll
	ctrP1      map[opcount.Op]int64 // operation counts during the region (traced)
	ctrP2      map[opcount.Op]int64
	cpu        time.Duration
	allocBytes uint64
	numGC      uint32
	heapMiB    float64
}

func sleepUntil(t int64) {
	if d := time.Duration(t - now()); d > 0 {
		time.Sleep(d)
	}
}

// drive runs one timed region on r and records it.
func (r *rig) drive(in *inputs, w workload, seconds float64, traced bool, floor int) *pass {
	p := &pass{w: w}
	ctr0P1, ctr0P2 := r.counters()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, gc0 := ms.TotalAlloc, ms.NumGC
	cpu0 := cpuTime()
	p.vars0 = readVars()
	var stopPolling func()
	if traced {
		stopPolling = p.startPolling()
	}

	p.begin = now()
	if w.rates != nil {
		p.steps = r.ladder(in, w, floor)
		for _, s := range p.steps {
			p.ops = append(p.ops, s.ops...)
		}
	} else {
		p.ops = r.closedLoop(in, w, p.begin+int64(seconds*float64(time.Second)))
	}
	p.end = now()

	if traced {
		stopPolling()
	}
	p.vars1 = readVars()
	p.cpu = cpuTime() - cpu0
	ctr1P1, ctr1P2 := r.counters()
	p.ctrP1, p.ctrP2 = opcount.Diff(ctr1P1, ctr0P1), opcount.Diff(ctr1P2, ctr0P2)
	runtime.ReadMemStats(&ms)
	p.allocBytes, p.numGC = ms.TotalAlloc-alloc0, ms.NumGC-gc0
	// The second collection frees what sync.Pools kept through the first.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	p.heapMiB = float64(ms.HeapAlloc) / (1 << 20)
	for _, t := range r.tenants {
		p.rts = append(p.rts, t.p1.since(p.begin))
		p.p2 = append(p.p2, t.p2.since(p.begin))
	}
	return p
}

// counters sums the operation counters of every tenant, per device.
func (r *rig) counters() (p1, p2 map[opcount.Op]int64) {
	p1, p2 = map[opcount.Op]int64{}, map[opcount.Op]int64{}
	for _, t := range r.tenants {
		for k, v := range t.ctrP1.Snapshot() {
			p1[k] += v
		}
		for k, v := range t.ctrP2.Snapshot() {
			p2[k] += v
		}
	}
	return p1, p2
}

// closedLoop runs the workers, and the refreshers when the workload has
// a cadence, until stop; calls still in flight then are waited for.
func (r *rig) closedLoop(in *inputs, w workload, stop int64) []op {
	per := make([][]op, w.workers+len(in.order))
	var wg sync.WaitGroup
	for k := 0; k < w.workers; k++ {
		ti := in.order[k%len(in.order)]
		cl := r.clients[k%len(r.clients)]
		wg.Add(1)
		go func(k, ti int, cl *server.Client) {
			defer wg.Done()
			t := &in.tenants[ti]
			for i := k; now() < stop; i++ {
				j := i % len(t.cts)
				s := now()
				got, err := cl.Decrypt(t.name, t.cts[j])
				per[k] = append(per[k], op{
					tenant: ti, sched: s, start: s, end: now(),
					err: err != nil, wrong: err == nil && !got.Equal(t.msgs[j]),
				})
			}
		}(k, ti, cl)
	}
	if w.every > 0 {
		begin := now()
		for pos, ti := range in.order {
			// Tenants start refreshing one after another, spread evenly
			// over the first cadence period.
			first := begin + int64(w.every)*int64(pos+1)/int64(len(in.order))
			cl := r.clients[pos%len(r.clients)]
			slot := w.workers + pos
			wg.Add(1)
			go func(ti int, cl *server.Client) {
				defer wg.Done()
				per[slot] = refresher(cl, in.tenants[ti].name, ti, first, int64(w.every), stop)
			}(ti, cl)
		}
	}
	r.awaitOrAbort(&wg, time.Now().Add(time.Duration(stop-now())+latencyCap+time.Second))
	var ops []op
	for _, o := range per {
		ops = append(ops, o...)
	}
	return ops
}

// refresher calls Refresh on one tenant every `every` ns from next on,
// never two at once and without catching up on missed ticks.
func refresher(cl *server.Client, name string, ti int, next, every, stop int64) []op {
	var ops []op
	for next < stop {
		sleepUntil(next)
		s := now()
		_, err := cl.Refresh(name)
		ops = append(ops, op{tenant: ti, refresh: true, sched: s, start: s, end: now(), err: err != nil})
		next = max(next+every, now())
	}
	return ops
}

// ladder runs the open-loop steps in order and stops after the first
// step that fails.
func (r *rig) ladder(in *inputs, w workload, floor int) []step {
	t := &in.tenants[0]
	var steps []step
	for si, rate := range w.rates {
		arr := in.arrivals[si]
		st := step{rate: rate, ops: make([]op, len(arr)), lag: make([]int64, len(arr))}
		ops := st.ops
		st.begin = now() + int64(10*time.Millisecond)
		var wg sync.WaitGroup
		for i, off := range arr {
			sched := st.begin + int64(off)
			sleepUntil(sched)
			sent := now()
			st.lag[i] = sent - sched
			j := i % len(t.cts)
			cl := r.clients[i%len(r.clients)]
			wg.Add(1)
			go func(i, j int, sched, sent int64) {
				defer wg.Done()
				got, err := cl.Decrypt(t.name, t.cts[j])
				ops[i] = op{
					sched: sched, start: sent, end: now(),
					err: err != nil, wrong: err == nil && !got.Equal(t.msgs[j]),
				}
			}(i, j, sched, sent)
		}
		r.awaitOrAbort(&wg, time.Now().Add(latencyCap+time.Second))
		st.end = now()
		st.passed = stepPasses(ops, r.tenants[0].p1.since(st.begin), floor)
		steps = append(steps, st)
		if !st.passed {
			break
		}
	}
	return steps
}
