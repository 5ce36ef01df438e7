package main

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/opcount"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"lat_p50_ms", "ms", "lower"},
	{"lat_p90_ms", "ms", "lower"},
	{"lat_mean_ms", "ms", "lower"},
}

// clientDefs are what the clients saw besides the end-to-end latencies;
// every table prints them, though only a traced run reports them on its
// result line.
var clientDefs = []metricDef{
	{"client.goodput_rps", "req/s", "higher"},
	{"client.fail_share", "fraction", "lower"},
	{"client.rate_ok_rps", "req/s", "higher"},
	{"client.refresh_p50_ms", "ms", "lower"},
}

var perLayerDefs = append(append([]metricDef(nil), clientDefs...), []metricDef{
	{"client.warmup_s", "s", "lower"},
	{"server.occupancy", "req/window", "higher"},
	{"server.rejected_share", "fraction", "lower"},
	{"server.lat_p50_ms", "ms", "lower"},
	{"server.lat_p99_ms", "ms", "lower"},
	{"server.outside_p50_ms", "ms", "lower"},
	{"wire.bytes_in_per_req", "B/req", "lower"},
	{"wire.bytes_out_per_req", "B/req", "lower"},
	{"device.rt_per_req", "count/req", "lower"},
	{"device.rt_p50_ms", "ms", "lower"},
	{"device.p2_busy_p50_ms", "ms", "lower"},
	{"device.transit_p50_ms", "ms", "lower"},
	{"device.up_bytes_per_rt", "B/rt", "lower"},
	{"device.down_bytes_per_rt", "B/rt", "lower"},
	{"device.unbacked_share", "fraction", "lower"},
	{"device.refresh_rt_p50_ms", "ms", "lower"},
	{"p1.side_p50_ms", "ms", "lower"},
	{"p1.pairings_per_req", "count/req", "lower"},
	{"p1.gt_exps_per_req", "count/req", "lower"},
	{"p2.gt_exps_per_req", "count/req", "lower"},
	{"p2.pairings_per_req", "count/req", "lower"},
	{"cache.hit_rate", "fraction", "higher"},
	{"cache.evictions_per_s", "1/s", "lower"},
	{"cache.misses_per_rot", "count/rot", "lower"},
	{"rot.stall_mean_ms", "ms", "lower"},
	{"rot.rebuild_mean_ms", "ms", "lower"},
	{"rot.first_after_p50_ms", "ms", "lower"},
	{"rot.per_s", "1/s", "higher"},
	{"gen.lag_p99_ms", "ms", "lower"},
	{"proc.cpu_ms_per_req", "ms/req", "lower"},
	{"proc.cpu_util", "fraction", "higher"},
	{"go.heap_mb", "MiB", "lower"},
	{"go.alloc_kb_per_req", "KiB/req", "lower"},
	{"go.gc_per_s", "1/s", "lower"},
	{"trace.overhead_share", "fraction", "lower"},
}...)

// readVars returns the numeric entries of the server's "dlrserver"
// expvar map, or an empty map if it is not published.
func readVars() map[string]float64 {
	out := map[string]float64{}
	v := expvar.Get("dlrserver")
	if v == nil {
		return out
	}
	var m map[string]any
	if json.Unmarshal([]byte(v.String()), &m) != nil {
		return out
	}
	for k, x := range m {
		if f, ok := x.(float64); ok {
			out[k] = f
		}
	}
	return out
}

// poll is one 10 Hz sample of the expvar map during a traced region.
type poll struct {
	AtMS float64            `json:"at_ms"`
	Vars map[string]float64 `json:"vars"`
}

// startPolling samples the expvar map every 100 ms until the returned
// function is called; that function returns once sampling has stopped.
func (p *pass) startPolling() func() {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				p.polls = append(p.polls, poll{AtMS: float64(now()) / 1e6, Vars: readVars()})
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func durMS(start, end int64) float64 { return float64(end-start) / 1e6 }

// p2Match returns, for each P1-side exchange of one tenant, the P2-side
// exchange nested inside it in time, or -1.
func p2Match(p1, p2 []exchange) []int {
	match := make([]int, len(p1))
	j := 0
	for i, e := range p1 {
		match[i] = -1
		for j < len(p2) && p2[j].start < e.start {
			j++
		}
		if j < len(p2) && e.end != 0 && p2[j].end != 0 && p2[j].end <= e.end {
			match[i] = j
		}
	}
	return match
}

// deviceSplit is the per-round-trip breakdown of the decrypt round
// trips that completed in the timed region.
type deviceSplit struct {
	rt, busy, transit []float64 // ms
	up, down          float64   // frame bytes summed over the round trips
}

func (p *pass) deviceSplit() deviceSplit {
	var d deviceSplit
	for ti, log := range p.rts {
		match := p2Match(log, p.p2[ti])
		for i, e := range log {
			if e.end == 0 || e.end > p.end || !strings.HasPrefix(e.kind, decKind) {
				continue
			}
			d.rt = append(d.rt, durMS(e.start, e.end))
			d.up += float64(e.up)
			d.down += float64(e.down)
			if j := match[i]; j >= 0 {
				b := p.p2[ti][j]
				d.busy = append(d.busy, durMS(b.start, b.end))
				d.transit = append(d.transit, durMS(e.start, e.end)-durMS(b.start, b.end))
			}
		}
	}
	return d
}

// perLayer computes the per-layer metrics of a traced pass. warmUp is
// the time its set-up's warm-up took; overhead is the tracing cost
// measured against an untraced pass of the same run.
func perLayer(p *pass, warmUp, overhead float64) map[string]float64 {
	m := clientMetrics(p)
	m["client.warmup_s"] = warmUp
	dec, _ := split(p.ops)
	n := float64(len(dec))
	st := verdicts(dec, p.rts)
	wall := float64(p.end-p.begin) / 1e9
	d := func(k string) float64 { return p.vars1[k] - p.vars0[k] }

	m["server.occupancy"] = ratio(d("requests"), d("windows"))
	m["server.rejected_share"] = ratio(d("rejected"), n)
	serverP50, hasP50 := p.vars1["latency_p50_us"]
	m["server.lat_p50_ms"] = serverP50 / 1e3
	m["server.lat_p99_ms"] = p.vars1["latency_p99_us"] / 1e3
	var answered, side []float64
	for i, o := range dec {
		if st[i] == statusError || st[i] == statusTimeout {
			continue
		}
		lat := latencyMS(o)
		answered = append(answered, lat)
		if j := backing(o, tenantOf(p.rts, o)); j >= 0 {
			e := p.rts[o.tenant][j]
			lat -= durMS(e.start, e.end)
		}
		side = append(side, lat)
	}
	if hasP50 {
		m["server.outside_p50_ms"] = quantile(sorted(answered), 0.5) - serverP50/1e3
	}
	m["wire.bytes_in_per_req"] = ratio(d("bytes_in"), n)
	m["wire.bytes_out_per_req"] = ratio(d("bytes_out"), n)

	ds := p.deviceSplit()
	unbacked := 0
	for _, s := range st {
		if s == statusUnbacked {
			unbacked++
		}
	}
	var refRT []float64
	for _, log := range p.rts {
		for _, e := range log {
			if e.end != 0 && strings.HasPrefix(e.kind, "dlr.ref") {
				refRT = append(refRT, durMS(e.start, e.end))
			}
		}
	}
	rts := float64(len(ds.rt))
	m["device.rt_per_req"] = ratio(rts, n)
	m["device.rt_p50_ms"] = quantile(sorted(ds.rt), 0.5)
	m["device.p2_busy_p50_ms"] = quantile(sorted(ds.busy), 0.5)
	m["device.transit_p50_ms"] = quantile(sorted(ds.transit), 0.5)
	m["device.up_bytes_per_rt"] = ratio(ds.up, rts)
	m["device.down_bytes_per_rt"] = ratio(ds.down, rts)
	m["device.unbacked_share"] = ratio(float64(unbacked), n)
	m["device.refresh_rt_p50_ms"] = quantile(sorted(refRT), 0.5)

	m["p1.side_p50_ms"] = quantile(sorted(side), 0.5)
	m["p1.pairings_per_req"] = ratio(float64(p.ctrP1[opcount.Pairing]), n)
	m["p1.gt_exps_per_req"] = ratio(float64(p.ctrP1[opcount.GTExp]), n)
	m["p2.gt_exps_per_req"] = ratio(float64(p.ctrP2[opcount.GTExp]), n)
	m["p2.pairings_per_req"] = ratio(float64(p.ctrP2[opcount.Pairing]), n)

	hits, misses := d("cache_hits"), d("cache_misses")
	rotations := d("rotations_prewarmed") + d("rotations_cold")
	m["cache.hit_rate"] = ratio(hits, hits+misses)
	m["cache.evictions_per_s"] = ratio(d("cache_evictions"), wall)
	m["cache.misses_per_rot"] = ratio(misses, rotations)
	m["rot.stall_mean_ms"] = p.rotationMean("rotation_stall_mean_us", rotations)
	m["rot.rebuild_mean_ms"] = p.rotationMean("rotation_rebuild_mean_us", rotations)
	m["rot.first_after_p50_ms"] = quantile(sorted(firstAfterRefresh(p.ops)), 0.5)
	refreshed := 0
	for _, o := range p.ops {
		if o.refresh && !o.err {
			refreshed++
		}
	}
	m["rot.per_s"] = ratio(float64(refreshed), wall)

	var lag []float64
	for _, s := range p.steps {
		for _, l := range s.lag {
			lag = append(lag, float64(l)/1e6)
		}
	}
	m["gen.lag_p99_ms"] = quantile(sorted(lag), 0.99)

	cpuMS := float64(p.cpu) / 1e6
	m["proc.cpu_ms_per_req"] = ratio(cpuMS, n)
	m["proc.cpu_util"] = ratio(cpuMS/1e3, wall*float64(runtime.GOMAXPROCS(0)))
	m["go.heap_mb"] = p.heapMiB
	m["go.alloc_kb_per_req"] = ratio(float64(p.allocBytes)/1024, n)
	m["go.gc_per_s"] = ratio(float64(p.numGC), wall)
	m["trace.overhead_share"] = overhead
	return m
}

// clientMetrics are what the clients saw besides the end-to-end
// latencies: goodput and fail share over the headline decrypts (which
// count unbacked ones as failed), the ladder's highest passing rate,
// and the median Client.Refresh latency under load.
func clientMetrics(p *pass) map[string]float64 {
	head := p.headline()
	ok := 0
	for _, s := range verdicts(head, p.rts) {
		if s == statusOK {
			ok++
		}
	}
	wall := float64(p.end-p.begin) / 1e9
	if len(p.steps) > 0 {
		wall = float64(p.steps[0].end-p.steps[0].begin) / 1e9
	}
	_, ref := split(p.ops)
	var refresh []float64
	for _, o := range ref {
		refresh = append(refresh, latencyMS(o))
	}
	return map[string]float64{
		"client.goodput_rps":    ratio(float64(ok), wall),
		"client.fail_share":     ratio(float64(len(head)-ok), float64(len(head))),
		"client.rate_ok_rps":    rateOK(p),
		"client.refresh_p50_ms": quantile(sorted(refresh), 0.5),
	}
}

// rotationMean turns a cumulative expvar mean over all rotations since
// the process started into the mean over this region's rotations.
func (p *pass) rotationMean(key string, rotations float64) float64 {
	n0 := p.vars0["rotations_prewarmed"] + p.vars0["rotations_cold"]
	n1 := n0 + rotations
	return ratio(p.vars1[key]*n1-p.vars0[key]*n0, rotations) / 1e3
}

// firstAfterRefresh returns, for each completed refresh, the latency of
// the first decrypt of the same tenant that completed after it.
func firstAfterRefresh(ops []op) []float64 {
	var out []float64
	for _, r := range ops {
		if !r.refresh || r.err {
			continue
		}
		first := -1
		for i, o := range ops {
			if !o.refresh && o.tenant == r.tenant && o.end > r.end && (first < 0 || o.end < ops[first].end) {
				first = i
			}
		}
		if first >= 0 {
			out = append(out, latencyMS(ops[first]))
		}
	}
	return out
}

// rateOK is the highest ladder rate whose step passed, or 0.
func rateOK(p *pass) float64 {
	best := 0.0
	for _, s := range p.steps {
		if s.passed {
			best = max(best, s.rate)
		}
	}
	return best
}

// span is one timed interval of a traced run. Spans of one call share
// its request id; a device span's parents are the calls that contain it.
type span struct {
	ID      int     `json:"id"`
	Name    string  `json:"name"`
	Req     int     `json:"req,omitempty"`
	Tenant  string  `json:"tenant"`
	Kind    string  `json:"kind,omitempty"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	Parents []int   `json:"parents,omitempty"`
}

// spans turns a traced pass's records into spans.
func (p *pass) spans(in *inputs) []span {
	var out []span
	byTenant := map[int][]int{} // call indexes per tenant
	for i, o := range p.ops {
		id := i + 1
		name := "client.decrypt"
		if o.refresh {
			name = "client.refresh"
		}
		t := in.tenants[o.tenant].name
		out = append(out, span{ID: id, Name: name, Req: id, Tenant: t,
			StartMS: float64(o.start) / 1e6, EndMS: float64(o.end) / 1e6})
		if o.sched != o.start {
			out = append(out, span{Name: "gen.send", Req: id, Tenant: t,
				StartMS: float64(o.sched) / 1e6, EndMS: float64(o.start) / 1e6})
		}
		byTenant[o.tenant] = append(byTenant[o.tenant], i)
	}
	device := func(name string, ti int, e exchange) span {
		s := span{Name: name, Tenant: in.tenants[ti].name, Kind: e.kind,
			StartMS: float64(e.start) / 1e6, EndMS: float64(e.end) / 1e6}
		for _, i := range byTenant[ti] {
			if c := p.ops[i]; c.start <= e.start && e.end != 0 && e.end <= c.end {
				s.Parents = append(s.Parents, i+1)
			}
		}
		return s
	}
	for ti := range p.rts {
		for _, e := range p.rts[ti] {
			out = append(out, device("device.p1_rt", ti, e))
		}
		for _, e := range p.p2[ti] {
			out = append(out, device("device.p2_handle", ti, e))
		}
	}
	for i := range out {
		if out[i].ID == 0 {
			out[i].ID = len(p.ops) + i + 1
		}
	}
	return out
}

// writeSpans writes a traced pass's spans and expvar samples to
// dir/<workload>.spans.json.
func writeSpans(dir string, p *pass, in *inputs) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Spans    []span  `json:"spans"`
		Expvar   []poll  `json:"expvar"`
		BeginMS  float64 `json:"begin_ms"`
		EndMS    float64 `json:"end_ms"`
	}{p.w.name, in.seed, p.spans(in), p.polls, float64(p.begin) / 1e6, float64(p.end) / 1e6})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, p.w.name+".spans.json"), b, 0o644)
}

// printSplit prints where a single request's time goes, as p50s:
// outside the server, on P1, in transit to and from P2, and on P2.
func printSplit(w io.Writer, m map[string]float64) {
	outside := m["server.outside_p50_ms"]
	p1 := m["p1.side_p50_ms"] - outside
	transit, busy := m["device.transit_p50_ms"], m["device.p2_busy_p50_ms"]
	fmt.Fprintf(w, "per-request split (p50, ms): outside %.3f | P1 side %.3f | transit %.3f | P2 busy %.3f | sum %.3f\n",
		outside, p1, transit, busy, outside+p1+transit+busy)
}
