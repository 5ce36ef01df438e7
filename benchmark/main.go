// Command serving-bench measures the decrypt server (internal/server)
// on the paper's secure path: each workload runs the server, one P2 per
// tenant behind a loopback TCP link, and the load generator in one
// process of its own, and a decrypt counts only if P2 took part in it.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash benchmark/run.sh --workload single --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all --seed 1 --out set.json
//	bash benchmark/run.sh --compare old.json new.json
//
// A workload's last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end
// metrics with --trace 0, the per-layer metrics of a separate traced run
// with --trace 1. README.md defines every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are one invocation's settings.
type options struct {
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
	// tailFloor is the fewest samples p90 is reported from: 100, so
	// that ten samples lie beyond it.
	tailFloor int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("serving-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names   = fs.String("workload", "all", "single, ladder, rotate, tenants, a comma-separated list of them, or all")
		seed    = fs.Int64("seed", 1, "seed every input is drawn from")
		seconds = fs.Int("seconds", 20, "length of the timed region in seconds")
		trace   = fs.Int("trace", 0, "0: report the end-to-end metrics; 1: run traced and report the per-layer metrics")
		spans   = fs.String("spans", filepath.Join(".bench_build", "spans"), "directory a traced run writes <workload>.spans.json to")
		out     = fs.String("out", "", "add this invocation's runs to the result set in this file")
		compare = fs.Bool("compare", false, "compare two result sets: -compare old.json new.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "-compare takes two result sets: old.json new.json")
			return 2
		}
		if err := compareSets(stdout, fs.Arg(0), fs.Arg(1), "BENCHMARK.json"); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: serving-bench [-workload names] [-seed n] [-seconds s] [-trace 0|1] [-spans dir] [-out file]")
		return 2
	}
	ws, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if len(ws) > 1 {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return runEach(exe, args, ws, stdout, stderr)
	}
	o := options{seed: *seed, seconds: float64(*seconds), trace: *trace == 1, spansDir: *spans, tailFloor: 100}
	return bench(o, ws[0], *out, stdout, stderr)
}

// runEach runs every workload in a process of its own, one after
// another, so that nothing one workload leaves in a process (the
// server's process-wide expvar aggregate and latency ring, the heap)
// reaches another's numbers. Each process gets this invocation's
// arguments with its workload named last, which overrides the list.
func runEach(exe string, args []string, ws []workload, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range ws {
		cmd := exec.Command(exe, append(append([]string(nil), args...), "--workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// bench runs one workload, prints its table and then its result line,
// and adds the run to the result set in out if it is set.
func bench(o options, w workload, out string, stdout, stderr io.Writer) int {
	h := thisHost()
	fmt.Fprintf(stdout, "host %s\n", h)
	res, err := runWorkload(w, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
		return 1
	}
	if out != "" {
		if err := appendRuns(out, h, []runResult{res}); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	line, err := json.Marshal(res.resultLine)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return exitCode(res.resultLine)
}

// exitCode is 1 when the run decrypted a wrong plaintext. Unbacked
// decrypts do not change it: they are a measured result.
func exitCode(l resultLine) int {
	if !l.Correct {
		return 1
	}
	return 0
}

func selectWorkloads(names string) ([]workload, error) {
	if names == "all" {
		return workloads, nil
	}
	var ws []workload
	for _, n := range strings.Split(names, ",") {
		w, ok := workloadByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// spareSetups times set-ups, each torn down at once, back to back until
// budget seconds have passed, and at least one. Back to back they keep
// the CPU as busy as the timed region does: on a small shared host,
// set-ups with idle pauses between them read up to half slower at
// random, and the medians of runs did not repeat.
func spareSetups(in *inputs, w workload, budget float64) ([]float64, error) {
	var out []float64
	for t0 := time.Now(); len(out) == 0 || time.Since(t0).Seconds() < budget; {
		t1 := time.Now()
		r, err := startRig(in, w, false)
		if err != nil {
			return nil, err
		}
		out = append(out, time.Since(t1).Seconds())
		r.stop()
	}
	return out, nil
}

// setUp starts a rig, timing key generation, device and server start and
// the client dial, and then warms it up, timing that apart. The warm-up
// builds the secure path's lazy tables, which the shortcut the seed
// server takes does not need, so counting it in setup_s would charge
// the fix of that shortcut for the tables it restores.
func setUp(in *inputs, w workload, traced bool) (r *rig, setup, warmUp float64, err error) {
	t0 := time.Now()
	if r, err = startRig(in, w, traced); err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	if err := r.warmUp(in); err != nil {
		r.stop()
		return nil, 0, 0, err
	}
	return r, t1.Sub(t0).Seconds(), time.Since(t1).Seconds(), nil
}

func runWorkload(w workload, o options, log io.Writer) (runResult, error) {
	in, err := makeInputs(o.seed, w, o.seconds)
	if err != nil {
		return runResult{}, err
	}
	res := runResult{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	if o.trace {
		res.resultLine, err = tracedRun(in, w, o, log)
	} else {
		res.resultLine, err = untracedRun(in, w, o, log)
	}
	return res, err
}

// untracedRun measures one set-up and reports the end-to-end metrics.
// setup_s is the median of the measured set-up and the spare ones timed
// for an eighth of the timed region before it and again after the
// region.
func untracedRun(in *inputs, w workload, o options, log io.Writer) (resultLine, error) {
	setups, err := spareSetups(in, w, o.seconds/8)
	if err != nil {
		return resultLine{}, err
	}
	r, setup, _, err := setUp(in, w, false)
	if err != nil {
		return resultLine{}, err
	}
	p := r.drive(in, w, o.seconds, false, o.tailFloor)
	r.stop()
	after, err := spareSetups(in, w, o.seconds/8)
	if err != nil {
		return resultLine{}, err
	}
	setups = append(append(setups, setup), after...)
	m, err := endToEnd(p, median(setups), o.tailFloor)
	if err != nil {
		return resultLine{}, err
	}
	t := p.tally()
	fmt.Fprintf(log, "workload %s seed %d: %d calls, %d failed, %d unbacked, %d wrong; %d set-ups\n", w.name, o.seed, t.attempted, t.failed, t.unbacked, t.wrong, len(setups))
	printTable(log, endToEndDefs, m)
	printTable(log, clientDefs, clientMetrics(p))
	return line(t, endToEndDefs, m), nil
}

// tracedRun measures a traced pass and then an untraced pass of half
// the timed region each, each on its own set-up, and reports the
// per-layer metrics of the traced one.
func tracedRun(in *inputs, w workload, o options, log io.Writer) (resultLine, error) {
	r, _, warmUp, err := setUp(in, w, true)
	if err != nil {
		return resultLine{}, err
	}
	traced := r.drive(in, w, o.seconds/2, true, o.tailFloor)
	r.stop()
	if r, _, _, err = setUp(in, w, false); err != nil {
		return resultLine{}, err
	}
	plain := r.drive(in, w, o.seconds/2, false, o.tailFloor)
	r.stop()

	// Closed loops keep a fixed number of calls in flight, so their rate
	// is inversely proportional to mean latency; the overhead compares
	// the two passes' mean latencies, which also covers the open loop.
	overhead := 1 - ratio(meanLatency(plain.headline()), meanLatency(traced.headline()))
	m := perLayer(traced, warmUp, overhead)
	if err := writeSpans(o.spansDir, traced, in); err != nil {
		return resultLine{}, err
	}
	t, tp := traced.tally(), plain.tally()
	t.attempted += tp.attempted
	t.failed += tp.failed
	t.wrong += tp.wrong
	fmt.Fprintf(log, "workload %s seed %d (traced): %d calls, %d failed, %d wrong; spans in %s\n",
		w.name, o.seed, t.attempted, t.failed, t.wrong, filepath.Join(o.spansDir, w.name+".spans.json"))
	printTable(log, perLayerDefs, m)
	if w.name == "single" {
		printSplit(log, m)
	}
	return line(t, perLayerDefs, m), nil
}

func meanLatency(ops []op) float64 {
	var lat []float64
	for _, o := range ops {
		lat = append(lat, latencyMS(o))
	}
	return mean(lat)
}

func line(t tally, defs []metricDef, m map[string]float64) resultLine {
	l := resultLine{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		l.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return l
}

func printTable(w io.Writer, defs []metricDef, m map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-26s %14.4f %s\n", d.name, m[d.name], d.unit)
	}
}
