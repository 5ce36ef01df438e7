package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// host stamps every result with the machine and code that produced it.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func thisHost() host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit(),
	}
}

// machine is the part of the stamp two results must share to be
// compared: the same hardware seen the same way.
func (h host) machine() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d goarch=%s cpu=%q", h.NProc, h.GOMAXPROCS, h.GOARCH, h.CPU)
}

func (h host) String() string {
	return fmt.Sprintf("%s go=%s commit=%s", h.machine(), h.Go, h.Commit)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checked-out commit when the benchmark runs from the root
// of a git work tree, else "unknown".
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runResult is one workload run as a result set keeps it.
type runResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	resultLine
}

// resultSet is the file -out writes: runs of one code version on one
// host.
type resultSet struct {
	Host host        `json:"host"`
	Runs []runResult `json:"runs"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// appendRuns adds runs to the set in path, creating it if missing. A set
// holds one host stamp, so runs stamped differently are refused.
func appendRuns(path string, h host, runs []runResult) error {
	set := &resultSet{Host: h}
	err := readJSON(path, set)
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return err
	case set.Host != h:
		return fmt.Errorf("%s holds runs stamped %v, not %v", path, set.Host, h)
	}
	set.Runs = append(set.Runs, runs...)
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// median and quartiles follow Python's statistics.median and
// statistics.quantiles(n=4) (the "exclusive" method), so spreads read
// the same as in any other tool that uses them.
func median(xs []float64) float64 {
	s := sorted(append([]float64(nil), xs...))
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(append([]float64(nil), xs...))
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// verdict judges one (workload, metric) between an old and a new set of
// runs. A change beyond the bound is better or worse; within it, same.
// When either side's own spread exceeds the bound the medians cannot
// tell, and the verdict is unresolved unless every new run beats (or
// trails) every old one.
func verdict(old, cur []float64, better string, bound float64) string {
	sign := 1.0 // positive change = worse
	if better == "higher" {
		sign = -1
	}
	if max(spread(old), spread(cur)) > bound {
		switch {
		case allBeyond(cur, old, -sign):
			return "better"
		case allBeyond(cur, old, sign):
			return "worse"
		}
		return "unresolved"
	}
	change := sign * ratio(median(cur)-median(old), median(old))
	switch {
	case change > bound:
		return "worse"
	case change < -bound:
		return "better"
	}
	return "same"
}

// allBeyond reports whether every value of a lies beyond every value of
// b in direction dir (+1: above).
func allBeyond(a, b []float64, dir float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if dir*(x-y) <= 0 {
				return false
			}
		}
	}
	return true
}

// compareSets prints a verdict per (workload, end-to-end metric) of the
// untraced runs in two result sets, using the bounds in specPath.
func compareSets(w io.Writer, oldPath, newPath, specPath string) error {
	var spec benchSpec
	var old, cur resultSet
	for _, f := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {oldPath, &old}, {newPath, &cur}} {
		if err := readJSON(f.path, f.v); err != nil {
			return err
		}
	}
	if old.Host.machine() != cur.Host.machine() {
		return fmt.Errorf("refusing to compare results from different hosts:\n  %s\n  %s", old.Host.machine(), cur.Host.machine())
	}
	fmt.Fprintf(w, "old %s\nnew %s\n", old.Host, cur.Host)
	values := func(s resultSet, wl, metric string) []float64 {
		var out []float64
		for _, r := range s.Runs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == wl && !r.Trace {
				out = append(out, v.Value)
			}
		}
		return out
	}
	fmt.Fprintf(w, "%-8s %-15s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "old median", "new median", "change", "spread", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := values(old, wl.Name, m.Name), values(cur, wl.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-8s %-15s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%%  %s\n", wl.Name, m.Name,
				median(a), median(b), 100*ratio(median(b)-median(a), median(a)),
				100*max(spread(a), spread(b)), 100*m.Bound, verdict(a, b, m.Better, m.Bound))
		}
	}
	return nil
}
