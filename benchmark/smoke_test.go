//go:build !race

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload, untraced and traced, with a one-second
// timed region against the live server, and checks that every metric in
// BENCHMARK.json is printed with its unit. It checks the plumbing, not
// the values: in particular it never looks at how many decrypts were
// device-backed.
func TestSmoke(t *testing.T) {
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, trace := range []bool{false, true} {
		want := map[string]string{}
		if trace {
			for _, m := range spec.PerLayer {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range spec.EndToEnd {
				want[m.Name] = m.Unit
			}
		}
		// One second gives the ladder a handful of requests per step, far
		// below the 100 samples p90 needs in a real run.
		o := options{seed: 1, seconds: 1, trace: trace, spansDir: t.TempDir(), tailFloor: 1}
		for _, w := range workloads {
			var out, errOut bytes.Buffer
			if code := bench(o, w, "", &out, &errOut); code != 0 {
				t.Fatalf("trace=%v %s: exit %d\n%s%s", trace, w.name, code, out.String(), errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var r resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatalf("trace=%v %s: result line %q: %v", trace, w.name, lines[len(lines)-1], err)
			}
			if r.Attempted < 1 || len(r.Metrics) != len(want) {
				t.Errorf("trace=%v %s: %d attempted, %d metrics; want ≥1 and %d", trace, w.name, r.Attempted, len(r.Metrics), len(want))
			}
			for name, unit := range want {
				if m, ok := r.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("trace=%v %s: metric %s printed as %+v, want unit %s", trace, w.name, name, m, unit)
				}
			}
		}
		if trace {
			for _, w := range workloads {
				var f struct {
					Spans []span `json:"spans"`
				}
				b, err := os.ReadFile(filepath.Join(o.spansDir, w.name+".spans.json"))
				if err == nil {
					err = json.Unmarshal(b, &f)
				}
				if err != nil || len(f.Spans) == 0 {
					t.Errorf("spans of %s: %d spans, %v", w.name, len(f.Spans), err)
				}
			}
		}
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Errorf("smoke run took %v, want under 20s", d)
	}
}
