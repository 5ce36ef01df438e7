package main

import (
	"bytes"
	"path/filepath"
	"testing"
)

// TestSpecMatchesCode keeps BENCHMARK.json and the metrics the program
// prints in step.
func TestSpecMatchesCode(t *testing.T) {
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEndDefs) || len(spec.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEndDefs), len(perLayerDefs))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEndDefs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, program has %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	for i, m := range spec.PerLayer {
		if d := perLayerDefs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, program has %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the program", i, w.Name, workloads[i].name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median of 1..4 = %v, want 2.5", m)
	}
}

func TestVerdict(t *testing.T) {
	old := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(old))
		for i, v := range old {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name   string
		cur    []float64
		better string
		want   string
	}{
		{"within the bound", scale(1.05), "lower", "same"},
		{"slower beyond the bound", scale(1.2), "lower", "worse"},
		{"faster beyond the bound", scale(0.8), "lower", "better"},
		{"higher is better", scale(1.2), "higher", "better"},
		{"spread wider than the bound", noisy, "lower", "unresolved"},
	} {
		if got := verdict(old, c.cur, c.better, 0.1); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	h := host{NProc: 2, GOMAXPROCS: 2, GOARCH: "amd64", CPU: "x", Go: "go1", Commit: "c1"}
	if err := appendRuns(a, h, nil); err != nil {
		t.Fatal(err)
	}
	other := h
	other.Commit = "c2"
	if err := appendRuns(b, other, nil); err != nil {
		t.Fatal(err)
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	var out bytes.Buffer
	if err := compareSets(&out, a, b, spec); err != nil {
		t.Fatalf("same machine, other commit: %v", err)
	}
	other.NProc = 4
	if err := appendRuns(b, other, nil); err == nil {
		t.Fatal("a result set took runs stamped by another host")
	}
	c := filepath.Join(dir, "c.json")
	if err := appendRuns(c, other, nil); err != nil {
		t.Fatal(err)
	}
	if err := compareSets(&out, a, c, spec); err == nil {
		t.Fatal("compared result sets from different hosts")
	}
}
