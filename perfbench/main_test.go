package main

import (
	"encoding/json"
	"os"
	"testing"
)

// declared is the metric catalogue of ../BENCHMARK.json.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// tiny shrinks a workload to a run of about a second.
func tiny(t *testing.T, name string, traced bool) options {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.streams, w.endCkpts = 20, min(w.endCkpts, 2)
	return options{w: w, seed: 3, seconds: 1, trace: traced, root: "..", out: t.TempDir(), corruptAt: -1}
}

// TestTinyRunsReportDeclaredMetrics runs every workload at tiny size, gated
// and traced, and checks each prints exactly the metrics BENCHMARK.json
// declares for that mode, with their units, and decides every sample
// correctly.
func TestTinyRunsReportDeclaredMetrics(t *testing.T) {
	d := loadDeclared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			res, _, err := run(tiny(t, w.name, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", w.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
		}
	}
}

// TestCorruptedDecisionFailsRun flips one served decision and checks the
// reference comparison catches it.
func TestCorruptedDecisionFailsRun(t *testing.T) {
	for _, w := range workloads {
		o := tiny(t, w.name, false)
		o.corruptAt = 7
		res, _, err := run(o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Correct || res.Failed != 1 {
			t.Errorf("%s: correct=%v failed=%d, want a single failure", w.name, res.Correct, res.Failed)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestIQMean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{9, 1, 2, 3}, 2.5}, // drops 1 and 9
		{[]float64{100, 2, 3, 4, 1, 5, 6, 0}, 3.5}, // drops 0, 1, 6 and 100
	} {
		if got := iqMean(c.xs); got != c.want {
			t.Errorf("iqMean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
