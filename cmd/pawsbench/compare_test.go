package main

import (
	"bytes"
	"strings"
	"testing"
)

// seeds builds a seed → value map from values for seeds 1, 2, ….
func seeds(vs ...float64) map[int64]float64 {
	m := map[int64]float64{}
	for i, v := range vs {
		m[int64(i+1)] = v
	}
	return m
}

func TestVerdict(t *testing.T) {
	base := seeds(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	cases := []struct {
		name        string
		a, b        map[int64]float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"faster on every pair", base, seeds(90, 91, 89, 90, 92, 88, 90, 91, 89, 90), true, 0.1, verdictBetter},
		{"higher-is-better gain", base, seeds(110, 111, 109, 110, 112, 108, 110, 111, 109, 110), false, 0.1, verdictBetter},
		{"small slowdown inside bound", base, seeds(103, 104, 102, 103, 105, 101, 103, 104, 102, 103), true, 0.1, verdictWithin},
		{"slowdown beyond bound", base, seeds(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), true, 0.1, verdictWorse},
		{"gain on a higher-is-better metric read as a loss", base, seeds(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), false, 0.1, verdictWorse},
		{"spread wider than bound", seeds(50, 150, 80, 120, 100, 60, 140, 90, 110, 100), seeds(55, 150, 85, 125, 105, 65, 145, 95, 115, 105), true, 0.1, verdictUnresolved},
		{"wide spread but every run better", seeds(200, 300, 250, 280, 220), seeds(100, 150, 120, 140, 110), true, 0.1, verdictBetter},
		{"per-layer change without a bound", base, seeds(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), true, 0, verdictWorse},
		{"per-layer noise without a bound", base, seeds(101, 99, 100, 100, 98, 102, 100, 99, 101, 100), true, 0, verdictUnresolved},
		{"nothing to compare", base, nil, true, 0.1, verdictUnresolved},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.lowerBetter, c.bound); got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}

// TestAcceptanceRunSets compares the two checked-in run sets of the same
// code: every end-to-end metric of every workload must come out within its
// bound (or better, by chance), and every run must be correct with the
// same output digest per workload and seed.
func TestAcceptanceRunSets(t *testing.T) {
	spec, err := readSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	a, err := readRunSet("testdata/runs-a.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	b, err := readRunSet("testdata/runs-b.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range append(a, b...) {
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s seed %d: correct %v, %d of %d ops failed", r.Workload, r.Seed, r.Correct, r.Failed, r.Attempted)
		}
		if r.Host.Name == "" || r.Commit == "" {
			t.Errorf("%s seed %d: run is not stamped with host and commit", r.Workload, r.Seed)
		}
	}
	var out bytes.Buffer
	if err := compare(&out, spec, a, b); err != nil {
		t.Fatal(err)
	}
	ia, ib := byWorkloadMetric(a), byWorkloadMetric(b)
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			v := verdict(ia[w.Name][m.Name], ib[w.Name][m.Name], m.Better != "higher", m.Bound)
			if v != verdictWithin && v != verdictBetter {
				t.Errorf("%s %s: %s between two run sets of the same code", w.Name, m.Name, v)
			}
			if !strings.Contains(out.String(), w.Name) {
				t.Errorf("compare output lacks workload %s", w.Name)
			}
		}
	}
}
