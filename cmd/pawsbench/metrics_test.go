package main

import (
	"context"
	"testing"
	"time"
)

// TestBenchmarkJSONDeclaresEveryMetric checks BENCHMARK.json against the
// metrics pawsbench emits, both ways: same names, units, directions and
// end-to-end/per-layer split, and the same workloads.
func TestBenchmarkJSONDeclaresEveryMetric(t *testing.T) {
	spec, err := readSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]metricDef{}
	for _, ms := range []struct {
		list  []specMetric
		layer bool
	}{{spec.EndToEnd, false}, {spec.PerLayer, true}} {
		for _, m := range ms.list {
			if _, dup := declared[m.Name]; dup {
				t.Errorf("%s declared twice", m.Name)
			}
			declared[m.Name] = metricDef{m.Name, m.Unit, m.Better, ms.layer}
		}
	}
	for _, d := range metricDefs {
		got, ok := declared[d.name]
		if !ok {
			t.Errorf("emitted metric %s is not declared in BENCHMARK.json", d.name)
		} else if got != d {
			t.Errorf("%s: BENCHMARK.json declares %+v, pawsbench emits %+v", d.name, got, d)
		}
		delete(declared, d.name)
	}
	for name := range declared {
		t.Errorf("BENCHMARK.json declares %s, which pawsbench never emits", name)
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, pawsbench %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, pawsbench %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmoke runs the two workloads that need no HTTP fixture for a
// two-second measured phase, one untraced and one traced, and checks that
// they succeed and emit only declared metrics, every end-to-end one
// non-zero.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs build real fixtures")
	}
	for _, c := range []struct {
		name  string
		trace bool
	}{{"season", true}, {"scale-1e5", false}} {
		var w workload
		for _, x := range workloads {
			if x.name == c.name {
				w = x
			}
		}
		r := newRunner(3, 2*time.Second, c.trace)
		if err := w.run(context.Background(), r); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if r.failed != 0 || r.attempted < 1 {
			t.Errorf("%s: %d of %d ops failed", c.name, r.failed, r.attempted)
		}
		r.s.add("peak_rss_mb", peakRSSMB())
		e2e, err := r.s.metrics(false)
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range e2e {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v", c.name, name, v.Value)
			}
		}
		if _, err := r.s.metrics(true); err != nil {
			t.Fatal(err)
		}
	}
}
