package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one metric: its unit, which direction is better, and
// whether it is end-to-end (printed by untraced runs, bounded in
// BENCHMARK.json) or per-layer (printed by traced runs, unbounded).
type metricDef struct {
	name, unit, better string
	layer              bool
}

// metricDefs is every metric pawsbench emits, in output order. Every
// workload reports every metric of its mode; a per-layer metric of a layer
// the workload never exercises reads 0 (see doc.go for which workload fills
// which). BENCHMARK.json must declare exactly these (metrics_test.go).
var metricDefs = []metricDef{
	{"setup_s", "s", "lower", false},
	{"peak_rss_mb", "MB", "lower", false},
	{"op_ms", "ms", "lower", false},

	{"serve.predict_p50_ms", "ms", "lower", true},
	{"serve.riskmap_p50_ms", "ms", "lower", true},
	{"serve.plan_p50_ms", "ms", "lower", true},
	{"serve.predict_p95_ms", "ms", "lower", true},
	{"serve.riskmap_p95_ms", "ms", "lower", true},
	{"serve.plan_p95_ms", "ms", "lower", true},
	{"serve.predict_n", "count", "higher", true},
	{"serve.riskmap_n", "count", "higher", true},
	{"serve.plan_n", "count", "higher", true},
	{"serve.riskmap_hit_rate", "ratio", "higher", true},
	{"load.overrun_s", "s", "lower", true},
	{"serve.riskmap_cold_ms", "ms", "lower", true},
	{"serve.plan_cold_ms", "ms", "lower", true},
	{"paws.predict_ms", "ms", "lower", true},
	{"paws.riskmap_warm_ms", "ms", "lower", true},
	{"paws.riskmap_cold_ms", "ms", "lower", true},
	{"paws.riskmap_ms", "ms", "lower", true},
	{"paws.riskmap_cells_per_s", "1/s", "higher", true},
	{"paws.auc_ms", "ms", "lower", true},
	{"paws.register_ms", "ms", "lower", true},
	{"geo.scenario_ms", "ms", "lower", true},
	{"dataset.build_ms", "ms", "lower", true},
	{"iware.train_ms", "ms", "lower", true},
	{"job.queue_ms", "ms", "lower", true},
	{"job.run_ms", "ms", "lower", true},
	{"plan.solve_ms", "ms", "lower", true},
	{"plan.solve_cold_ms", "ms", "lower", true},
	{"plan.coarse_ms", "ms", "lower", true},
	{"plan.refine_ms", "ms", "lower", true},
	{"plan.routes_ms", "ms", "lower", true},
	{"env.patrol_ms", "ms", "lower", true},
	{"sim.plan_ms", "ms", "lower", true},
	{"trace.overhead_pct", "%", "lower", true},
}

// metricValue is one reported number in the output schema.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// samples collects raw observations by metric name during a run; the
// reported value of each metric is the median of its samples.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// metrics renders the run's samples as the metric set of one mode: every
// end-to-end metric (layer false) or every per-layer metric (layer true).
// Values are medians; a metric without samples reads 0. A sample name that
// no metricDef declares is a bug and is reported as an error.
func (s samples) metrics(layer bool) (map[string]metricValue, error) {
	known := map[string]bool{}
	for _, d := range metricDefs {
		known[d.name] = true
	}
	for name := range s {
		if !known[name] {
			return nil, fmt.Errorf("pawsbench: undeclared metric %q", name)
		}
	}
	out := map[string]metricValue{}
	for _, d := range metricDefs {
		if d.layer != layer {
			continue
		}
		v := 0.0
		if xs := s[d.name]; len(xs) > 0 {
			v = median(xs)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), leaving xs unmodified. It is NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// which is how run-to-run spread is judged. With fewer than two values both
// quartiles equal the only value (NaN for none).
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
