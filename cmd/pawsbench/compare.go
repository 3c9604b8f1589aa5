package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// readRunSet reads a run set: one JSON record per line, as -out appends.
func readRunSet(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// Verdicts of a comparison of run set b (the change) against run set a
// (the parent), for one metric on one workload.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges one metric by the rule of choosing-metrics §8 and §6.5.
// a and b map seed → value; runs with the same seed form a pair. b is
// better when it wins at least nine tenths of the pairs (ties count for
// neither) and the medians differ by more than a's interquartile range.
// Otherwise, with a bound (end-to-end metrics): where either side's spread
// (IQR over median) exceeds the bound the metric is unresolved, unless
// every run of b reads better than every run of a; else b is worse when its
// median is worse than a's by more than the bound share of a's median.
// Without a bound (per-layer metrics) the rule runs symmetrically for
// worse, and anything else is unresolved.
func verdict(a, b map[int64]float64, lowerBetter bool, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictUnresolved
	}
	better := func(x, y float64) bool { // x reads better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	av, bv := values(a), values(b)
	ma, mb := median(av), median(bv)
	q1a, q3a := quartiles(av)
	wins, losses, pairs := 0, 0, 0
	for seed, x := range a {
		if y, ok := b[seed]; ok {
			pairs++
			switch {
			case better(y, x):
				wins++
			case better(x, y):
				losses++
			}
		}
	}
	moved := math.Abs(mb-ma) > q3a-q1a
	if pairs > 0 && moved && wins*10 >= pairs*9 {
		return verdictBetter
	}
	if bound <= 0 {
		if pairs > 0 && moved && losses*10 >= pairs*9 {
			return verdictWorse
		}
		return verdictUnresolved
	}
	q1b, q3b := quartiles(bv)
	if (q3a-q1a)/math.Abs(ma) > bound || (q3b-q1b)/math.Abs(mb) > bound {
		if better(worst(bv, lowerBetter), best(av, lowerBetter)) {
			return verdictWithin
		}
		return verdictUnresolved
	}
	worsening := (mb - ma) / math.Abs(ma)
	if !lowerBetter {
		worsening = -worsening
	}
	if worsening > bound {
		return verdictWorse
	}
	return verdictWithin
}

// worst and best return the worst and the best of xs by direction.
func worst(xs []float64, lowerBetter bool) float64 { return best(xs, !lowerBetter) }

func best(xs []float64, lowerBetter bool) float64 {
	s := sorted(xs)
	if lowerBetter {
		return s[0]
	}
	return s[len(s)-1]
}

// values lists a seed → value map's values in seed order.
func values(m map[int64]float64) []float64 {
	seeds := make([]int64, 0, len(m))
	for s := range m {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	out := make([]float64, len(seeds))
	for i, s := range seeds {
		out[i] = m[s]
	}
	return out
}

// byWorkloadMetric indexes a run set: workload → metric → seed → value.
// Untraced runs supply the end-to-end metrics, traced runs the per-layer
// ones.
func byWorkloadMetric(recs []record) map[string]map[string]map[int64]float64 {
	layer := map[string]bool{}
	for _, d := range metricDefs {
		layer[d.name] = d.layer
	}
	out := map[string]map[string]map[int64]float64{}
	for _, r := range recs {
		w := out[r.Workload]
		if w == nil {
			w = map[string]map[int64]float64{}
			out[r.Workload] = w
		}
		for name, v := range r.Metrics {
			if layer[name] != r.Trace {
				continue
			}
			if w[name] == nil {
				w[name] = map[int64]float64{}
			}
			w[name][r.Seed] = v.Value
		}
	}
	return out
}

// compareFiles prints, for every workload and metric the spec file
// (BENCHMARK.json) declares, each run set's median and quartiles, the
// change in medians and the verdict. It fails when two runs of the same
// workload and seed report different output digests.
func compareFiles(w io.Writer, specPath, aPath, bPath string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readRunSet(aPath)
	if err != nil {
		return err
	}
	b, err := readRunSet(bPath)
	if err != nil {
		return err
	}
	return compare(w, spec, a, b)
}

func compare(w io.Writer, spec benchSpec, a, b []record) error {
	digests := map[string]string{}
	var mismatched []string
	for _, r := range append(append([]record(nil), a...), b...) {
		key := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
		if d, ok := digests[key]; ok && d != r.Digest {
			mismatched = append(mismatched, key)
		}
		digests[key] = r.Digest
	}
	ia, ib := byWorkloadMetric(a), byWorkloadMetric(b)
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median [q1, q3]\tb median [q1, q3]\tdelta\tverdict")
	for _, wl := range spec.Workloads {
		for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
			av, bv := ia[wl.Name][m.Name], ib[wl.Name][m.Name]
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", wl.Name, m.Name, m.Unit,
				summary(av), summary(bv), delta(av, bv), verdict(av, bv, m.Better != "higher", m.Bound))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(mismatched) > 0 {
		return fmt.Errorf("output digests differ between runs of %v", mismatched)
	}
	return nil
}

func summary(m map[int64]float64) string {
	if len(m) == 0 {
		return "-"
	}
	v := values(m)
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(v), q1, q3, len(v))
}

func delta(a, b map[int64]float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "-"
	}
	ma, mb := median(values(a)), median(values(b))
	if ma == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", (mb-ma)/math.Abs(ma)*100)
}
