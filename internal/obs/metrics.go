// Package obs is the fleet observability layer: a dependency-free,
// race-safe metrics registry with Prometheus text exposition
// (GET /metricsz) and a request-scoped trace recorder with per-stage
// compute spans (GET /tracez).
//
// Everything in this package is strictly observational. Like
// paws.WithProgress, attaching a trace to a context or registering
// metrics must never change computed bytes: instruments only read or
// accumulate, and the compute layers consult them for nothing.
//
// Metrics: a Registry holds named families — counters, gauges and
// counters read from a callback at scrape time (GaugeFunc, CounterFunc),
// and fixed-bucket histograms — each with an optional label dimension.
// All instruments are safe for concurrent use; hot-path updates are
// single atomic ops. WriteText renders the registry in deterministic
// (sorted) Prometheus text format.
//
// Tracing: a Recorder is a fixed-size ring buffer of completed
// traces. A Trace is minted per HTTP request (adopting an inbound
// X-Paws-Trace ID when present) or per background job, carried by
// context.Context, and accumulates named spans — build, train,
// riskmap sweep, coarse/refine plan passes, per-season plan/patrol —
// via StartSpan. Finish records the trace into the ring for /tracez.
package obs

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency histogram bounds in seconds,
// spanning sub-millisecond cache hits to multi-minute planning jobs.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// Registry is a set of named metric families. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// family is one metric name: its metadata plus all labeled series.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string // label keys, fixed at registration

	mu     sync.RWMutex
	series map[string]*series // key: joined label values
	fns    []collectFn        // callback series (gauge/counter funcs)
}

type collectFn struct {
	labelValues []string
	fn          func() float64
}

// series is one (name, label values) instrument.
type series struct {
	labelValues []string

	bits atomic.Uint64 // float64 bits of a counter

	// histogram state
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func (r *Registry) family(name, help string, kind metricKind, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, labels: labels, series: map[string]*series{}}
		r.families[name] = f
		return f
	}
	if f.kind != kind || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
	}
	return f
}

func seriesKey(values []string) string { return strings.Join(values, "\xff") }

func (f *family) get(values []string, init func(*series)) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok = f.series[key]; ok {
		return s
	}
	s = &series{labelValues: append([]string(nil), values...)}
	if init != nil {
		init(s)
	}
	f.series[key] = s
	return s
}

// Counter is a monotonically increasing value.
type Counter struct{ s *series }

// Inc adds one.
func (c Counter) Inc() { c.Add(1) }

// Add adds v (must be >= 0 for Prometheus semantics; not enforced).
func (c Counter) Add(v float64) { addFloat(&c.s.bits, v) }

// Value returns the current total.
func (c Counter) Value() float64 { return math.Float64frombits(c.s.bits.Load()) }

func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// HistogramVec is a histogram family with labels.
type HistogramVec struct {
	f      *family
	bounds []float64
}

// With returns the counter for the given label values.
func (v CounterVec) With(values ...string) Counter { return Counter{v.f.get(values, nil)} }

// With returns the histogram for the given label values.
func (v HistogramVec) With(values ...string) Histogram {
	s := v.f.get(values, func(s *series) {
		s.bounds = v.bounds
		s.buckets = make([]atomic.Uint64, len(v.bounds)+1)
	})
	return Histogram{s}
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) Counter {
	return Counter{r.family(name, help, kindCounter, nil).get(nil, nil)}
}

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) CounterVec {
	return CounterVec{r.family(name, help, kindCounter, labels)}
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time — the idiom for exposing live state (queue depth, cache size)
// without a second copy of it.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.funcSeries(name, help, kindGauge, fn, labelPairs)
}

// CounterFunc registers a counter read from fn at scrape time; fn
// must be monotonic (e.g. a total maintained elsewhere).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.funcSeries(name, help, kindCounter, fn, labelPairs)
}

func (r *Registry) funcSeries(name, help string, kind metricKind, fn func() float64, labelPairs []string) {
	if len(labelPairs)%2 != 0 {
		panic("obs: labelPairs must be key,value,...")
	}
	keys := make([]string, 0, len(labelPairs)/2)
	vals := make([]string, 0, len(labelPairs)/2)
	for i := 0; i+1 < len(labelPairs); i += 2 {
		keys = append(keys, labelPairs[i])
		vals = append(vals, labelPairs[i+1])
	}
	f := r.family(name, help, kind, keys)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fns = append(f.fns, collectFn{labelValues: vals, fn: fn})
}

// Histogram observes values into fixed cumulative buckets.
type Histogram struct{ s *series }

// Observe records v.
func (h Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.s.bounds, v) // first bound >= v: le buckets are inclusive
	h.s.buckets[i].Add(1)
	h.s.count.Add(1)
	addFloat(&h.s.sumBits, v)
}

// Histogram registers (or fetches) an unlabeled histogram with the
// given upper bounds (ascending; +Inf is implicit). Nil bounds use
// DefBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) Histogram {
	v := r.HistogramVec(name, help, bounds)
	return v.With()
}

// HistogramVec registers (or fetches) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	return HistogramVec{f: r.family(name, help, kindHistogram, labels), bounds: bounds}
}

// WriteText renders every family in Prometheus text exposition
// format, families sorted by name and series by label values, so
// output is deterministic for a given state.
func (r *Registry) WriteText(w *strings.Builder) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	for _, f := range fams {
		f.write(w)
	}
}

type seriesSnap struct {
	labelValues []string
	value       float64
	hist        *series // non-nil for histogram series
}

func (f *family) write(w *strings.Builder) {
	typ := map[metricKind]string{kindCounter: "counter", kindGauge: "gauge", kindHistogram: "histogram"}[f.kind]
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, typ)

	f.mu.RLock()
	snaps := make([]seriesSnap, 0, len(f.series)+len(f.fns))
	for _, s := range f.series {
		sn := seriesSnap{labelValues: s.labelValues}
		if f.kind == kindHistogram {
			sn.hist = s
		} else {
			sn.value = math.Float64frombits(s.bits.Load())
		}
		snaps = append(snaps, sn)
	}
	for _, c := range f.fns {
		snaps = append(snaps, seriesSnap{labelValues: c.labelValues, value: c.fn()})
	}
	f.mu.RUnlock()

	sort.Slice(snaps, func(i, j int) bool {
		return seriesKey(snaps[i].labelValues) < seriesKey(snaps[j].labelValues)
	})
	for _, sn := range snaps {
		if sn.hist != nil {
			writeHistogram(w, f, sn.hist)
			continue
		}
		fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, sn.labelValues, "", ""), formatFloat(sn.value))
	}
}

func writeHistogram(w *strings.Builder, f *family, s *series) {
	cum := uint64(0)
	for i, b := range s.bounds {
		cum += s.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.labelValues, "le", formatFloat(b)), cum)
	}
	cum += s.buckets[len(s.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.labelValues, "le", "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labels, s.labelValues, "", ""), formatFloat(math.Float64frombits(s.sumBits.Load())))
	fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, s.labelValues, "", ""), s.count.Load())
}

func labelString(keys, values []string, extraKey, extraVal string) string {
	if len(keys) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry as GET /metricsz.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var b strings.Builder
		r.WriteText(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, b.String())
	})
}
