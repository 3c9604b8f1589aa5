package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentStorm hammers every instrument kind from many
// goroutines while another renders the registry; run under -race this
// pins the registry's thread safety, and the totals pin that no
// increments are lost.
func TestConcurrentStorm(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("storm_requests_total", "req", "endpoint")
	hv := r.HistogramVec("storm_seconds", "hist", []float64{0.01, 0.1, 1}, "endpoint")
	var inflight [4]atomic.Int64
	for i := range inflight {
		r.GaugeFunc("storm_inflight", "gauge", func() float64 { return float64(inflight[i].Load()) },
			"endpoint", fmt.Sprintf("ep%d", i))
	}

	const workers, perWorker = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ep := fmt.Sprintf("ep%d", w%4)
			for i := 0; i < perWorker; i++ {
				inflight[w%4].Add(1)
				cv.With(ep).Inc()
				hv.With(ep).Observe(float64(i%3) * 0.05)
				inflight[w%4].Add(-1)
			}
		}(w)
	}
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			r.WriteText(&b)
		}
	}()
	wg.Wait()
	<-scraped

	var total float64
	for i := 0; i < 4; i++ {
		total += cv.With(fmt.Sprintf("ep%d", i)).Value()
	}
	if want := float64(workers * perWorker); total != want {
		t.Fatalf("lost increments: got %v want %v", total, want)
	}
	var b strings.Builder
	r.WriteText(&b)
	for _, want := range []string{
		`storm_seconds_count{endpoint="ep0"} 2000`,
		`storm_inflight{endpoint="ep0"} 0`,
		`storm_inflight{endpoint="ep3"} 0`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

// TestHistogramBucketBoundaries pins the le semantics: an
// observation exactly on a bound lands in that bound's bucket
// (le is inclusive), and overflow goes to +Inf only.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bound_seconds", "boundary pinning", []float64{0.1, 0.5, 1})
	for _, v := range []float64{0.1, 0.5, 1.0, 2.0, 0.05} {
		h.Observe(v)
	}
	var b strings.Builder
	r.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		`bound_seconds_bucket{le="0.1"} 2`,  // 0.05 and the exact 0.1
		`bound_seconds_bucket{le="0.5"} 3`,  // + exact 0.5
		`bound_seconds_bucket{le="1"} 4`,    // + exact 1.0
		`bound_seconds_bucket{le="+Inf"} 5`, // + the 2.0 overflow
		`bound_seconds_sum 3.65`,
		`bound_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestExpositionFormat pins deterministic ordering, HELP/TYPE lines,
// label escaping, and func collectors.
func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("zz_total", "last family", "k").With(`a"b\c`).Add(3)
	r.GaugeFunc("aa_depth", "first family", func() float64 { return 7 })
	r.GaugeFunc("mm_live", "func gauge", func() float64 { return 42 }, "replica", "a")

	var b strings.Builder
	r.WriteText(&b)
	got := b.String()
	want := "# HELP aa_depth first family\n# TYPE aa_depth gauge\naa_depth 7\n" +
		"# HELP mm_live func gauge\n# TYPE mm_live gauge\nmm_live{replica=\"a\"} 42\n" +
		"# HELP zz_total last family\n# TYPE zz_total counter\nzz_total{k=\"a\\\"b\\\\c\"} 3\n"
	if got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Re-registering the same family must return the same series.
	r.CounterVec("zz_total", "last family", "k").With(`a"b\c`).Add(1)
	if v := r.CounterVec("zz_total", "last family", "k").With(`a"b\c`).Value(); v != 4 {
		t.Fatalf("re-registered counter = %v, want 4", v)
	}
}

// TestRecorderRing pins ring-buffer eviction order and span capture.
func TestRecorderRing(t *testing.T) {
	rec := NewRecorder(3)
	for i := 0; i < 5; i++ {
		tr := rec.Start(fmt.Sprintf("id%d", i), "op")
		end := tr.StartSpan("stage", fmt.Sprintf("item%d", i))
		end()
		tr.Finish("ok")
	}
	got := rec.Recent()
	if len(got) != 3 {
		t.Fatalf("ring kept %d traces, want 3", len(got))
	}
	for i, want := range []string{"id4", "id3", "id2"} {
		if got[i].TraceID != want {
			t.Fatalf("trace %d = %s, want %s (newest first)", i, got[i].TraceID, want)
		}
	}
	if len(got[0].Spans) != 1 || got[0].Spans[0].Name != "stage" || got[0].Spans[0].Item != "item4" {
		t.Fatalf("span not captured: %+v", got[0].Spans)
	}

	// Handler round-trips as JSON.
	w := httptest.NewRecorder()
	rec.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/tracez", nil))
	var resp TracezResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Capacity != 3 || resp.Started != 5 || resp.Finished != 5 || len(resp.Traces) != 3 {
		t.Fatalf("tracez response: %+v", resp)
	}
}

// TestTraceContext pins the nil-safety contract: spans without a
// trace in ctx are no-ops, spans with one are recorded, and minted
// IDs are well-formed.
func TestTraceContext(t *testing.T) {
	StartSpan(context.Background(), "noop", "")() // must not panic

	rec := NewRecorder(4)
	tr := rec.Start("", "job:plan")
	if len(tr.ID()) != 16 {
		t.Fatalf("minted ID %q, want 16 hex chars", tr.ID())
	}
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("TraceFrom lost the trace")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			StartSpan(ctx, "cell", fmt.Sprintf("seed=%d", i))()
		}(i)
	}
	wg.Wait()
	tr.Finish("ok")
	tr.StartSpan("late", "")() // after Finish: dropped, no panic
	tr.Finish("again")         // idempotent

	recs := rec.Recent()
	if len(recs) != 1 || len(recs[0].Spans) != 8 || recs[0].Status != "ok" {
		t.Fatalf("recorded %+v", recs)
	}
	var nilTrace *Trace
	nilTrace.StartSpan("x", "")() // nil-safe
	nilTrace.Finish("x")
	if nilTrace.ID() != "" {
		t.Fatal("nil trace ID should be empty")
	}
}
