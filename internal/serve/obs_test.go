package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"paws/internal/job"
	"paws/internal/obs"
)

// TestErrorEnvelopeCarriesTraceID drives every interesting error path
// and checks the correlation contract: the response carries an
// X-Paws-Trace header, and the structured envelope's trace_id equals it.
func TestErrorEnvelopeCarriesTraceID(t *testing.T) {
	s := testServer(t, Config{JobWorkers: 1, AdmissionMaxQueue: 1})

	// Fill the queue (one running + one queued) so submissions shed.
	release := make(chan struct{})
	blocker := func(ctx context.Context, publish func(job.Event)) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	var ids []string
	for i := 0; i < 2; i++ {
		sub, err := s.jobs.Submit("block", blocker)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sub.ID)
	}
	t.Cleanup(func() {
		close(release)
		for _, id := range ids {
			s.jobs.Wait(context.Background(), id)
		}
	})

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"bad json", http.MethodPost, "/v1/predict", `{not json`, http.StatusBadRequest, CodeBadRequest},
		{"unknown model", http.MethodGet, "/v1/riskmap?model=nope&effort=1", "", http.StatusNotFound, CodeUnknownModel},
		{"unknown job", http.MethodGet, "/v1/jobs/j-999999", "", http.StatusNotFound, CodeUnknownJob},
		{"invalid effort", http.MethodGet, "/v1/riskmap?model=default&effort=zero", "", http.StatusBadRequest, CodeBadRequest},
		{"shed submission", http.MethodPost, "/v1/jobs", `{"kind":"riskmap","riskmap":{"effort":1}}`, http.StatusTooManyRequests, CodeOverloaded},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			status, raw := rec.Code, rec.Body.Bytes()
			if status != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", status, tc.wantStatus, raw)
			}
			header := rec.Header().Get(obs.TraceHeader)
			if header == "" {
				t.Fatal("response is missing the X-Paws-Trace header")
			}
			var envelope errorResponse
			if err := json.Unmarshal(raw, &envelope); err != nil {
				t.Fatalf("bad envelope %s: %v", raw, err)
			}
			if envelope.Error.Code != tc.wantCode {
				t.Fatalf("code %q, want %q", envelope.Error.Code, tc.wantCode)
			}
			if envelope.Error.TraceID != header {
				t.Fatalf("envelope trace_id %q != header %q", envelope.Error.TraceID, header)
			}
		})
	}
}

// TestTraceHeaderAdopted pins the propagation contract: an inbound
// X-Paws-Trace (as minted by pawsgate) is echoed on the response and
// names the recorded trace, so one ID follows the request end to end.
func TestTraceHeaderAdopted(t *testing.T) {
	s := testServer(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/riskmap?model=default&effort=1.75", nil)
	req.Header.Set(obs.TraceHeader, "feedcafe00000001")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("riskmap: status %d, body %s", rec.Code, rec.Body.Bytes())
	}
	if got := rec.Header().Get(obs.TraceHeader); got != "feedcafe00000001" {
		t.Fatalf("response header %q, want the inbound trace ID", got)
	}
	for _, tr := range s.tracer.Recent() {
		if tr.TraceID == "feedcafe00000001" && tr.Op == "GET /v1/riskmap" {
			return
		}
	}
	t.Fatalf("inbound trace ID not in the flight recorder: %+v", s.tracer.Recent())
}

// TestMetricszExposure drives a handful of requests and checks the
// Prometheus exposition covers the acceptance set: per-endpoint request
// counters and latency histograms, server-side riskmap hit/miss, and
// the job queue family.
func TestMetricszExposure(t *testing.T) {
	s := testServer(t, Config{})
	// Two identical riskmaps: one miss (compute) + one hit.
	for i := 0; i < 2; i++ {
		if status, raw := do(t, s, http.MethodGet, "/v1/riskmap?model=default&effort=1.875", nil, nil); status != http.StatusOK {
			t.Fatalf("riskmap: status %d, body %s", status, raw)
		}
	}
	do(t, s, http.MethodGet, "/v1/models", nil, nil)

	status, raw, rec := doRec(t, s, http.MethodGet, "/metricsz", nil)
	if status != http.StatusOK {
		t.Fatalf("metricsz: status %d", status)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metricsz content type %q", ct)
	}
	text := string(raw)
	for _, want := range []string{
		`paws_http_requests_total{endpoint="/v1/riskmap",method="GET",code="200"} 2`,
		`paws_http_requests_total{endpoint="/v1/models",method="GET",code="200"} 1`,
		`paws_http_request_seconds_count{endpoint="/v1/riskmap"} 2`,
		`paws_http_request_seconds_bucket{endpoint="/v1/riskmap",le="+Inf"} 2`,
		"# TYPE paws_http_request_seconds histogram",
		"# TYPE paws_riskmap_cache_hits_total counter",
		"paws_jobs_queued 0",
		"paws_jobs_running 0",
		"paws_jobs_shed_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metricsz missing %q:\n%s", want, text)
		}
	}
	// Server-side cache counters move with the workload: at least the one
	// hit and one miss this test generated (the shared fixture may have
	// seen more from other tests).
	st := s.cache.stats()
	if st.Hits < 1 || st.Misses < 1 {
		t.Fatalf("cache stats %+v, want >=1 hit and >=1 miss", st)
	}
}

// TestJobTraceRecordsComputeSpans submits a riskmap job with a
// gate-style inbound trace ID and checks /tracez holds both the submit
// trace and the job trace under the same ID, the latter with a compute
// span.
func TestJobTraceRecordsComputeSpans(t *testing.T) {
	s := testServer(t, Config{})
	body, _ := json.Marshal(JobSubmitRequest{Kind: "riskmap", RiskMap: &RiskMapRequest{Effort: 1.625}})
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	req.Header.Set(obs.TraceHeader, "beefbeef00000002")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", rec.Code, rec.Body.Bytes())
	}
	var snap job.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	pollJob(t, s, snap.ID)

	var gotSubmit, gotJob bool
	for _, tr := range s.tracer.Recent() {
		if tr.TraceID != "beefbeef00000002" {
			continue
		}
		switch tr.Op {
		case "POST /v1/jobs":
			gotSubmit = true
		case "job:riskmap":
			gotJob = true
			if tr.Status != "ok" {
				t.Fatalf("job trace status %q, want ok", tr.Status)
			}
			var hasSpan bool
			for _, sp := range tr.Spans {
				hasSpan = hasSpan || sp.Name == "riskmap"
			}
			if !hasSpan {
				t.Fatalf("job trace has no riskmap compute span: %+v", tr.Spans)
			}
		}
	}
	if !gotSubmit || !gotJob {
		t.Fatalf("tracez missing submit (%v) or job (%v) record for the propagated ID", gotSubmit, gotJob)
	}
}
