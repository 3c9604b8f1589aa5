package gate

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"paws/internal/obs"
)

// statStub is a fake replica with a controllable /statusz load report —
// the harness for least-loaded scoring tests — that also records the
// X-Paws-Trace header of every proxied request.
type statStub struct {
	name      string
	queued    int
	running   int
	completed int64
	meanJob   float64

	mu     sync.Mutex
	traces []string

	ts *httptest.Server
}

func newStatStub(t *testing.T, name string, queued int, completed int64, meanJob float64) *statStub {
	s := &statStub{name: name, queued: queued, completed: completed, meanJob: meanJob}
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/statusz" {
			fmt.Fprintf(w, `{"replica":%q,"jobs":{"queued":%d,"running":%d,"completed":%d,"mean_job_seconds":%g}}`,
				s.name, s.queued, s.running, s.completed, s.meanJob)
			return
		}
		s.mu.Lock()
		s.traces = append(s.traces, r.Header.Get(obs.TraceHeader))
		s.mu.Unlock()
		w.Header().Set(obs.TraceHeader, r.Header.Get(obs.TraceHeader))
		fmt.Fprint(w, `{"ok":true}`)
	}))
	t.Cleanup(s.ts.Close)
	return s
}

func (s *statStub) lastTrace() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.traces) == 0 {
		return ""
	}
	return s.traces[len(s.traces)-1]
}

func statGate(t *testing.T, stubs ...*statStub) *Gate {
	t.Helper()
	urls := make([]string, len(stubs))
	for i, s := range stubs {
		urls[i] = s.ts.URL
	}
	g, err := New(Config{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestColdReplicaScoring pins the least-loaded tie-breaks: at equal
// committed load a warm replica (completed > 0) beats a cold one whose
// meanJob of 0 is unknown rather than fast; among warm replicas the
// lower EWMA wins; and committed load still dominates everything — a
// cold idle replica beats a warm backlogged one.
func TestColdReplicaScoring(t *testing.T) {
	t.Run("warm beats cold at equal load", func(t *testing.T) {
		cold := newStatStub(t, "cold", 0, 0, 0)
		warm := newStatStub(t, "warm", 0, 5, 0.001)
		g := statGate(t, cold, warm) // cold listed first: order must not win
		if got := g.pickLeastLoaded(g.healthy()).label(); got != "warm" {
			t.Fatalf("picked %q, want the warm replica", got)
		}
	})
	t.Run("lower mean wins among warm", func(t *testing.T) {
		slow := newStatStub(t, "slow", 0, 9, 5.0)
		fast := newStatStub(t, "fast", 0, 9, 0.5)
		g := statGate(t, slow, fast)
		if got := g.pickLeastLoaded(g.healthy()).label(); got != "fast" {
			t.Fatalf("picked %q, want the fast replica", got)
		}
	})
	t.Run("load dominates warmth", func(t *testing.T) {
		warmBusy := newStatStub(t, "warm-busy", 2, 5, 0.001)
		coldIdle := newStatStub(t, "cold-idle", 0, 0, 0)
		g := statGate(t, warmBusy, coldIdle)
		if got := g.pickLeastLoaded(g.healthy()).label(); got != "cold-idle" {
			t.Fatalf("picked %q, want the idle replica despite its cold EWMA", got)
		}
	})
	t.Run("all cold keeps config order", func(t *testing.T) {
		a := newStatStub(t, "a", 0, 0, 0)
		b := newStatStub(t, "b", 0, 0, 0)
		g := statGate(t, a, b)
		if got := g.pickLeastLoaded(g.healthy()).label(); got != "a" {
			t.Fatalf("picked %q, want config order when nothing distinguishes", got)
		}
	})
}

// TestGateTracePropagation pins the edge-tracing contract: the gate
// mints an X-Paws-Trace when the client sent none, the replica receives
// exactly that ID, the response echoes it exactly once, the gate's
// /tracez records the request with a per-backend proxy span, and an
// inbound client ID is adopted rather than replaced.
func TestGateTracePropagation(t *testing.T) {
	a := newStatStub(t, "a", 0, 1, 0.1)
	g := statGate(t, a)

	rec := roundTrip(t, g, http.MethodPost, "/v1/predict", map[string]any{"effort": 1.0})
	if rec.Code != http.StatusOK {
		t.Fatalf("predict via gate: status %d", rec.Code)
	}
	vals := rec.Header().Values(obs.TraceHeader)
	if len(vals) != 1 || vals[0] == "" {
		t.Fatalf("response trace header %q, want exactly one minted ID", vals)
	}
	minted := vals[0]
	if got := a.lastTrace(); got != minted {
		t.Fatalf("replica saw trace %q, gate minted %q", got, minted)
	}

	var found bool
	for _, tr := range g.tracer.Recent() {
		if tr.TraceID != minted {
			continue
		}
		found = true
		if tr.Op != "POST /v1/predict" {
			t.Fatalf("trace op %q", tr.Op)
		}
		if len(tr.Spans) == 0 || tr.Spans[0].Name != "proxy" || tr.Spans[0].Item != "a" {
			t.Fatalf("trace spans %+v, want a proxy span naming the replica", tr.Spans)
		}
	}
	if !found {
		t.Fatalf("minted trace %q not in the gate flight recorder", minted)
	}

	// Inbound IDs are adopted, not replaced.
	req := httptest.NewRequest(http.MethodGet, "/v1/models", nil)
	req.Header.Set(obs.TraceHeader, "cafe0000cafe0000")
	rec2 := httptest.NewRecorder()
	g.ServeHTTP(rec2, req)
	if vals := rec2.Header().Values(obs.TraceHeader); len(vals) != 1 || vals[0] != "cafe0000cafe0000" {
		t.Fatalf("inbound trace echoed as %q, want the client's ID exactly once", vals)
	}
	if got := a.lastTrace(); got != "cafe0000cafe0000" {
		t.Fatalf("replica saw %q, want the client's ID", got)
	}
}

// TestGateMetricsAndErrorEnvelope scrapes the gate's own /metricsz and
// checks a gate-originated error carries trace_id in the envelope.
func TestGateMetricsAndErrorEnvelope(t *testing.T) {
	a := newStatStub(t, "a", 0, 1, 0.1)
	g := statGate(t, a)
	for i := 0; i < 3; i++ {
		roundTrip(t, g, http.MethodPost, "/v1/predict", map[string]any{"effort": 1.0})
	}
	rec := roundTrip(t, g, http.MethodGet, "/metricsz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metricsz: status %d", rec.Code)
	}
	text := rec.Body.String()
	for _, want := range []string{
		`pawsgate_http_requests_total{endpoint="/v1/predict",method="POST",code="200"} 3`,
		`pawsgate_route_total{strategy="round_robin"} 3`,
		`pawsgate_replica_picks_total{replica="a"} 3`,
		`pawsgate_http_request_seconds_count{endpoint="/v1/predict"} 3`,
		"pawsgate_backends_healthy 1",
		"pawsgate_health_evictions_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("gate metricsz missing %q:\n%s", want, text)
		}
	}

	// Kill the backend: the next poll evicts it, and a gate-originated
	// error envelope carries the trace ID.
	a.ts.Close()
	g.PollOnce()
	rec = roundTrip(t, g, http.MethodGet, "/v1/models", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("no-backend status %d", rec.Code)
	}
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "no_backend" || env.Error.TraceID == "" {
		t.Fatalf("gate error envelope %+v, want no_backend with a trace_id", env.Error)
	}
	if env.Error.TraceID != rec.Header().Get(obs.TraceHeader) {
		t.Fatalf("envelope trace_id %q != header %q", env.Error.TraceID, rec.Header().Get(obs.TraceHeader))
	}
	rec = roundTrip(t, g, http.MethodGet, "/metricsz", nil)
	if !strings.Contains(rec.Body.String(), "pawsgate_health_evictions_total 1") {
		t.Fatal("health eviction not counted after backend death")
	}
}

// TestGateEndpointLabels checks that env session traffic is labelled with
// the replica mux's patterns, in the request metrics and in the gate's
// trace ops, rather than counted as "other".
func TestGateEndpointLabels(t *testing.T) {
	for _, tc := range []struct{ path, want string }{
		{"/v1/envs", "/v1/envs"},
		{"/v1/envs/e-a-000001", "/v1/envs/{id}"},
		{"/v1/envs/e-a-000001/step", "/v1/envs/{id}/step"},
		{"/v1/envs/e-a-000001/bogus", "other"},
		{"/v1/jobs/j-000001", "/v1/jobs/{id}"},
		{"/v1/jobs/j-000001/events", "/v1/jobs/{id}/events"},
		{"/v1/jobs/j-000001/result", "/v1/jobs/{id}/result"},
		{"/v1/jobs/j-000001/step", "other"},
		{"/v1/nope", "other"},
	} {
		if got := gateEndpoint(tc.path); got != tc.want {
			t.Errorf("gateEndpoint(%q) = %q, want %q", tc.path, got, tc.want)
		}
	}

	a := newStatStub(t, "a", 0, 1, 0.1)
	g := statGate(t, a)
	for _, req := range []struct{ method, path string }{
		{http.MethodPost, "/v1/envs"},
		{http.MethodPost, "/v1/envs/e-a-000001/step"},
		{http.MethodGet, "/v1/envs/e-a-000001"},
		{http.MethodDelete, "/v1/envs/e-a-000001"},
	} {
		if rec := roundTrip(t, g, req.method, req.path, map[string]any{}); rec.Code != http.StatusOK {
			t.Fatalf("%s %s via gate: status %d", req.method, req.path, rec.Code)
		}
	}
	text := roundTrip(t, g, http.MethodGet, "/metricsz", nil).Body.String()
	for _, want := range []string{
		`pawsgate_http_requests_total{endpoint="/v1/envs",method="POST",code="200"} 1`,
		`pawsgate_http_requests_total{endpoint="/v1/envs/{id}/step",method="POST",code="200"} 1`,
		`pawsgate_http_requests_total{endpoint="/v1/envs/{id}",method="GET",code="200"} 1`,
		`pawsgate_http_requests_total{endpoint="/v1/envs/{id}",method="DELETE",code="200"} 1`,
		`pawsgate_http_request_seconds_count{endpoint="/v1/envs/{id}"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("gate metricsz missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, `endpoint="other"`) {
		t.Errorf("env traffic counted as other:\n%s", text)
	}
	var ops []string
	for _, tr := range g.tracer.Recent() {
		ops = append(ops, tr.Op)
	}
	slices.Sort(ops)
	want := []string{"DELETE /v1/envs/{id}", "GET /v1/envs/{id}", "POST /v1/envs", "POST /v1/envs/{id}/step"}
	if !slices.Equal(ops, want) {
		t.Errorf("trace ops %q, want %q", ops, want)
	}
}
