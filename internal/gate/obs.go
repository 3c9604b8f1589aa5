package gate

import (
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"paws/internal/obs"
)

// This file is the gate's observability wiring: per-endpoint HTTP
// metrics and routing-decision counters (GET /metricsz on the gate
// itself, not proxied), plus edge tracing — the gate mints the fleet's
// X-Paws-Trace ID, records its own trace per proxied request (with one
// span per backend attempt), and propagates the ID to the replica so
// the same ID names the request in both /tracez flight recorders.

// gateMetrics bundles the pawsgate instruments.
type gateMetrics struct {
	registry     *obs.Registry
	httpReqs     obs.CounterVec   // endpoint, method, code
	httpSeconds  obs.HistogramVec // endpoint
	routeTotal   obs.CounterVec   // strategy
	replicaPicks obs.CounterVec   // replica
	healthEvict  obs.Counter
}

func newGateMetrics(g *Gate) *gateMetrics {
	r := obs.NewRegistry()
	m := &gateMetrics{
		registry: r,
		httpReqs: r.CounterVec("pawsgate_http_requests_total",
			"Requests through the gate by endpoint, method and status code.",
			"endpoint", "method", "code"),
		httpSeconds: r.HistogramVec("pawsgate_http_request_seconds",
			"Gate-side request latency in seconds by endpoint (includes the proxied backend time).",
			nil, "endpoint"),
		routeTotal: r.CounterVec("pawsgate_route_total",
			"Routing decisions by strategy: affinity (cache-key rendezvous), round_robin, least_loaded (job and simulate submission, env session creation), owner (job and env session detail), fanout (job list merge).",
			"strategy"),
		replicaPicks: r.CounterVec("pawsgate_replica_picks_total",
			"Outbound proxy requests by chosen replica (retries count each attempt).",
			"replica"),
		healthEvict: r.Counter("pawsgate_health_evictions_total",
			"healthy-to-unhealthy transitions (failed poll or failed proxied request)."),
	}
	r.CounterFunc("pawsgate_retries_total",
		"Idempotent GETs retried on another replica after a transport failure.",
		func() float64 { return float64(g.retries.Load()) })
	r.GaugeFunc("pawsgate_backends_healthy",
		"Replicas currently in rotation.",
		func() float64 { return float64(len(g.healthy())) })
	r.GaugeFunc("pawsgate_backends_total",
		"Configured replicas.",
		func() float64 { return float64(len(g.backends)) })
	return m
}

// label names a backend for metric labels: the replica ID once a poll
// has learned it, the URL before that.
func (b *backend) label() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.name != "" {
		return b.name
	}
	return b.url
}

// markDown records a backend failure: out of rotation, and a
// health-eviction count when this was the transition.
func (g *Gate) markDown(b *backend) {
	if b.setHealthy(false) {
		g.metrics.healthEvict.Inc()
	}
}

// gateEndpoint classifies a path into a bounded label set: the replica
// mux's patterns, with concrete job and env session IDs collapsed into
// {id}. Anything else is "other".
func gateEndpoint(path string) string {
	switch path {
	case "/gatez", "/healthz", "/statusz", "/metricsz", "/tracez",
		"/v1/models", "/v1/predict", "/v1/riskmap", "/v1/plan", "/v1/simulate", "/v1/jobs", "/v1/envs":
		return path
	}
	for _, c := range []struct {
		collection string
		subs       []string // sub-resources under {id}
	}{
		{"/v1/jobs", []string{"events", "result"}},
		{"/v1/envs", []string{"step"}},
	} {
		rest, ok := strings.CutPrefix(path, c.collection+"/")
		if !ok {
			continue
		}
		_, sub, nested := strings.Cut(rest, "/")
		switch {
		case !nested:
			return c.collection + "/{id}"
		case slices.Contains(c.subs, sub):
			return c.collection + "/{id}/" + sub
		}
		return "other"
	}
	return "other"
}

// gateOpsEndpoints are scraped/polled; they get metrics and the trace
// header but no /tracez ring entries.
var gateOpsEndpoints = map[string]bool{
	"/gatez":    true,
	"/healthz":  true,
	"/statusz":  true,
	"/metricsz": true,
	"/tracez":   true,
}

// ServeHTTP implements http.Handler: the edge observability middleware
// around the router. The gate is where a fleet trace begins — absent an
// inbound X-Paws-Trace the gate mints the ID, and either way it is set
// on the inbound request header so send() carries it to the replica,
// which adopts it into its own flight recorder.
func (g *Gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	endpoint := gateEndpoint(r.URL.Path)
	sw := &obs.StatusWriter{ResponseWriter: w}
	id := r.Header.Get(obs.TraceHeader)
	if id == "" {
		id = obs.MintID()
		r.Header.Set(obs.TraceHeader, id)
	}
	sw.Header().Set(obs.TraceHeader, id)
	var tr *obs.Trace
	if !gateOpsEndpoints[endpoint] {
		tr = g.tracer.Start(id, r.Method+" "+endpoint)
		r = r.WithContext(obs.WithTrace(r.Context(), tr))
	}
	start := time.Now()
	g.route(sw, r)
	code := sw.StatusCode()
	g.metrics.httpReqs.With(endpoint, r.Method, strconv.Itoa(code)).Inc()
	g.metrics.httpSeconds.With(endpoint).Observe(time.Since(start).Seconds())
	tr.Finish(strconv.Itoa(code))
}
