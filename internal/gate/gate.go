// Package gate is the fleet routing proxy in front of N pawsd replicas
// (the pawsgate binary). The replicas share one model store (internal/
// store), so any replica can answer any request — the gate's job is to
// pick the replica that answers it best:
//
//   - Cacheable map/plan work (/v1/riskmap, /v1/plan) routes by rendezvous
//     hashing of the response cache key (model + the query's exact effort
//     bits), so repeat queries for the same key land on the same replica
//     and its riskmap LRU actually accumulates hits. With affinity off the
//     gate falls back to round-robin — the switch pawsload uses to measure
//     how much affinity is worth.
//   - Stateless scoring (/v1/predict) and discovery (/v1/models, /healthz)
//     round-robin across healthy replicas.
//   - Job submission (POST /v1/jobs, and the synchronous /v1/simulate,
//     which runs a one-shot job server-side) routes to the least-loaded
//     replica: queue depth and mean job cost from each replica's /statusz
//     poll, plus the submissions the gate itself routed there since the
//     last poll, so a burst between polls does not dogpile one replica.
//   - Job observation (GET /v1/jobs/{id}…, DELETE) is owner-sticky: job
//     state lives only on the replica that runs the job, so the gate
//     reads the replica ID off the job ID ("j-<replica>-000042") alone.
//     An ID that names no configured replica gets the gate's own 404.
//
// Replicas are health-checked (GET /statusz) on a fixed interval; a
// failed poll or a failed proxied request takes a replica out of rotation
// until a poll succeeds again. Because IDs are the only record of
// ownership, a poll also fails when the replica reports no replica ID
// (pawsd started without -replica mints bare "j-000001", as would every
// other such replica) or an ID another backend reports. Idempotent GETs
// that die on a transport error are retried once on a different healthy
// replica, so a replica crash mid-request costs clients one error at most.
// GET /v1/jobs fans out to every healthy replica and merges the lists, so
// operators see the whole fleet's jobs in one place. The gate reports
// itself under GET /gatez.
package gate

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"net/url"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"paws/internal/obs"
)

// Config tunes a Gate.
type Config struct {
	// Backends are the pawsd replica base URLs (e.g. http://127.0.0.1:8080).
	// At least one is required.
	Backends []string
	// HealthInterval is the /statusz poll cadence (default 250ms).
	HealthInterval time.Duration
	// Affinity enables cache-key routing for /v1/riskmap and /v1/plan;
	// disabled they round-robin like stateless traffic.
	Affinity bool
}

// backend is one replica behind the gate.
type backend struct {
	url string

	mu sync.Mutex
	// name is the replica ID from /statusz ("" until the first successful
	// poll of a replica that has one).
	name    string
	healthy bool
	// queued/running/meanJob/completed mirror the last /statusz poll.
	// completed distinguishes a cold replica (no jobs finished yet, so
	// meanJob 0 is "unknown") from a warm one whose jobs are genuinely
	// fast.
	queued, running int
	meanJob         float64
	completed       int64

	// envActive mirrors the replica's /statusz envs.active — live env
	// sessions, the least-loaded signal for session creates.
	envActive int

	// submits counts job submissions routed here since the last poll —
	// the between-polls correction for least-loaded routing.
	submits atomic.Int64
	// envCreates counts env session creates routed here since the last
	// poll — the same between-polls correction for session routing.
	envCreates atomic.Int64
	// proxied counts requests proxied here over the gate's lifetime.
	proxied atomic.Int64
}

func (b *backend) isHealthy() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy
}

// setHealthy updates the flag and reports a healthy→unhealthy
// transition (the event pawsgate_health_evictions_total counts).
func (b *backend) setHealthy(ok bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	evicted := b.healthy && !ok
	b.healthy = ok
	return evicted
}

// Gate is the routing proxy. It is an http.Handler.
type Gate struct {
	cfg      Config
	client   *http.Client
	backends []*backend

	rr atomic.Int64 // round-robin cursor

	// routing counters, reported by /gatez.
	affinityRouted, rrRouted, leastLoadedRouted, retries atomic.Int64

	metrics *gateMetrics
	tracer  *obs.Recorder
}

// maxBodyBytes bounds a buffered request body; the largest legitimate
// bodies (predict batches) stay well under it.
const maxBodyBytes = 16 << 20

// New builds a Gate and synchronously polls every backend once, so a
// freshly started gate routes correctly from its first request.
func New(cfg Config) (*Gate, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("gate: at least one backend is required")
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 250 * time.Millisecond
	}
	// The outbound client has no overall timeout: event streams are
	// long-lived, and per-request contexts bound everything else. The
	// /tracez flight recorder keeps the recorder's default 64 traces.
	g := &Gate{cfg: cfg, client: &http.Client{}, tracer: obs.NewRecorder(0)}
	for _, raw := range cfg.Backends {
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("gate: invalid backend URL %q", raw)
		}
		g.backends = append(g.backends, &backend{url: strings.TrimRight(raw, "/")})
	}
	g.metrics = newGateMetrics(g)
	g.PollOnce()
	return g, nil
}

// PollOnce health-checks every backend synchronously. A backend that
// answered is healthy only when it reported a replica ID that no other
// backend answering this round reported.
func (g *Gate) PollOnce() {
	names := make([]string, len(g.backends))
	answered := make([]bool, len(g.backends))
	var wg sync.WaitGroup
	for i, b := range g.backends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			names[i], answered[i] = g.pollBackend(b)
		}()
	}
	wg.Wait()
	reports := map[string]int{}
	for i, name := range names {
		if answered[i] {
			reports[name]++
		}
	}
	for i, b := range g.backends {
		switch {
		case !answered[i]:
			// pollBackend marked it down.
		case names[i] == "" || reports[names[i]] > 1:
			g.markDown(b)
		default:
			b.setHealthy(true)
		}
	}
}

// Run polls backend health until ctx is done.
func (g *Gate) Run(ctx interface{ Done() <-chan struct{} }) {
	t := time.NewTicker(g.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			g.PollOnce()
		}
	}
}

// statuszProbe is the slice of a replica's /statusz the gate consumes.
type statuszProbe struct {
	Replica string `json:"replica"`
	Jobs    struct {
		Queued         int     `json:"queued"`
		Running        int     `json:"running"`
		Completed      int64   `json:"completed"`
		MeanJobSeconds float64 `json:"mean_job_seconds"`
	} `json:"jobs"`
	Envs struct {
		Active int `json:"active"`
	} `json:"envs"`
}

// pollBackend refreshes one backend's replica ID and load from /statusz,
// returning the ID and whether it answered; one that did not is marked
// down. PollOnce decides the health of those that answered.
func (g *Gate) pollBackend(b *backend) (name string, ok bool) {
	req, err := http.NewRequest(http.MethodGet, b.url+"/statusz", nil)
	if err != nil {
		g.markDown(b)
		return "", false
	}
	client := *g.client
	client.Timeout = 2 * time.Second
	resp, err := client.Do(req)
	if err != nil {
		g.markDown(b)
		return "", false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		g.markDown(b)
		return "", false
	}
	var probe statuszProbe
	if err := json.Unmarshal(body, &probe); err != nil {
		g.markDown(b)
		return "", false
	}
	b.mu.Lock()
	b.name = probe.Replica
	b.queued = probe.Jobs.Queued
	b.running = probe.Jobs.Running
	b.completed = probe.Jobs.Completed
	b.meanJob = probe.Jobs.MeanJobSeconds
	b.envActive = probe.Envs.Active
	b.mu.Unlock()
	// The poll re-based queued+running and envs.active, so the
	// between-polls corrections restart from zero.
	b.submits.Store(0)
	b.envCreates.Store(0)
	return probe.Replica, true
}

// healthy returns the healthy backends, in configuration order.
func (g *Gate) healthy() []*backend {
	out := make([]*backend, 0, len(g.backends))
	for _, b := range g.backends {
		if b.isHealthy() {
			out = append(out, b)
		}
	}
	return out
}

// pickRoundRobin cycles through the healthy backends.
func (g *Gate) pickRoundRobin(healthy []*backend) *backend {
	n := g.rr.Add(1)
	return healthy[int((n-1)%int64(len(healthy)))]
}

// pickAffinity rendezvous-hashes the cache key over the healthy backends:
// each (key, backend) pair gets a deterministic weight and the maximum
// wins, so a key keeps its replica while that replica is alive, and only
// 1/n of keys move when a replica joins or dies.
func (g *Gate) pickAffinity(healthy []*backend, key string) *backend {
	var best *backend
	var bestW uint64
	for _, b := range healthy {
		h := fnv.New64a()
		io.WriteString(h, key)
		io.WriteString(h, "|")
		io.WriteString(h, b.url)
		if w := h.Sum64(); best == nil || w > bestW {
			best, bestW = b, w
		}
	}
	return best
}

// pickLeastLoaded takes the backend with the fewest committed jobs
// (statusz queued+running, plus submissions the gate routed there since
// the last poll). Ties break on expected per-job cost: a replica that
// has completed jobs ranks by its reported EWMA, while a cold replica
// (completed == 0, so its meanJob of 0 means "unknown", not "fast") is
// ranked pessimistically behind every warm candidate. Remaining ties
// keep configuration order.
func (g *Gate) pickLeastLoaded(healthy []*backend) *backend {
	type score struct {
		load    int64
		cold    bool
		meanJob float64
	}
	scoreOf := func(b *backend) score {
		b.mu.Lock()
		defer b.mu.Unlock()
		return score{
			load:    int64(b.queued+b.running) + b.submits.Load(),
			cold:    b.completed == 0,
			meanJob: b.meanJob,
		}
	}
	better := func(a, b score) bool {
		if a.load != b.load {
			return a.load < b.load
		}
		if a.cold != b.cold {
			return !a.cold
		}
		return a.meanJob < b.meanJob
	}
	best, bestScore := healthy[0], scoreOf(healthy[0])
	for _, b := range healthy[1:] {
		if s := scoreOf(b); better(s, bestScore) {
			best, bestScore = b, s
		}
	}
	return best
}

// pickLeastEnvLoaded takes the backend with the fewest live env sessions
// (statusz envs.active, plus the creates the gate routed there since the
// last poll). Ties keep configuration order — env steps are uniform enough
// that no cost tiebreak is needed.
func (g *Gate) pickLeastEnvLoaded(healthy []*backend) *backend {
	scoreOf := func(b *backend) int64 {
		b.mu.Lock()
		defer b.mu.Unlock()
		return int64(b.envActive) + b.envCreates.Load()
	}
	best, bestScore := healthy[0], scoreOf(healthy[0])
	for _, b := range healthy[1:] {
		if s := scoreOf(b); s < bestScore {
			best, bestScore = b, s
		}
	}
	return best
}

// ID patterns extract the replica name a resource ID carries — jobs are
// "j-<replica>-000042", env sessions "e-<replica>-000007". The two
// namespaces share one owner-resolution mechanism.
var (
	jobIDPattern = regexp.MustCompile(`^j-(.+)-[0-9]{6}$`)
	envIDPattern = regexp.MustCompile(`^e-(.+)-[0-9]{6}$`)
)

// ownerOf resolves which backend owns a resource ID: the replica named
// inside the ID per the namespace's pattern, or nil when the ID names no
// configured replica.
func (g *Gate) ownerOf(id string, pattern *regexp.Regexp) *backend {
	m := pattern.FindStringSubmatch(id)
	if m == nil {
		return nil
	}
	for _, b := range g.backends {
		b.mu.Lock()
		name := b.name
		b.mu.Unlock()
		if name == m[1] {
			return b
		}
	}
	return nil
}

// errorEnvelope mirrors serve's structured error body.
type errorEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
		TraceID string `json:"trace_id,omitempty"`
	} `json:"error"`
}

// writeGateErr renders a gate-originated error in serve's envelope shape
// (including the trace_id correlation field, read from the response's
// already-set X-Paws-Trace header), so clients parse one error format
// whether it came from a replica or from the gate itself.
func writeGateErr(w http.ResponseWriter, status int, code, msg string) {
	var env errorEnvelope
	env.Error.Code = code
	env.Error.Message = msg
	env.Error.TraceID = w.Header().Get(obs.TraceHeader)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(env)
}

// route classifies the request, picks a backend and proxies (ServeHTTP,
// in obs.go, wraps it with tracing and metrics).
func (g *Gate) route(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/gatez":
		g.handleGatez(w, r)
		return
	case "/metricsz":
		// The gate answers for itself; replica metrics are scraped from
		// the replicas directly.
		g.metrics.registry.Handler().ServeHTTP(w, r)
		return
	case "/tracez":
		g.tracer.Handler().ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		writeGateErr(w, http.StatusBadRequest, "bad_request", "reading request body: "+err.Error())
		return
	}
	if len(body) > maxBodyBytes {
		writeGateErr(w, http.StatusRequestEntityTooLarge, "bad_request",
			fmt.Sprintf("request body exceeds the gate's %d-byte limit", maxBodyBytes))
		return
	}
	healthy := g.healthy()
	if len(healthy) == 0 {
		writeGateErr(w, http.StatusServiceUnavailable, "no_backend", "no healthy replica available")
		return
	}

	path := r.URL.Path
	switch {
	case r.Method == http.MethodGet && path == "/v1/jobs":
		g.metrics.routeTotal.With("fanout").Inc()
		g.handleJobListFanout(w, r, healthy)
		return
	case strings.HasPrefix(path, "/v1/jobs/"):
		g.metrics.routeTotal.With("owner").Inc()
		g.routeOwned(w, r, body, healthy, "/v1/jobs/", jobIDPattern, "unknown_job", "job")
		return
	case r.Method == http.MethodPost && (path == "/v1/jobs" || path == "/v1/simulate"):
		b := g.pickLeastLoaded(healthy)
		g.leastLoadedRouted.Add(1)
		g.metrics.routeTotal.With("least_loaded").Inc()
		b.submits.Add(1)
		g.proxyWithRetry(w, r, body, b, healthy)
		return
	case r.Method == http.MethodPost && path == "/v1/envs":
		// Session creates route to the replica holding the fewest live env
		// sessions (statusz envs.active plus creates routed since the last
		// poll) — session state is replica-local, so balancing creates is
		// what balances step load.
		b := g.pickLeastEnvLoaded(healthy)
		g.leastLoadedRouted.Add(1)
		g.metrics.routeTotal.With("least_loaded").Inc()
		b.envCreates.Add(1)
		g.proxyWithRetry(w, r, body, b, healthy)
		return
	case strings.HasPrefix(path, "/v1/envs/"):
		// Step/get/delete are owner-sticky: the session lives only on the
		// replica that created it, named inside the ID ("e-<replica>-000007").
		g.metrics.routeTotal.With("owner").Inc()
		g.routeOwned(w, r, body, healthy, "/v1/envs/", envIDPattern, "unknown_env", "env session")
		return
	case g.cfg.Affinity && path == "/v1/riskmap":
		if key, ok := riskmapKey(r, body); ok {
			g.affinityRouted.Add(1)
			g.metrics.routeTotal.With("affinity").Inc()
			g.proxyWithRetry(w, r, body, g.pickAffinity(healthy, key), healthy)
			return
		}
	case g.cfg.Affinity && r.Method == http.MethodPost && path == "/v1/plan":
		if key, ok := planKey(body); ok {
			g.affinityRouted.Add(1)
			g.metrics.routeTotal.With("affinity").Inc()
			g.proxyWithRetry(w, r, body, g.pickAffinity(healthy, key), healthy)
			return
		}
	}
	// Everything else — predict, models, healthz, statusz, unparseable
	// affinity requests — round-robins.
	g.rrRouted.Add(1)
	g.metrics.routeTotal.With("round_robin").Inc()
	g.proxyWithRetry(w, r, body, g.pickRoundRobin(healthy), healthy)
}

// riskmapKey derives the riskmap response-cache affinity key (model +
// exact effort bits — the same identity serve's LRU keys on, minus the
// per-replica generation, which the shared store keeps aligned anyway).
func riskmapKey(r *http.Request, body []byte) (string, bool) {
	model := "default"
	var effort float64
	if r.Method == http.MethodGet {
		q := r.URL.Query()
		if m := q.Get("model"); m != "" {
			model = m
		}
		e, err := strconv.ParseFloat(q.Get("effort"), 64)
		if err != nil {
			return "", false
		}
		effort = e
	} else {
		var req struct {
			Model  string  `json:"model"`
			Effort float64 `json:"effort"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return "", false
		}
		if req.Model != "" {
			model = req.Model
		}
		effort = req.Effort
	}
	return fmt.Sprintf("riskmap|%s|%016x", model, math.Float64bits(effort)), true
}

// planKey derives the plan affinity key (model + post + beta bits).
func planKey(body []byte) (string, bool) {
	var req struct {
		Model string  `json:"model"`
		Post  int     `json:"post"`
		Beta  float64 `json:"beta"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return "", false
	}
	model := req.Model
	if model == "" {
		model = "default"
	}
	return fmt.Sprintf("plan|%s|%d|%016x", model, req.Post, math.Float64bits(req.Beta)), true
}

// routeOwned proxies a detail request under prefix — /v1/jobs/{id}… or
// /v1/envs/{id}… — to the replica that owns the ID, named inside it per
// pattern. An ID that names no configured replica gets the gate's own 404
// with code.
func (g *Gate) routeOwned(w http.ResponseWriter, r *http.Request, body []byte, healthy []*backend,
	prefix string, pattern *regexp.Regexp, code, noun string) {
	rest := strings.TrimPrefix(r.URL.Path, prefix)
	id := rest
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		id = rest[:i]
	}
	b := g.ownerOf(id, pattern)
	if b == nil {
		writeGateErr(w, http.StatusNotFound, code, fmt.Sprintf("%s %q names no replica behind this gate", noun, id))
		return
	}
	if b.isHealthy() {
		g.proxy(w, r, body, b)
		return
	}
	// The owner is down: its jobs and sessions are gone with its process.
	// A live replica answers authoritatively (404 after a restart, 503
	// shutting_down during its drain) — proxy there instead of failing with
	// a bare 502, so clients keep getting the structured envelope.
	g.retries.Add(1)
	g.proxy(w, r, body, g.pickRoundRobin(healthy))
}

// handleJobListFanout merges GET /v1/jobs across the fleet.
func (g *Gate) handleJobListFanout(w http.ResponseWriter, r *http.Request, healthy []*backend) {
	type listResp struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	merged := listResp{Jobs: []json.RawMessage{}}
	type keyed struct {
		id  string
		raw json.RawMessage
	}
	var all []keyed
	for _, b := range healthy {
		resp, raw, err := g.fetch(r, nil, b)
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		var one listResp
		if json.Unmarshal(raw, &one) != nil {
			continue
		}
		for _, j := range one.Jobs {
			var idOnly struct {
				ID string `json:"id"`
			}
			_ = json.Unmarshal(j, &idOnly)
			all = append(all, keyed{id: idOnly.ID, raw: j})
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].id < all[b].id })
	for _, k := range all {
		merged.Jobs = append(merged.Jobs, k.raw)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(merged)
}

// proxyWithRetry proxies to b; when the transport itself fails (replica
// died mid-request) and the request is an idempotent GET, it retries once
// on a different healthy replica.
func (g *Gate) proxyWithRetry(w http.ResponseWriter, r *http.Request, body []byte, b *backend, healthy []*backend) {
	err := g.proxy(w, r, body, b)
	if err == nil || r.Method != http.MethodGet {
		if err != nil {
			writeGateErr(w, http.StatusBadGateway, "backend_down", fmt.Sprintf("replica %s: %v", b.url, err))
		}
		return
	}
	for _, alt := range healthy {
		if alt == b || !alt.isHealthy() {
			continue
		}
		g.retries.Add(1)
		if err := g.proxy(w, r, body, alt); err == nil {
			return
		}
		break // one retry
	}
	writeGateErr(w, http.StatusBadGateway, "backend_down", fmt.Sprintf("replica %s: %v", b.url, err))
}

// proxy forwards the request to one backend and streams the response. A
// transport-level failure marks the backend unhealthy and returns the
// error with nothing written, so the caller may retry elsewhere; once any
// response byte arrives the response is committed to this backend.
func (g *Gate) proxy(w http.ResponseWriter, r *http.Request, body []byte, b *backend) error {
	endSpan := obs.StartSpan(r.Context(), "proxy", b.label())
	defer endSpan()
	resp, err := g.send(r, body, b)
	if err != nil {
		g.markDown(b)
		return err
	}
	defer resp.Body.Close()
	b.proxied.Add(1)
	copyHeader(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return nil // client gone; the backend is fine
			}
			// Flush every chunk: NDJSON event streams must reach the
			// client as the replica emits them, not when a buffer fills.
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr != nil {
			return nil
		}
	}
}

// fetch forwards the request to one backend and buffers the full response
// — for the job list fan-out, which must inspect the answers. Transport
// failures mark the backend unhealthy.
func (g *Gate) fetch(r *http.Request, body []byte, b *backend) (*http.Response, []byte, error) {
	endSpan := obs.StartSpan(r.Context(), "proxy", b.label())
	defer endSpan()
	resp, err := g.send(r, body, b)
	if err != nil {
		g.markDown(b)
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		g.markDown(b)
		return nil, nil, err
	}
	b.proxied.Add(1)
	return resp, raw, nil
}

// send builds and performs the outbound request. The inbound headers
// include X-Paws-Trace (set by ServeHTTP when the client sent none), so
// the replica adopts the gate's trace ID.
func (g *Gate) send(r *http.Request, body []byte, b *backend) (*http.Response, error) {
	out, err := http.NewRequestWithContext(r.Context(), r.Method, b.url+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	copyHeader(out.Header, r.Header)
	out.Header.Del("Connection")
	g.metrics.replicaPicks.With(b.label()).Inc()
	return g.client.Do(out)
}

// copyHeader copies headers, skipping hop-by-hop fields. X-Paws-Trace
// is skipped when the destination already carries it: the gate sets the
// ID on its response up front, and the replica echoes the same ID back
// — copying would duplicate the header.
func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		switch http.CanonicalHeaderKey(k) {
		case "Connection", "Keep-Alive", "Transfer-Encoding", "Upgrade":
			continue
		case obs.TraceHeader:
			if dst.Get(obs.TraceHeader) != "" {
				continue
			}
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// BackendStatus is one replica's row in the /gatez report.
type BackendStatus struct {
	Name    string `json:"name,omitempty"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Queued  int    `json:"queued"`
	Running int    `json:"running"`
	// MeanJobSeconds is the replica's reported mean job runtime; it is
	// meaningful only when Completed > 0 (a cold replica reports 0).
	MeanJobSeconds float64 `json:"mean_job_seconds"`
	// Completed is the replica's lifetime finished-job count.
	Completed int64 `json:"completed"`
	// Proxied counts requests the gate sent here over its lifetime.
	Proxied int64 `json:"proxied"`
	// SubmitsSincePoll counts job submissions routed here since the last
	// health poll.
	SubmitsSincePoll int64 `json:"submits_since_poll"`
	// EnvActive is the replica's reported live env session count.
	EnvActive int `json:"env_active"`
	// EnvCreatesSincePoll counts env session creates routed here since the
	// last health poll.
	EnvCreatesSincePoll int64 `json:"env_creates_since_poll"`
}

// GatezResponse is the gate's own status report.
type GatezResponse struct {
	Affinity bool            `json:"affinity"`
	Backends []BackendStatus `json:"backends"`
	Routing  struct {
		Affinity    int64 `json:"affinity"`
		RoundRobin  int64 `json:"round_robin"`
		LeastLoaded int64 `json:"least_loaded"`
		Retries     int64 `json:"retries"`
	} `json:"routing"`
}

// Status builds the current /gatez report.
func (g *Gate) Status() GatezResponse {
	resp := GatezResponse{Affinity: g.cfg.Affinity}
	for _, b := range g.backends {
		b.mu.Lock()
		resp.Backends = append(resp.Backends, BackendStatus{
			Name:                b.name,
			URL:                 b.url,
			Healthy:             b.healthy,
			Queued:              b.queued,
			Running:             b.running,
			MeanJobSeconds:      b.meanJob,
			Completed:           b.completed,
			Proxied:             b.proxied.Load(),
			SubmitsSincePoll:    b.submits.Load(),
			EnvActive:           b.envActive,
			EnvCreatesSincePoll: b.envCreates.Load(),
		})
		b.mu.Unlock()
	}
	resp.Routing.Affinity = g.affinityRouted.Load()
	resp.Routing.RoundRobin = g.rrRouted.Load()
	resp.Routing.LeastLoaded = g.leastLoadedRouted.Load()
	resp.Routing.Retries = g.retries.Load()
	return resp
}

func (g *Gate) handleGatez(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeGateErr(w, http.StatusMethodNotAllowed, "bad_request", "gatez is GET-only")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(g.Status())
}
