// Package serve is the JSON-over-HTTP front-end of the PAWS pipeline: a
// Server wraps a paws.Service holding pre-loaded (typically persisted)
// models and exposes
//
//	POST /v1/predict   — batched detection-probability scoring, by raw
//	                     feature vectors or by park cell ids
//	GET|POST /v1/riskmap — park-wide risk + uncertainty maps at one planned
//	                     effort, behind a bounded LRU that keeps each
//	                     response encoded, so a hit writes stored bytes
//	POST /v1/plan      — a robust patrol plan (effort map + executable
//	                     routes) for one patrol post
//	POST /v1/simulate  — a closed-loop multi-season policy comparison
//	                     (Service.Simulate): PAWS vs baselines against a
//	                     responsive poacher
//	GET /v1/models     — discovery: the registered models and their serving
//	                     context (kind, park, feature width, generation,
//	                     provenance: memory-trained vs fleet store)
//	GET /healthz       — liveness plus the registered model names
//	GET /statusz       — replica load report (job queue depth, mean job
//	                     cost, admission state, riskmap cache hit rates) —
//	                     the signal pawsgate's least-loaded routing polls
//
// # Async jobs
//
// The long-running half of the API is job-based (internal/job): instead of
// holding a connection open for minutes, clients submit work, watch a
// typed progress-event stream, and fetch the result when it is ready:
//
//	POST   /v1/jobs             — submit (kinds: simulate, campaign, train,
//	                              table2, riskmap); returns the job snapshot
//	GET    /v1/jobs             — list retained jobs
//	GET    /v1/jobs/{id}        — job snapshot (state, timestamps, error)
//	GET    /v1/jobs/{id}/events — NDJSON progress stream, replayable via
//	                              ?from=N, safe on client disconnect
//	GET    /v1/jobs/{id}/result — the result, byte-identical to the
//	                              synchronous endpoint's response
//	DELETE /v1/jobs/{id}        — cancel (queued or running)
//
// A completed train job registers its model into the Service registry, so
// remote train→serve works over plain HTTP. The synchronous /v1/simulate
// endpoint is a thin wrapper over a one-shot job (Manager.Run), so both
// paths share one compute implementation and the same concurrency bound.
//
// Every request runs under the request context, optionally bounded by
// Config.RequestTimeout and per-request timeout_ms: deadlines reach
// mid-sweep into batch prediction and map generation (see internal/par), so
// an expired request aborts early with 504 instead of burning the worker
// pool on an answer nobody is waiting for. Errors use a structured
// envelope, {"error": {"code": …, "message": …}}, with machine-readable
// codes (bad_request, unknown_model, unknown_job, unknown_env, deadline,
// canceled, conflict, shutting_down, overloaded). A request body over
// 16 MiB, the pawsgate limit, is refused with 413 and code bad_request
// before it is decoded in full. Job submissions additionally pass an
// admission gate (Config.AdmissionBudget / AdmissionMaxQueue): once the
// estimated backlog exceeds the budget, submissions are shed with 429 +
// Retry-After instead of queueing work the replica cannot serve in time.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"paws"
	"paws/internal/env"
	"paws/internal/job"
	"paws/internal/obs"
)

// Config tunes a Server.
type Config struct {
	// RequestTimeout bounds every request's context (0 = unbounded).
	// Requests may tighten it further with "timeout_ms" but never widen it.
	// Async job submissions are exempt: a job outlives its submit request
	// by design (bound one with its own timeout_ms instead).
	RequestTimeout time.Duration
	// RiskMapCacheSize bounds the riskmap LRU (default 64; negative
	// disables caching). An entry is the encoded response body, about 2.3×
	// the two float slices it encodes: 169,611 vs 73,808 bytes on MFNP
	// full, so 64 entries hold about 11 MB there.
	RiskMapCacheSize int
	// JobWorkers bounds concurrently *running* jobs, including the one-shot
	// jobs behind synchronous /v1/simulate. 0 selects the default of 4;
	// negative means one slot per available CPU (par.Workers semantics).
	// Excess jobs queue FIFO.
	JobWorkers int
	// JobResultTTL bounds how long finished job results are retained
	// (default 15m; negative disables TTL eviction).
	JobResultTTL time.Duration
	// JobMaxRetained bounds how many finished jobs are retained (default
	// 64; the oldest-finished evict first).
	JobMaxRetained int
	// ReplicaID names this replica in a fleet. Non-empty, it namespaces job
	// IDs ("j-<replica>-000001") so a routing proxy (pawsgate) can tell which
	// replica owns a job, and it is reported by /statusz. Empty keeps the
	// single-process ID format.
	ReplicaID string
	// AdmissionBudget bounds the estimated job backlog: when (queued +
	// running) × mean job runtime exceeds it, job submissions (async and the
	// one-shot job behind synchronous /v1/simulate) are rejected with a
	// structured 429 ("overloaded") carrying a Retry-After estimate, instead
	// of quietly queueing minutes of work. 0 disables backlog admission
	// control.
	AdmissionBudget time.Duration
	// AdmissionMaxQueue bounds the queue outright: at or beyond this many
	// queued jobs, submissions are rejected with 429 regardless of the
	// backlog estimate (which needs at least one completed job to be
	// non-zero). 0 disables the bound.
	AdmissionMaxQueue int
	// TraceCapacity bounds the /tracez flight recorder: how many completed
	// traces are retained, newest first (default 64).
	TraceCapacity int
	// EnvTTL bounds how long idle /v1/envs sessions are retained (default
	// 15m; negative disables TTL eviction).
	EnvTTL time.Duration
	// EnvMaxSessions bounds retained /v1/envs sessions (default 64). At the
	// bound, creates are shed with a structured 429 + Retry-After once no
	// finished session can be evicted.
	EnvMaxSessions int
}

// Server is the HTTP layer over a paws.Service. It is an http.Handler.
type Server struct {
	svc     *paws.Service
	cfg     Config
	mux     *http.ServeMux
	cache   *lruCache
	jobs    *job.Manager
	envs    *env.Manager
	metrics *serverMetrics
	tracer  *obs.Recorder
}

// New builds a Server over a Service whose models are already registered
// (models added to the Service later are picked up automatically — the
// registry is read per request).
func New(svc *paws.Service, cfg Config) *Server {
	if cfg.RiskMapCacheSize == 0 {
		cfg.RiskMapCacheSize = 64
	}
	if cfg.JobWorkers == 0 {
		cfg.JobWorkers = 4
	}
	s := &Server{
		svc:   svc,
		cfg:   cfg,
		mux:   http.NewServeMux(),
		cache: newLRU(cfg.RiskMapCacheSize),
		jobs: job.NewManager(job.Config{
			Workers:     cfg.JobWorkers,
			ResultTTL:   cfg.JobResultTTL,
			MaxRetained: cfg.JobMaxRetained,
			IDPrefix:    cfg.ReplicaID,
		}),
		envs: env.NewManager(env.ManagerConfig{
			TTL:         cfg.EnvTTL,
			MaxSessions: cfg.EnvMaxSessions,
			IDPrefix:    cfg.ReplicaID,
		}),
		tracer: obs.NewRecorder(cfg.TraceCapacity),
	}
	s.metrics = newServerMetrics(s)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /statusz", s.handleStatusz)
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	s.mux.HandleFunc("POST /v1/predict", s.handlePredict)
	s.mux.HandleFunc("GET /v1/riskmap", s.handleRiskMap)
	s.mux.HandleFunc("POST /v1/riskmap", s.handleRiskMap)
	s.mux.HandleFunc("POST /v1/plan", s.handlePlan)
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("POST /v1/envs", s.handleEnvCreate)
	s.mux.HandleFunc("POST /v1/envs/{id}/step", s.handleEnvStep)
	s.mux.HandleFunc("GET /v1/envs/{id}", s.handleEnvGet)
	s.mux.HandleFunc("DELETE /v1/envs/{id}", s.handleEnvDelete)
	s.mux.Handle("GET /metricsz", s.metrics.registry.Handler())
	s.mux.Handle("GET /tracez", s.tracer.Handler())
	return s
}

// Close drains the job and env layers: submissions and session creates
// stop, queued and running jobs finish, in-flight env steps complete (or,
// once ctx expires, are canceled and awaited), and retained sessions are
// dropped. Call it after http.Server.Shutdown so a graceful pawsd exit
// never abandons work mid-run.
func (s *Server) Close(ctx context.Context) error {
	err := s.jobs.Shutdown(ctx)
	if err2 := s.envs.Shutdown(ctx); err == nil {
		err = err2
	}
	return err
}

// requestCtx applies the server-wide and per-request deadlines.
func (s *Server) requestCtx(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	cancel := context.CancelFunc(func() {})
	if s.cfg.RequestTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
	}
	if timeoutMS > 0 {
		tighter, cancel2 := context.WithTimeout(ctx, time.Duration(timeoutMS)*time.Millisecond)
		prev := cancel
		ctx, cancel = tighter, func() { cancel2(); prev() }
	}
	return ctx, cancel
}

// Machine-readable error codes of the structured error envelope. Clients
// branch on Code; Message is for humans and carries no stability promise.
const (
	CodeBadRequest   = "bad_request"
	CodeUnknownModel = "unknown_model"
	CodeUnknownJob   = "unknown_job"
	CodeUnknownEnv   = "unknown_env"
	CodeDeadline     = "deadline"
	CodeCanceled     = "canceled"
	CodeConflict     = "conflict"
	CodeShuttingDown = "shutting_down"
	CodeOverloaded   = "overloaded"
)

// overloadedError is the admission-control rejection: the replica's job
// backlog exceeds its configured budget. It renders as a structured 429
// with a Retry-After header estimating when the backlog should have
// drained below the budget.
type overloadedError struct {
	retryAfter time.Duration
	msg        string
}

func (e *overloadedError) Error() string { return e.msg }

// RetryAfterSeconds is the Retry-After value (whole seconds, at least 1).
func (e *overloadedError) RetryAfterSeconds() int {
	secs := int(math.Ceil(e.retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// ErrorDetail is the structured payload of every non-2xx response.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// TraceID echoes the response's X-Paws-Trace header so a shed or
	// timed-out request can be correlated with server-side traces even
	// when only the body was logged.
	TraceID string `json:"trace_id,omitempty"`
}

// errorResponse is the uniform error body: {"error":{"code":…,"message":…}}.
type errorResponse struct {
	Error ErrorDetail `json:"error"`
}

// writeJSON encodes v with a status code.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errorStatus classifies an error into its transport status and envelope
// code: unknown model/job/env session → 404, deadline → 504, canceled → 499
// (nginx convention), result not ready or episode done → 409, draining →
// 503, oversized body → 413 (bad_request, as pawsgate answers it), anything
// else the service rejected → 400.
func errorStatus(err error) (int, string) {
	var ov *overloadedError
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &ov):
		return http.StatusTooManyRequests, CodeOverloaded
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, CodeBadRequest
	case errors.Is(err, paws.ErrUnknownModel):
		return http.StatusNotFound, CodeUnknownModel
	case errors.Is(err, job.ErrUnknownJob):
		return http.StatusNotFound, CodeUnknownJob
	case errors.Is(err, job.ErrNotFinished):
		return http.StatusConflict, CodeConflict
	case errors.Is(err, job.ErrShuttingDown):
		return http.StatusServiceUnavailable, CodeShuttingDown
	case errors.Is(err, env.ErrUnknownSession):
		return http.StatusNotFound, CodeUnknownEnv
	case errors.Is(err, env.ErrDone):
		return http.StatusConflict, CodeConflict
	case errors.Is(err, env.ErrShuttingDown):
		return http.StatusServiceUnavailable, CodeShuttingDown
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, CodeDeadline
	case errors.Is(err, context.Canceled):
		return 499, CodeCanceled
	default:
		return http.StatusBadRequest, CodeBadRequest
	}
}

// writeErr renders an error as the structured envelope. Admission
// rejections additionally carry a Retry-After header so well-behaved
// clients (and pawsgate) know when to come back.
func writeErr(w http.ResponseWriter, err error) {
	status, code := errorStatus(err)
	var ov *overloadedError
	if errors.As(err, &ov) {
		w.Header().Set("Retry-After", strconv.Itoa(ov.RetryAfterSeconds()))
	}
	writeJSON(w, status, errorResponse{Error: ErrorDetail{
		Code:    code,
		Message: err.Error(),
		TraceID: w.Header().Get(obs.TraceHeader),
	}})
}

// maxBodyBytes bounds a request body at pawsgate's limit, so a replica
// alone accepts exactly the bodies the gate would forward to it.
const maxBodyBytes = 16 << 20

// decodeBody strictly decodes a JSON request body of at most maxBodyBytes
// into v. A longer body fails with *http.MaxBytesError (413).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------- healthz

type healthResponse struct {
	Status string   `json:"status"`
	Models []string `json:"models"`
	// Jobs is the number of queued or running async jobs.
	Jobs int `json:"jobs"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{Status: "ok", Models: s.svc.ModelNames(), Jobs: s.jobs.Active()})
}

// ------------------------------------------------------------- /v1/models

// ModelInfo describes one registered model: what it is and the serving
// context it answers queries against.
type ModelInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Park is the spec of the park the model serves ("MFNP", "rand-16", …).
	Park  string `json:"park"`
	Cells int    `json:"cells"`
	// FeatureDim is the feature-vector width /v1/predict expects.
	FeatureDim int `json:"feature_dim"`
	// Posts is the number of patrol posts /v1/plan accepts for this park.
	Posts int `json:"posts"`
	// Generation is the registry registration number (bumps when a name is
	// re-registered); cache keys should include it.
	Generation uint64 `json:"generation"`
	// Source reports where the model came from: "memory" (trained or loaded
	// by this replica) or "store" (pulled from the shared fleet store).
	Source string `json:"source"`
	// Hash is the model artifact's content hash in the fleet store (empty
	// when the model was never published).
	Hash string `json:"hash,omitempty"`
}

type modelsResponse struct {
	Models []ModelInfo `json:"models"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	resp := modelsResponse{Models: []ModelInfo{}}
	for _, sm := range s.svc.ServedModels() {
		source, hash, _ := sm.Provenance()
		resp.Models = append(resp.Models, ModelInfo{
			Name:       sm.Name,
			Kind:       sm.Model.Kind.String(),
			Park:       sm.Park().Name,
			Cells:      sm.Park().Grid.NumCells(),
			Posts:      len(sm.Park().Posts),
			FeatureDim: sm.FeatureDim(),
			Generation: sm.Generation(),
			Source:     source,
			Hash:       hash,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// ------------------------------------------------------------- /v1/predict

// PredictRequest scores a batch at one planned patrol effort. Exactly one
// of Features (raw vectors, park features + previous patrol coverage) or
// Cells (park cell ids, scored on the model's frozen serving features) must
// be set. A batch holds at most 100,000 rows and its body at most 16 MiB.
// A Cells batch reaches the row cap first. A Features batch reaches the body
// cap first: an MFNP row of 22 features is about 390 bytes of JSON, so only
// batches up to about 43,000 such rows get through.
type PredictRequest struct {
	Model     string      `json:"model"`
	Effort    float64     `json:"effort"`
	Features  [][]float64 `json:"features,omitempty"`
	Cells     []int       `json:"cells,omitempty"`
	Variance  bool        `json:"variance,omitempty"`
	TimeoutMS int         `json:"timeout_ms,omitempty"`
}

// PredictResponse carries one probability (and optionally one variance) per
// requested row, in request order.
type PredictResponse struct {
	Model     string    `json:"model"`
	Effort    float64   `json:"effort"`
	Probs     []float64 `json:"probs"`
	Variances []float64 `json:"variances,omitempty"`
}

// maxPredictRows bounds one request's batch so a single client cannot queue
// unbounded work behind one POST. Only Cells batches can reach it: the
// maxBodyBytes cap refuses a Features batch first, since 100,000 MFNP
// feature rows are 36.9 MiB of JSON.
const maxPredictRows = 100_000

// Caps on /v1/plan's overrides. A plan's memory grows with each of them
// (about 2 KB per PWL segment on a 35-cell region), so without caps a body
// of a few bytes could ask for gigabytes, and running out of memory kills
// the replica where recover cannot. Each cap is at least twice the largest
// value an in-repo planner passes: radius 8 and 90 cells (the sim policy),
// T 12 (PlanStudy), K 3 (the sim policy) and 25 segments (fig 9).
const (
	maxPlanRadius   = 32
	maxPlanCells    = 400
	maxPlanT        = 48
	maxPlanK        = 16
	maxPlanSegments = 64
)

// limit is one request value and the cap above which it is a bad request.
type limit struct {
	name     string
	val, cap float64
}

// checkLimits rejects the first value above its cap.
func checkLimits(limits ...limit) error {
	for _, l := range limits {
		if l.val > l.cap {
			return fmt.Errorf("%s %v exceeds the limit of %v", l.name, l.val, l.cap)
		}
	}
	return nil
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req PredictRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if req.Model == "" {
		req.Model = "default"
	}
	if (len(req.Features) == 0) == (len(req.Cells) == 0) {
		writeErr(w, errors.New("exactly one of features or cells must be non-empty"))
		return
	}
	if n := len(req.Features) + len(req.Cells); n > maxPredictRows {
		writeErr(w, fmt.Errorf("batch of %d rows exceeds the limit of %d", n, maxPredictRows))
		return
	}
	if req.Effort < 0 || math.IsNaN(req.Effort) || math.IsInf(req.Effort, 0) {
		writeErr(w, fmt.Errorf("effort %v must be a non-negative finite number", req.Effort))
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	resp := PredictResponse{Model: req.Model, Effort: req.Effort}
	var err error
	switch {
	case len(req.Cells) > 0:
		if req.Variance {
			writeErr(w, errors.New("variance is only available for feature-vector requests"))
			return
		}
		resp.Probs, err = s.svc.PredictCells(ctx, req.Model, req.Cells, req.Effort)
	case req.Variance:
		resp.Probs, resp.Variances, err = s.svc.PredictWithVariance(ctx, req.Model, req.Features, req.Effort)
	default:
		resp.Probs, err = s.svc.Predict(ctx, req.Model, req.Features, req.Effort)
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// ------------------------------------------------------------- /v1/riskmap

// RiskMapRequest asks for the park-wide maps at one planned effort.
type RiskMapRequest struct {
	Model     string  `json:"model"`
	Effort    float64 `json:"effort"`
	TimeoutMS int     `json:"timeout_ms,omitempty"`
}

// RiskMapResponse is the full-park raster pair plus the grid geometry
// needed to render it.
type RiskMapResponse struct {
	Model       string    `json:"model"`
	Effort      float64   `json:"effort"`
	Width       int       `json:"width"`
	Height      int       `json:"height"`
	Cells       int       `json:"cells"`
	Risk        []float64 `json:"risk"`
	Uncertainty []float64 `json:"uncertainty"`
	// Cached must stay the last field: the riskmap cache derives a miss's
	// body from the stored one by swapping the tail (see missBody).
	Cached bool `json:"cached"`
}

func (s *Server) handleRiskMap(w http.ResponseWriter, r *http.Request) {
	var req RiskMapRequest
	if r.Method == http.MethodGet {
		req.Model = r.URL.Query().Get("model")
		if v := r.URL.Query().Get("effort"); v != "" {
			e, err := strconv.ParseFloat(v, 64)
			if err != nil {
				writeErr(w, fmt.Errorf("invalid effort %q", v))
				return
			}
			req.Effort = e
		}
		if v := r.URL.Query().Get("timeout_ms"); v != "" {
			t, err := strconv.Atoi(v)
			if err != nil {
				writeErr(w, fmt.Errorf("invalid timeout_ms %q", v))
				return
			}
			req.TimeoutMS = t
		}
	} else if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	body, err := s.computeRiskMap(ctx, req)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// checkRiskMap validates a riskmap request, fills defaults and resolves
// the model — shared by the synchronous endpoint and the riskmap job
// kind's submit-time validation.
func (s *Server) checkRiskMap(req RiskMapRequest) (RiskMapRequest, *paws.ServedModel, error) {
	if req.Model == "" {
		req.Model = "default"
	}
	if req.Effort <= 0 || math.IsNaN(req.Effort) || math.IsInf(req.Effort, 0) {
		return req, nil, fmt.Errorf("effort %v must be a positive finite number", req.Effort)
	}
	sm, ok := s.svc.Served(req.Model)
	if !ok {
		return req, nil, fmt.Errorf("%w %q", paws.ErrUnknownModel, req.Model)
	}
	return req, sm, nil
}

// computeRiskMap validates a riskmap request and answers it through the
// LRU — the single compute path shared by the synchronous endpoint and the
// riskmap job kind. It returns the encoded response body. A hit returns the
// stored bytes, which are the "cached":true body, with no encoding; a miss
// computes the maps, encodes them once, stores that body and returns it
// with "cached":false.
func (s *Server) computeRiskMap(ctx context.Context, req RiskMapRequest) ([]byte, error) {
	req, sm, err := s.checkRiskMap(req)
	if err != nil {
		return nil, err
	}
	// The cache key pins the model *instance* via its registration
	// generation (re-registering a name bumps it, so stale maps are never
	// served; a heap address could be reused after GC), and the effort's
	// exact bits (no float formatting collisions).
	key := fmt.Sprintf("%s|%d|%016x", req.Model, sm.Generation(), math.Float64bits(req.Effort))
	if v, ok := s.cache.get(key); ok {
		return v.([]byte), nil
	}
	// Compute from the instance the key was derived from — re-resolving
	// the name here could race with a concurrent re-registration and file
	// one generation's maps under another's key.
	endSpan := obs.StartSpan(ctx, "riskmap", req.Model)
	risk, unc, err := sm.PlannerModel().Maps(ctx, req.Effort)
	endSpan()
	if err != nil {
		return nil, err
	}
	grid := sm.Park().Grid
	var hit bytes.Buffer
	if err := json.NewEncoder(&hit).Encode(RiskMapResponse{
		Model:       req.Model,
		Effort:      req.Effort,
		Width:       grid.W,
		Height:      grid.H,
		Cells:       len(risk),
		Risk:        risk,
		Uncertainty: unc,
		Cached:      true,
	}); err != nil {
		return nil, err
	}
	s.cache.add(key, hit.Bytes())
	return missBody(hit.Bytes()), nil
}

// missBody copies a stored riskmap body with "cached":true swapped for
// "cached":false. Cached is the last field of RiskMapResponse, so the
// stored body ends in `true}` and the encoder's newline.
func missBody(hit []byte) []byte {
	head := hit[:len(hit)-len("true}\n")]
	return append(append(make([]byte, 0, len(head)+len("false}\n")), head...), "false}\n"...)
}

// ---------------------------------------------------------------- /v1/plan

// PlanRequest asks for a robust patrol plan around one patrol post.
type PlanRequest struct {
	Model string  `json:"model"`
	Post  int     `json:"post"`
	Beta  float64 `json:"beta"`
	// Optional region / horizon overrides (0 keeps server defaults). Each
	// has a cap, and a larger value is a bad request: radius 32, max_cells
	// 400, t 48, k 16 and segments 64.
	Radius    int     `json:"radius,omitempty"`
	MaxCells  int     `json:"max_cells,omitempty"`
	T         int     `json:"t,omitempty"`
	K         float64 `json:"k,omitempty"`
	Segments  int     `json:"segments,omitempty"`
	TimeoutMS int     `json:"timeout_ms,omitempty"`
}

// PlanResponse is the deployment artifact: planned effort per region cell
// and executable routes, all in park cell ids.
type PlanResponse struct {
	Model     string    `json:"model"`
	Post      int       `json:"post"`
	Beta      float64   `json:"beta"`
	Cells     []int     `json:"cells"`
	Effort    []float64 `json:"effort"`
	Routes    [][]int   `json:"routes"`
	Objective float64   `json:"objective"`
	RuntimeMS float64   `json:"runtime_ms"`
	// Hierarchical reports whether the coarse targeting pass shaped the
	// region, which it does on parks of paws.HierAutoCells cells or more.
	Hierarchical bool `json:"hierarchical,omitempty"`
}

// ------------------------------------------------------------ /v1/simulate

// SimulateRequest asks for a closed-loop policy-comparison simulation
// (Service.Simulate): play the named patrol policies against a responsive
// poacher on one park for several seasons.
type SimulateRequest struct {
	// Park is a park spec: MFNP, QENP, SWS or rand:<seed>.
	Park string `json:"park"`
	// Seasons is the number of planning seasons (default 4, capped at 12).
	Seasons int `json:"seasons,omitempty"`
	// SeasonMonths is the months per season (default 3, capped at 12).
	SeasonMonths int `json:"season_months,omitempty"`
	// Policies names the policies to compare (default all four).
	Policies []string `json:"policies,omitempty"`
	// Attacker is "static" or "adaptive" (default adaptive).
	Attacker string `json:"attacker,omitempty"`
	// Beta is the paws policy's robustness weight (default 0.9).
	Beta float64 `json:"beta,omitempty"`
	// BudgetKM overrides the per-month patrol budget.
	BudgetKM float64 `json:"budget_km,omitempty"`
	// Seed overrides the service-wide root seed (0 keeps the default). The
	// same park, seed and worker count reproduce the report byte for byte,
	// whether run synchronously or as a job.
	Seed      int64 `json:"seed,omitempty"`
	TimeoutMS int   `json:"timeout_ms,omitempty"`
}

// SimulateResponse is the simulation report: per-policy season logs plus the
// deterministic fixed-width text rendering pawssim prints.
type SimulateResponse struct {
	*env.Report
	Text string `json:"text"`
}

// Closed-loop requests — simulations, campaign cells and env sessions —
// run the full loop, retraining the paws policy every season, so their size
// is bounded server-side.
const (
	maxSimSeasons         = 12
	maxSimSeasonMonths    = 12
	maxSimBootstrapMonths = 120
	maxSimPolicies        = 8
)

// checkSimSize is the one size check of the closed loop: every season
// count, the months per season and of the bootstrap, and the policy count
// must sit within the server caps. Zero values pass; the library defaults
// them (within the caps) and rejects negatives.
func checkSimSize(seasons []int, seasonMonths, bootstrapMonths, policies int) error {
	for _, n := range seasons {
		if n > maxSimSeasons {
			return fmt.Errorf("seasons %d exceeds the limit of %d", n, maxSimSeasons)
		}
	}
	if seasonMonths > maxSimSeasonMonths {
		return fmt.Errorf("season_months %d exceeds the limit of %d", seasonMonths, maxSimSeasonMonths)
	}
	if bootstrapMonths > maxSimBootstrapMonths {
		return fmt.Errorf("bootstrap_months %d exceeds the limit of %d", bootstrapMonths, maxSimBootstrapMonths)
	}
	if policies > maxSimPolicies {
		return fmt.Errorf("%d policies exceed the limit of %d", policies, maxSimPolicies)
	}
	return nil
}

// simulateFn validates a simulate request and lowers it to a job function
// — the single compute path behind both POST /v1/simulate (a one-shot job
// the handler waits on) and the "simulate" job kind. Progress events flow
// from inside the season loop (and the paws policy's per-season training)
// into the job's event stream.
func (s *Server) simulateFn(req SimulateRequest) (job.Fn, error) {
	if err := checkSimSize([]int{req.Seasons}, req.SeasonMonths, 0, len(req.Policies)); err != nil {
		return nil, err
	}
	cfg := paws.SimConfig{
		Park:         req.Park,
		Seasons:      req.Seasons,
		SeasonMonths: req.SeasonMonths,
		Policies:     req.Policies,
		Beta:         req.Beta,
		BudgetKM:     req.BudgetKM,
		Attacker:     req.Attacker,
	}
	// Full library-level validation at submit time: unknown park specs,
	// policies and attacker kinds, negative ranges and beta fail as a
	// structured 400 here instead of a job doomed to fail at run time.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return func(ctx context.Context, publish func(job.Event)) (any, error) {
		opts := []paws.Option{paws.WithProgress(progressPublisher(publish))}
		if req.Seed != 0 {
			opts = append(opts, paws.WithSeed(req.Seed))
		}
		rep, err := s.svc.Simulate(ctx, cfg, opts...)
		if err != nil {
			return nil, err
		}
		return SimulateResponse{Report: rep, Text: rep.Format()}, nil
	}, nil
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	// The synchronous endpoint runs a one-shot job on the same worker pool,
	// so it passes through the same admission gate as async submissions.
	if err := s.admitJob(); err != nil {
		writeErr(w, err)
		return
	}
	var req SimulateRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	fn, err := s.simulateFn(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	// One-shot job: same compute path and concurrency bound as the async
	// kind, result discarded after the response is written.
	s.metrics.jobsSubmit.With("simulate").Inc()
	resp, err := s.jobs.Run(ctx, "simulate", s.traceJobFn(r, "simulate", fn))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req PlanRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if req.Model == "" {
		req.Model = "default"
	}
	if err := checkLimits(
		limit{"radius", float64(req.Radius), maxPlanRadius},
		limit{"max_cells", float64(req.MaxCells), maxPlanCells},
		limit{"t", float64(req.T), maxPlanT},
		limit{"k", req.K, maxPlanK},
		limit{"segments", float64(req.Segments), maxPlanSegments},
	); err != nil {
		writeErr(w, err)
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	var opts []paws.Option
	if req.Radius > 0 || req.MaxCells > 0 {
		opts = append(opts, paws.WithRegionShape(req.Radius, req.MaxCells))
	}
	if req.T > 0 || req.K > 0 || req.Segments > 0 {
		opts = append(opts, paws.WithPlanHorizon(req.T, req.K, req.Segments))
	}
	res, err := s.svc.Plan(ctx, req.Model, req.Post, req.Beta, opts...)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, PlanResponse{
		Model:        res.Model,
		Post:         res.Post,
		Beta:         res.Beta,
		Cells:        res.Cells,
		Effort:       res.Effort,
		Routes:       res.Routes,
		Objective:    res.Objective,
		RuntimeMS:    res.RuntimeMS,
		Hierarchical: res.Hierarchical,
	})
}
