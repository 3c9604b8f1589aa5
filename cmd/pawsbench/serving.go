package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"time"

	"paws"
	"paws/internal/dataset"
	"paws/internal/job"
	"paws/internal/load"
	"paws/internal/obs"
	"paws/internal/serve"
)

// baseURL addresses the in-process handler; no request ever leaves the
// process (handlerTransport serves it).
const baseURL = "http://pawsbench"

// handlerTransport is an http.RoundTripper that serves each request with an
// in-process handler, so the real serve.New handler — routing, JSON, LRU,
// job layer and its tracing middleware — runs without sockets. observe, when
// set, sees every exchange after the handler has answered.
type handlerTransport struct {
	h       http.Handler
	observe func(r *http.Request, reqBody []byte, code int, body []byte)
}

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	req := r.Clone(r.Context())
	var reqBody []byte
	if r.Body != nil {
		b, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			return nil, err
		}
		reqBody = b
		req.Body = io.NopCloser(bytes.NewReader(b))
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	if t.observe != nil {
		t.observe(req, reqBody, rec.Code, rec.Body.Bytes())
	}
	return rec.Result(), nil
}

// mfnpService is the service `pawsd -scale full -train` builds: MFNP at full
// scale, GPB-iW, seed 7, a three-year training window.
func mfnpService() *paws.Service {
	return paws.NewService(paws.WithSeed(7), paws.WithKind(paws.GPBiW),
		paws.WithPreset("MFNP", paws.ScaleFull), paws.WithTrainYears(3))
}

// registerMFNP trains and registers the "default" model the way pawsd does
// at start-up, timing each stage into s. It returns the model and the
// held-out points of its test year.
func registerMFNP(ctx context.Context, svc *paws.Service, s samples) (*paws.Model, []dataset.Point, error) {
	t := time.Now()
	sc, err := svc.Scenario(ctx, "MFNP")
	if err != nil {
		return nil, nil, err
	}
	s.add("geo.scenario_ms", msSince(t))
	testYear := sc.Data.Steps[len(sc.Data.Steps)-1].Year
	split, err := sc.Data.SplitByTestYear(testYear, 3)
	if err != nil {
		return nil, nil, err
	}
	t = time.Now()
	m, err := svc.Train(ctx, split.Train)
	if err != nil {
		return nil, nil, err
	}
	s.add("iware.train_ms", msSince(t))
	testFrom, _ := sc.Data.StepsForYear(testYear)
	t = time.Now()
	if _, err := svc.AddModel(ctx, "default", m, sc.Data, testFrom-1); err != nil {
		return nil, nil, err
	}
	s.add("paws.register_ms", msSince(t))
	return m, split.Test, nil
}

// canonicalPlan re-encodes a /v1/plan response without its solve time, the
// one field that legitimately differs between identical plans.
func canonicalPlan(body []byte) ([]byte, error) {
	var p serve.PlanResponse
	if err := json.Unmarshal(body, &p); err != nil {
		return nil, fmt.Errorf("plan response: %w", err)
	}
	p.RuntimeMS = 0
	return json.Marshal(p)
}

// riskmapHash digests a /v1/riskmap response with its cache flag cleared,
// so a cached answer and a computed one hash alike.
func riskmapHash(body []byte) [32]byte {
	return sha256.Sum256(bytes.Replace(body, []byte(`"cached":true`), []byte(`"cached":false`), 1))
}

// ------------------------------------------------------------- serve-warm

// Serve-warm load shape: open loop at warmRate requests/s from at most
// warmConcurrency in flight (= the container's two CPUs), over the mix
// below. warmEfforts is load.Run's default effort set, which the set-up
// puts in the riskmap LRU.
const (
	warmRate        = 60
	warmConcurrency = 2
)

var (
	warmEfforts = []float64{1, 1.5, 2, 2.5}
	warmWeights = map[string]int{"predict": 5, "riskmap": 5, "plan": 2}
)

// warmChecker checks every response the load produces against the
// references the set-up recorded: plans per post and maps per effort must
// be byte-identical (ignoring runtime_ms and cached); predictions are kept
// and recomputed directly after the run.
type warmChecker struct {
	mu sync.Mutex
	// recording makes the observed plans and maps the references instead
	// of checking them.
	recording  bool
	plans      map[int][]byte
	maps       map[float64][32]byte
	predicts   []predictSample
	mismatches []string
}

type predictSample struct {
	cells  []int
	effort float64
	probs  []float64
}

func newWarmChecker() *warmChecker {
	return &warmChecker{plans: map[int][]byte{}, maps: map[float64][32]byte{}}
}

func (c *warmChecker) observe(r *http.Request, reqBody []byte, code int, body []byte) {
	if code != http.StatusOK {
		return // load.Run counts the error
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch r.URL.Path {
	case "/v1/plan":
		var req serve.PlanRequest
		canon, err := canonicalPlan(body)
		if err == nil {
			err = json.Unmarshal(reqBody, &req)
		}
		if err != nil {
			c.mismatches = append(c.mismatches, err.Error())
			return
		}
		switch ref, ok := c.plans[req.Post]; {
		case c.recording:
			c.plans[req.Post] = canon
		case !ok || !bytes.Equal(ref, canon):
			c.mismatches = append(c.mismatches, fmt.Sprintf("plan post %d differs from the set-up reference", req.Post))
		}
	case "/v1/riskmap":
		effort, err := strconv.ParseFloat(r.URL.Query().Get("effort"), 64)
		if err != nil {
			c.mismatches = append(c.mismatches, err.Error())
			return
		}
		h := riskmapHash(body)
		switch ref, ok := c.maps[effort]; {
		case c.recording:
			c.maps[effort] = h
		case !ok || ref != h:
			c.mismatches = append(c.mismatches, fmt.Sprintf("riskmap effort %g differs from the set-up reference", effort))
		}
	case "/v1/predict":
		var req serve.PredictRequest
		var resp serve.PredictResponse
		if json.Unmarshal(reqBody, &req) != nil || json.Unmarshal(body, &resp) != nil {
			c.mismatches = append(c.mismatches, "undecodable predict exchange")
			return
		}
		c.predicts = append(c.predicts, predictSample{req.Cells, req.Effort, resp.Probs})
	}
}

// warmUp fills the riskmap LRU at every load effort and the plan memo at
// every post, through the handler, as the set-up of serve-warm.
func warmUp(ctx context.Context, client *http.Client, posts int, s samples) error {
	for _, e := range warmEfforts {
		t := time.Now()
		if _, err := httpDo(ctx, client, http.MethodGet, fmt.Sprintf("/v1/riskmap?model=default&effort=%g", e), nil); err != nil {
			return err
		}
		s.add("serve.riskmap_cold_ms", msSince(t))
	}
	for p := 0; p < posts; p++ {
		t := time.Now()
		if _, err := httpDo(ctx, client, http.MethodPost, "/v1/plan", serve.PlanRequest{Model: "default", Post: p, Beta: 0.9}); err != nil {
			return err
		}
		s.add("serve.plan_cold_ms", msSince(t))
	}
	return nil
}

// runServeWarm measures steady interactive serving: a trained, registered
// model with warm caches, under open-loop predict/riskmap/plan traffic.
func runServeWarm(ctx context.Context, r *runner) error {
	chk := newWarmChecker()
	var svc *paws.Service
	var client *http.Client
	var srv *serve.Server
	err := r.setup(func(i int) error {
		if srv != nil {
			srv.Close(ctx)
		}
		svc = mfnpService()
		if _, _, err := registerMFNP(ctx, svc, r.s); err != nil {
			return err
		}
		srv = serve.New(svc, serve.Config{})
		client = &http.Client{Transport: handlerTransport{h: srv, observe: chk.observe}}
		sm, _ := svc.Served("default")
		chk.recording = i == 0
		return warmUp(ctx, client, len(sm.Park().Posts), r.s)
	})
	if err != nil {
		return err
	}
	defer srv.Close(ctx)
	for p := 0; p < len(chk.plans); p++ {
		r.reference(fmt.Sprintf("plan %d", p), chk.plans[p])
	}
	for _, e := range warmEfforts {
		h := chk.maps[e]
		r.reference(fmt.Sprintf("riskmap %g", e), h[:])
	}

	res, err := load.Run(ctx, load.Config{
		BaseURL:     baseURL,
		Label:       "serve-warm",
		Rate:        warmRate,
		Duration:    r.seconds,
		Concurrency: warmConcurrency,
		Seed:        r.seed,
		Model:       "default",
		Efforts:     warmEfforts,
		Weights:     warmWeights,
		Client:      client,
	})
	if err != nil {
		return err
	}
	// op_ms weighs each endpoint's p50 by its share of the nominal mix, not
	// by the drawn request counts, so every seed weighs the endpoints alike.
	var weighted, weights float64
	for _, kind := range []string{"predict", "riskmap", "plan"} {
		st := res.Endpoints[kind]
		r.attempted += st.Requests
		for i := 0; i < st.Errors+st.Shed; i++ {
			r.fail("%s request failed or was shed", kind)
		}
		weighted += float64(warmWeights[kind]) * st.P50MS
		weights += float64(warmWeights[kind])
		r.s.add("serve."+kind+"_p50_ms", st.P50MS)
		r.s.add("serve."+kind+"_p95_ms", st.P95MS)
		r.s.add("serve."+kind+"_n", float64(st.Requests))
	}
	r.s.add("op_ms", weighted/weights)
	r.s.add("serve.riskmap_hit_rate", res.RiskMapCacheHitRate)
	r.s.add("load.overrun_s", res.DurationSeconds-r.seconds.Seconds())

	for _, m := range chk.mismatches {
		r.fail("%s", m)
	}
	for _, p := range chk.predicts {
		want, err := svc.PredictCells(ctx, "default", p.cells, p.effort)
		if err != nil || !slices.Equal(want, p.probs) {
			r.fail("predict cells %v effort %g differs from Service.PredictCells", p.cells, p.effort)
		}
	}
	if r.trace {
		return warmDirect(ctx, r, svc)
	}
	return nil
}

// warmDirect is the traced run's extra phase: the same warm queries as
// direct Service calls, so the HTTP share of each serve.* latency is the
// difference, and warm plans under a trace give the solve/routes split.
// Untraced and traced plans alternate; their medians give
// trace.overhead_pct.
func warmDirect(ctx context.Context, r *runner, svc *paws.Service) error {
	sm, _ := svc.Served("default")
	cells := make([]int, 8)
	for i := range cells {
		cells[i] = i * sm.Park().Grid.NumCells() / len(cells)
	}
	var plain, traced []float64
	for round := 0; round < 3; round++ {
		for _, e := range warmEfforts {
			t := time.Now()
			if _, err := svc.PredictCells(ctx, "default", cells, e); err != nil {
				return err
			}
			r.s.add("paws.predict_ms", msSince(t))
			t = time.Now()
			if _, _, err := svc.RiskMaps(ctx, "default", e); err != nil {
				return err
			}
			r.s.add("paws.riskmap_warm_ms", msSince(t))
		}
		for p := range sm.Park().Posts {
			t := time.Now()
			if _, err := svc.Plan(ctx, "default", p, 0.9); err != nil {
				return err
			}
			plain = append(plain, msSince(t))
			t = time.Now()
			spans, err := collectSpans(ctx, func(ctx context.Context) error {
				_, err := svc.Plan(ctx, "default", p, 0.9)
				return err
			})
			if err != nil {
				return err
			}
			traced = append(traced, msSince(t))
			addSpans(r.s, spans, map[string]string{"solve": "plan.solve_ms", "routes": "plan.routes_ms"})
		}
	}
	r.overhead(plain, traced)
	return nil
}

// ---------------------------------------------------------------- refresh

// refreshTrain is the train job each refresh cycle submits: the same model
// the serve-warm set-up trains, re-registered under the served name.
var refreshTrain = serve.TrainJobRequest{Name: "default", Park: "MFNP", Scale: "full", Kind: "GPB-iW", Seed: 7}

// refreshPoll is how often a cycle polls its train job.
const refreshPoll = 5 * time.Millisecond

// runRefresh measures the write path: each cycle retrains and re-registers
// the served model through the job API, which invalidates the riskmap LRU
// and the plan memo, then reads a cold riskmap and a cold plan.
func runRefresh(ctx context.Context, r *runner) error {
	var client *http.Client
	var srv *serve.Server
	err := r.setup(func(int) error {
		if srv != nil {
			srv.Close(ctx)
		}
		svc := mfnpService()
		m, test, err := registerMFNP(ctx, svc, r.s)
		if err != nil {
			return err
		}
		// A train job also scores its model on the held-out year.
		t := time.Now()
		m.AUC(test)
		r.s.add("paws.auc_ms", msSince(t))
		srv = serve.New(svc, serve.Config{TraceCapacity: 256})
		client = &http.Client{Transport: handlerTransport{h: srv}}
		return nil
	})
	if err != nil {
		return err
	}
	defer srv.Close(ctx)

	// The seed picks the post of the cold plan. A cold plan's cost is its
	// memo fill, which differs little between posts.
	post := int(uint64(r.seed) % 8)
	var refTrain, refPlan []byte
	var refMap [32]byte
	op := func(ctx context.Context, i int) error {
		train, err := refreshTrainCycle(ctx, client, r.s)
		if err != nil {
			return err
		}
		t := time.Now()
		mapResp, err := httpDo(ctx, client, http.MethodGet, "/v1/riskmap?model=default&effort=2", nil)
		if err != nil {
			return err
		}
		r.s.add("serve.riskmap_cold_ms", msSince(t))
		t = time.Now()
		planResp, err := httpDo(ctx, client, http.MethodPost, "/v1/plan", serve.PlanRequest{Model: "default", Post: post, Beta: 0.9})
		if err != nil {
			return err
		}
		r.s.add("serve.plan_cold_ms", msSince(t))

		if bytes.Contains(mapResp.body, []byte(`"cached":true`)) {
			return fmt.Errorf("cycle %d: riskmap served from cache after a retrain", i)
		}
		plan, err := canonicalPlan(planResp.body)
		if err != nil {
			return err
		}
		if i == 0 {
			refTrain, refMap, refPlan = train, riskmapHash(mapResp.body), plan
			r.reference("train", train)
			r.reference("riskmap 2", refMap[:])
			r.reference(fmt.Sprintf("plan %d", post), plan)
		} else if !bytes.Equal(train, refTrain) || riskmapHash(mapResp.body) != refMap || !bytes.Equal(plan, refPlan) {
			return fmt.Errorf("cycle %d: train result, riskmap or plan differs from cycle 0", i)
		}
		if obs.TraceFrom(ctx) != nil {
			return serverSpans(ctx, client, r.s, map[string]map[string]string{
				mapResp.trace:  {"riskmap": "paws.riskmap_cold_ms"},
				planResp.trace: {"solve": "plan.solve_cold_ms", "routes": "plan.routes_ms"},
			})
		}
		return nil
	}
	r.loop(ctx, 1, op, nil)
	return nil
}

// refreshTrainCycle submits the train job, polls it to completion and
// returns its result with the registration generation cleared (the one
// field that must change every cycle).
func refreshTrainCycle(ctx context.Context, client *http.Client, s samples) ([]byte, error) {
	sub, err := httpDo(ctx, client, http.MethodPost, "/v1/jobs", serve.JobSubmitRequest{Kind: "train", Train: &refreshTrain})
	if err != nil {
		return nil, err
	}
	var snap job.Snapshot
	if err := json.Unmarshal(sub.body, &snap); err != nil {
		return nil, err
	}
	for !snap.State.Terminal() {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(refreshPoll):
		}
		got, err := httpDo(ctx, client, http.MethodGet, "/v1/jobs/"+snap.ID, nil)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(got.body, &snap); err != nil {
			return nil, err
		}
	}
	if snap.State != job.StateDone {
		return nil, fmt.Errorf("train job %s ended %s: %s", snap.ID, snap.State, snap.Error)
	}
	s.add("job.queue_ms", float64(snap.Started.Sub(snap.Created))/float64(time.Millisecond))
	s.add("job.run_ms", float64(snap.Finished.Sub(snap.Started))/float64(time.Millisecond))
	res, err := httpDo(ctx, client, http.MethodGet, "/v1/jobs/"+snap.ID+"/result", nil)
	if err != nil {
		return nil, err
	}
	var tr serve.TrainJobResponse
	if err := json.Unmarshal(res.body, &tr); err != nil {
		return nil, err
	}
	tr.Generation = 0
	return json.Marshal(tr)
}

// serverSpans reads the handler's /tracez ring and adds the spans of the
// given request traces to s, renamed per trace by the given map.
func serverSpans(ctx context.Context, client *http.Client, s samples, want map[string]map[string]string) error {
	got, err := httpDo(ctx, client, http.MethodGet, "/tracez", nil)
	if err != nil {
		return err
	}
	var tz obs.TracezResponse
	if err := json.Unmarshal(got.body, &tz); err != nil {
		return err
	}
	for _, tr := range tz.Traces {
		if names, ok := want[tr.TraceID]; ok {
			addSpans(s, tr.Spans, names)
		}
	}
	return nil
}

// exchange is one answered request: its body and server trace ID.
type exchange struct {
	body  []byte
	trace string
}

// httpDo sends one request (a JSON body when in is non-nil) and fails on a
// non-2xx answer.
func httpDo(ctx context.Context, client *http.Client, method, path string, in any) (exchange, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return exchange{}, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, baseURL+path, body)
	if err != nil {
		return exchange{}, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return exchange{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return exchange{}, err
	}
	if resp.StatusCode/100 != 2 {
		return exchange{}, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return exchange{body: b, trace: resp.Header.Get(obs.TraceHeader)}, nil
}
