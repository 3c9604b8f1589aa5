package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"paws"
	"paws/internal/job"
	"paws/internal/store"
)

// doRec is do plus the recorder, for tests that assert on headers.
func doRec(t *testing.T, s *Server, method, path string, body any) (status int, raw []byte, rec *httptest.ResponseRecorder) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(b))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), rec
}

// doRaw drives a bare http.Handler (e.g. the standalone statusz handler).
func doRaw(t *testing.T, h http.Handler, method, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
	return rec
}

func TestStatuszReportsReplicaAndLoad(t *testing.T) {
	s := testServer(t, Config{ReplicaID: "r1", AdmissionBudget: 30 * time.Second, AdmissionMaxQueue: 8})
	var resp StatuszResponse
	status, raw := do(t, s, http.MethodGet, "/statusz", nil, &resp)
	if status != http.StatusOK {
		t.Fatalf("statusz: status %d, body %s", status, raw)
	}
	if resp.Replica != "r1" {
		t.Fatalf("replica %q, want r1", resp.Replica)
	}
	if resp.Models < 1 {
		t.Fatalf("models %d, want >= 1", resp.Models)
	}
	if resp.Admission.BudgetSeconds != 30 || resp.Admission.MaxQueue != 8 {
		t.Fatalf("admission config %+v not reported", resp.Admission)
	}
	if resp.Admission.Overloaded {
		t.Fatalf("idle replica reports overloaded: %+v", resp.Admission)
	}
	if resp.RiskMapCache.Max != 64 {
		t.Fatalf("cache max %d, want default 64", resp.RiskMapCache.Max)
	}
	// The standalone handler (pawsd mounts it on the debug listener) serves
	// the same payload.
	rec := doRaw(t, s.StatuszHandler(), http.MethodGet, "/statusz")
	if rec.Code != http.StatusOK {
		t.Fatalf("standalone statusz handler: status %d", rec.Code)
	}
}

// TestStatuszCountsCacheHits drives the same riskmap query twice and
// checks the hit/miss counters move — the measurement pawsload's
// affinity-vs-round-robin comparison is built on.
func TestStatuszCountsCacheHits(t *testing.T) {
	s := testServer(t, Config{})
	before := s.Statusz().RiskMapCache
	for i := 0; i < 2; i++ {
		var rm RiskMapResponse
		if status, raw := do(t, s, http.MethodGet, "/v1/riskmap?effort=1.25", nil, &rm); status != http.StatusOK {
			t.Fatalf("riskmap: status %d, body %s", status, raw)
		}
	}
	after := s.Statusz().RiskMapCache
	if after.Misses != before.Misses+1 {
		t.Fatalf("misses %d -> %d, want exactly one new miss", before.Misses, after.Misses)
	}
	if after.Hits != before.Hits+1 {
		t.Fatalf("hits %d -> %d, want exactly one new hit", before.Hits, after.Hits)
	}
}

// TestAdmissionControlShedsJobs fills the queue past AdmissionMaxQueue and
// checks a submission is rejected with the structured 429 + Retry-After
// contract (and that the gate reopens once the queue drains).
func TestAdmissionControlShedsJobs(t *testing.T) {
	s := testServer(t, Config{JobWorkers: 1, AdmissionMaxQueue: 1})
	release := make(chan struct{})
	blocker := func(ctx context.Context, publish func(job.Event)) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	// One running + one queued fills the queue to the bound.
	var ids []string
	for i := 0; i < 2; i++ {
		sub, err := s.jobs.Submit("block", blocker)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sub.ID)
	}
	status, raw, rec := doRec(t, s, http.MethodPost, "/v1/jobs", JobSubmitRequest{Kind: "riskmap", RiskMap: &RiskMapRequest{Effort: 1}})
	if status != http.StatusTooManyRequests {
		t.Fatalf("overloaded submit: status %d, body %s", status, raw)
	}
	var envelope errorResponse
	if err := json.Unmarshal(raw, &envelope); err != nil {
		t.Fatalf("overloaded submit: bad envelope %s: %v", raw, err)
	}
	if envelope.Error.Code != CodeOverloaded {
		t.Fatalf("error code %q, want %q (body %s)", envelope.Error.Code, CodeOverloaded, raw)
	}
	ra := rec.Header().Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", ra)
	}
	// Synchronous simulate shares the same worker pool and the same gate.
	if status, raw, _ := doRec(t, s, http.MethodPost, "/v1/simulate", fastSim(1)); status != http.StatusTooManyRequests {
		t.Fatalf("overloaded simulate: status %d, body %s", status, raw)
	}
	if !s.Statusz().Admission.Overloaded {
		t.Fatal("statusz does not report the overload")
	}
	close(release)
	for _, id := range ids {
		if _, err := s.jobs.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	snap := submitJob(t, s, JobSubmitRequest{Kind: "riskmap", RiskMap: &RiskMapRequest{Effort: 1}})
	pollJob(t, s, snap.ID)
}

// TestAdmissionBudgetBacklog exercises the backlog-estimate path of the
// admission gate directly with synthetic load stats.
func TestAdmissionBudgetBacklog(t *testing.T) {
	s := testServer(t, Config{AdmissionBudget: 10 * time.Second})
	// 3 committed jobs × 2s mean = 6s backlog: under the 10s budget.
	if err := s.admissionCheck(job.Stats{Queued: 2, Running: 1, MeanJobSeconds: 2}); err != nil {
		t.Fatalf("6s backlog under 10s budget rejected: %v", err)
	}
	// 8 committed jobs × 2s mean = 16s backlog: over budget, and the retry
	// hint covers the 6s excess.
	err := s.admissionCheck(job.Stats{Queued: 7, Running: 1, MeanJobSeconds: 2})
	if err == nil {
		t.Fatal("16s backlog over 10s budget admitted")
	}
	ov, ok := err.(*overloadedError)
	if !ok {
		t.Fatalf("admission rejection is %T, want *overloadedError", err)
	}
	if got := ov.RetryAfterSeconds(); got != 6 {
		t.Fatalf("retry-after %ds, want 6", got)
	}
	// A replica that has not completed a job yet has MeanJobSeconds 0 and a
	// zero backlog: the budget alone never rejects (the queue bound covers
	// cold starts).
	if err := s.admissionCheck(job.Stats{Queued: 100, MeanJobSeconds: 0}); err != nil {
		t.Fatalf("zero-mean backlog rejected: %v", err)
	}
}

func TestModelsReportProvenanceAndPosts(t *testing.T) {
	s := testServer(t, Config{})
	var resp modelsResponse
	if status, raw := do(t, s, http.MethodGet, "/v1/models", nil, &resp); status != http.StatusOK {
		t.Fatalf("models: status %d, body %s", status, raw)
	}
	var def *ModelInfo
	for i := range resp.Models {
		if resp.Models[i].Name == "default" {
			def = &resp.Models[i]
		}
	}
	if def == nil {
		t.Fatal("fixture model missing from /v1/models")
	}
	if def.Source != paws.SourceMemory {
		t.Fatalf("source %q, want %q", def.Source, paws.SourceMemory)
	}
	if def.Posts < 1 {
		t.Fatalf("posts %d, want >= 1", def.Posts)
	}
}

// TestTrainJobPublishesToStore is the fleet train contract at the HTTP
// layer: with a store attached, a completed train job has published its
// artifact (hash in the job result, entry in the index) so peer replicas
// can pick it up.
func TestTrainJobPublishesToStore(t *testing.T) {
	svc := paws.NewService(paws.WithWorkers(2), paws.WithSeed(7))
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc.AttachStore(st)
	s := New(svc, Config{})
	snap := submitJob(t, s, JobSubmitRequest{Kind: "train", Train: &TrainJobRequest{
		Name: "pub", Park: "rand:16", Thresholds: 4, Members: 4,
	}})
	if final := pollJob(t, s, snap.ID); final.State != job.StateDone {
		t.Fatalf("train job ended %s: %s", final.State, final.Error)
	}
	var result TrainJobResponse
	if status, raw := do(t, s, http.MethodGet, "/v1/jobs/"+snap.ID+"/result", nil, &result); status != http.StatusOK {
		t.Fatalf("result: status %d, body %s", status, raw)
	}
	if result.Hash == "" || result.StoreGeneration != 1 {
		t.Fatalf("train result not published: hash %q, store generation %d", result.Hash, result.StoreGeneration)
	}
	entry, err := st.Lookup("pub")
	if err != nil {
		t.Fatal(err)
	}
	if entry.Hash != result.Hash || entry.Park != "rand:16" || entry.Seed != 7 {
		t.Fatalf("store entry %+v does not match the train result (hash %s)", entry, result.Hash)
	}
	// /v1/models reports the published hash; the trainer's own copy stays
	// source "memory".
	var models modelsResponse
	do(t, s, http.MethodGet, "/v1/models", nil, &models)
	if len(models.Models) != 1 || models.Models[0].Hash != entry.Hash || models.Models[0].Source != paws.SourceMemory {
		t.Fatalf("models after publish: %+v", models.Models)
	}
}

// TestDrainReturnsShuttingDownNotUnknownJob is the satellite regression
// test at the HTTP layer: during a graceful drain, a client reconnecting
// to its NDJSON event stream (or any job endpoint) with a valid-but-
// drained job ID must get 503 shutting_down, not 404 unknown_job — a 404
// would tell a client holding a real ID that its job never existed.
func TestDrainReturnsShuttingDownNotUnknownJob(t *testing.T) {
	s := testServer(t, Config{})
	snap := submitJob(t, s, JobSubmitRequest{Kind: "riskmap", RiskMap: &RiskMapRequest{Effort: 1}})
	pollJob(t, s, snap.ID)
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The finished job is still retained: its endpoints keep working during
	// the drain window.
	if status, raw := do(t, s, http.MethodGet, "/v1/jobs/"+snap.ID, nil, nil); status != http.StatusOK {
		t.Fatalf("retained job during drain: status %d, body %s", status, raw)
	}
	// A drained/unknown ID reports the shutdown, on the snapshot endpoint
	// and on an event-stream reconnect.
	for _, path := range []string{"/v1/jobs/j-999999", "/v1/jobs/j-999999/events?from=3"} {
		status, raw := do(t, s, http.MethodGet, path, nil, nil)
		if status != http.StatusServiceUnavailable {
			t.Fatalf("GET %s during drain: status %d, body %s", path, status, raw)
		}
		var envelope errorResponse
		if err := json.Unmarshal(raw, &envelope); err != nil {
			t.Fatalf("GET %s during drain: bad envelope %s: %v", path, raw, err)
		}
		if envelope.Error.Code != CodeShuttingDown {
			t.Fatalf("GET %s during drain: code %q, want %q", path, envelope.Error.Code, CodeShuttingDown)
		}
	}
}
