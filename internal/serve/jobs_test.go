package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"paws/internal/job"
)

// submitJob posts one job and returns its snapshot.
func submitJob(t *testing.T, s *Server, req JobSubmitRequest) job.Snapshot {
	t.Helper()
	var snap job.Snapshot
	status, raw := do(t, s, http.MethodPost, "/v1/jobs", req, nil)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", status, raw)
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("submit: bad snapshot %s: %v", raw, err)
	}
	if snap.ID == "" {
		t.Fatalf("submit: empty job id: %s", raw)
	}
	return snap
}

// pollJob polls the snapshot endpoint until the job is terminal.
func pollJob(t *testing.T, s *Server, id string) job.Snapshot {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var snap job.Snapshot
		status, raw := do(t, s, http.MethodGet, "/v1/jobs/"+id, nil, &snap)
		if status != http.StatusOK {
			t.Fatalf("poll %s: status %d, body %s", id, status, raw)
		}
		if snap.State.Terminal() {
			return snap
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return job.Snapshot{}
}

// fastSim is a small deterministic simulate request: a procedural park and
// two non-training policies, so the job finishes in well under a second.
func fastSim(seasons int) *SimulateRequest {
	return &SimulateRequest{
		Park:     "rand:16",
		Seasons:  seasons,
		Policies: []string{"uniform", "historical"},
		Seed:     99,
	}
}

// TestJobResultMatchesSyncSimulate is the tentpole acceptance check: a
// simulate job run to completion stores a result byte-identical to the
// synchronous /v1/simulate response for the same park spec, seed and
// worker count.
func TestJobResultMatchesSyncSimulate(t *testing.T) {
	s := testServer(t, Config{})
	status, syncRaw := do(t, s, http.MethodPost, "/v1/simulate", fastSim(2), nil)
	if status != http.StatusOK {
		t.Fatalf("sync simulate: status %d, body %s", status, syncRaw)
	}
	snap := submitJob(t, s, JobSubmitRequest{Kind: "simulate", Simulate: fastSim(2)})
	if final := pollJob(t, s, snap.ID); final.State != job.StateDone {
		t.Fatalf("job ended %s: %+v", final.State, final)
	}
	status, asyncRaw := do(t, s, http.MethodGet, "/v1/jobs/"+snap.ID+"/result", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("result: status %d, body %s", status, asyncRaw)
	}
	if !bytes.Equal(syncRaw, asyncRaw) {
		t.Fatalf("async result diverged from sync response:\nsync:  %s\nasync: %s", syncRaw, asyncRaw)
	}
}

// TestJobEventsPerSeason asserts the progress contract: a multi-season
// simulate job emits at least one "season" event per season (here, one per
// policy per season), streamed as replayable NDJSON.
func TestJobEventsPerSeason(t *testing.T) {
	s := testServer(t, Config{})
	const seasons = 3
	snap := submitJob(t, s, JobSubmitRequest{Kind: "simulate", Simulate: fastSim(seasons)})
	if final := pollJob(t, s, snap.ID); final.State != job.StateDone {
		t.Fatalf("job ended %s", final.State)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+snap.ID+"/events", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("events: status %d, body %s", rec.Code, rec.Body.Bytes())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content-type %q", ct)
	}
	perPolicySeasons := map[string]int{}
	var states []string
	var events []job.Event
	sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
	for sc.Scan() {
		var e job.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
		switch e.Stage {
		case "season":
			if e.Total != seasons {
				t.Fatalf("season event with total %d, want %d: %+v", e.Total, seasons, e)
			}
			perPolicySeasons[e.Item]++
		case "state":
			states = append(states, e.Item)
		}
	}
	for i, e := range events {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d (stream must be dense)", i, e.Seq)
		}
	}
	for _, policy := range []string{"uniform", "historical"} {
		if perPolicySeasons[policy] < seasons {
			t.Fatalf("policy %s emitted %d season events, want ≥ %d (events: %+v)",
				policy, perPolicySeasons[policy], seasons, events)
		}
	}
	if len(states) < 2 || states[0] != "running" || states[len(states)-1] != "done" {
		t.Fatalf("lifecycle events %v, want running…done", states)
	}
	// Replay from an offset returns exactly the tail.
	req = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/jobs/%s/events?from=%d", snap.ID, len(events)-1), nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if got := strings.Count(strings.TrimSpace(rec.Body.String()), "\n") + 1; got != 1 {
		t.Fatalf("replay tail has %d lines: %q", got, rec.Body.String())
	}
}

// TestJobCancelMidRunNoLeaks cancels a heavy simulate job mid-run and
// requires the canceled terminal state, the canceled error code on the
// result, and no leaked goroutines once the work drains.
func TestJobCancelMidRunNoLeaks(t *testing.T) {
	s := testServer(t, Config{})
	before := runtime.NumGoroutine()
	// The paws policy retrains every season: long enough to cancel mid-run.
	snap := submitJob(t, s, JobSubmitRequest{Kind: "simulate", Simulate: &SimulateRequest{
		Park:     "MFNP",
		Seasons:  8,
		Policies: []string{"paws"},
	}})
	// Wait until it is actually running (first lifecycle event published).
	deadline := time.Now().Add(30 * time.Second)
	for {
		var cur job.Snapshot
		do(t, s, http.MethodGet, "/v1/jobs/"+snap.ID, nil, &cur)
		if cur.State == job.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}
	status, raw := do(t, s, http.MethodDelete, "/v1/jobs/"+snap.ID, nil, nil)
	if status != http.StatusOK {
		t.Fatalf("cancel: status %d, body %s", status, raw)
	}
	final := pollJob(t, s, snap.ID)
	if final.State != job.StateCanceled {
		t.Fatalf("state after cancel %s, want canceled", final.State)
	}
	var e errorResponse
	status, raw = do(t, s, http.MethodGet, "/v1/jobs/"+snap.ID+"/result", nil, nil)
	if err := json.Unmarshal(raw, &e); err != nil || status != 499 || e.Error.Code != CodeCanceled {
		t.Fatalf("canceled result: status %d, body %s", status, raw)
	}
	// All compute goroutines must drain (internal/par never leaks workers).
	for end := time.Now().Add(10 * time.Second); ; {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("goroutines leaked after cancel: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestJobEventsSurviveClientDisconnect streams over a real TCP server,
// drops the client mid-stream, and requires the job to keep running to
// completion with its full event log intact.
func TestJobEventsSurviveClientDisconnect(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	body, err := json.Marshal(JobSubmitRequest{Kind: "simulate", Simulate: fastSim(3)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var snap job.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Open the stream, read one line, then hang up.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+snap.ID+"/events", nil)
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(stream.Body)
	if _, err := r.ReadString('\n'); err != nil {
		t.Fatalf("reading first event: %v", err)
	}
	cancel()
	stream.Body.Close()

	final := pollJob(t, s, snap.ID)
	if final.State != job.StateDone {
		t.Fatalf("job ended %s after client disconnect, want done", final.State)
	}
	// A fresh subscriber can replay the whole stream afterwards.
	full, err := http.Get(ts.URL + "/v1/jobs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer full.Body.Close()
	var got int
	sc := bufio.NewScanner(full.Body)
	for sc.Scan() {
		got++
	}
	if got != final.Events {
		t.Fatalf("replay after disconnect has %d events, snapshot says %d", got, final.Events)
	}
}

// TestTrainJobRegistersModel drives remote train→serve: a train job
// completes, its model appears in /v1/models, and /v1/predict answers
// against it.
func TestTrainJobRegistersModel(t *testing.T) {
	s := testServer(t, Config{})
	snap := submitJob(t, s, JobSubmitRequest{Kind: "train", Train: &TrainJobRequest{
		Name:       "remote",
		Park:       "rand:16",
		Kind:       "DTB-iW",
		Seed:       3,
		Thresholds: 3,
		Members:    3,
	}})
	if final := pollJob(t, s, snap.ID); final.State != job.StateDone {
		t.Fatalf("train job ended %s: %+v", final.State, final)
	}
	var res TrainJobResponse
	status, raw := do(t, s, http.MethodGet, "/v1/jobs/"+snap.ID+"/result", nil, &res)
	if status != http.StatusOK {
		t.Fatalf("train result: status %d, body %s", status, raw)
	}
	if res.Name != "remote" || res.Kind != "DTB-iW" || res.FeatureDim <= 1 || res.TrainPoints == 0 {
		t.Fatalf("train result %+v", res)
	}
	if res.AUC < 0 || res.AUC > 1 {
		t.Fatalf("AUC %v out of range", res.AUC)
	}
	// Discovery lists it with its serving context.
	var models modelsResponse
	if status, raw := do(t, s, http.MethodGet, "/v1/models", nil, &models); status != http.StatusOK {
		t.Fatalf("models: status %d, body %s", status, raw)
	}
	found := false
	for _, mi := range models.Models {
		if mi.Name == "remote" {
			found = true
			if mi.Kind != "DTB-iW" || mi.Park != "rand-16" || mi.Cells <= 0 || mi.FeatureDim != res.FeatureDim || mi.Generation != res.Generation {
				t.Fatalf("model info %+v vs train result %+v", mi, res)
			}
		}
	}
	if !found {
		t.Fatalf("trained model missing from discovery: %+v", models)
	}
	// And it serves.
	var pr PredictResponse
	status, raw = do(t, s, http.MethodPost, "/v1/predict",
		PredictRequest{Model: "remote", Effort: 1.5, Cells: []int{0, 1, 2}}, &pr)
	if status != http.StatusOK || len(pr.Probs) != 3 {
		t.Fatalf("predict against trained model: status %d, body %s", status, raw)
	}
}

// TestRiskMapJobMatchesSync runs the riskmap kind and compares it to the
// synchronous endpoint (same compute path, shared LRU).
func TestRiskMapJobMatchesSync(t *testing.T) {
	s := testServer(t, Config{})
	snap := submitJob(t, s, JobSubmitRequest{Kind: "riskmap", RiskMap: &RiskMapRequest{Model: "default", Effort: 3.5}})
	if final := pollJob(t, s, snap.ID); final.State != job.StateDone {
		t.Fatalf("riskmap job ended %s", final.State)
	}
	var async RiskMapResponse
	if status, raw := do(t, s, http.MethodGet, "/v1/jobs/"+snap.ID+"/result", nil, &async); status != http.StatusOK {
		t.Fatalf("result: status %d, body %s", status, raw)
	}
	var sync RiskMapResponse
	if status, _ := do(t, s, http.MethodGet, "/v1/riskmap?model=default&effort=3.5", nil, &sync); status != http.StatusOK {
		t.Fatal("sync riskmap failed")
	}
	if len(sync.Risk) != len(async.Risk) {
		t.Fatalf("shape mismatch: %d vs %d", len(sync.Risk), len(async.Risk))
	}
	for i := range sync.Risk {
		if sync.Risk[i] != async.Risk[i] || sync.Uncertainty[i] != async.Uncertainty[i] {
			t.Fatalf("cell %d diverged: %v/%v vs %v/%v", i, sync.Risk[i], sync.Uncertainty[i], async.Risk[i], async.Uncertainty[i])
		}
	}
	if !sync.Cached {
		t.Fatal("sync riskmap after the job should hit the shared LRU")
	}
}

// TestTable2JobRuns exercises the table2 kind end to end with a single
// cheap cell.
func TestTable2JobRuns(t *testing.T) {
	s := testServer(t, Config{})
	snap := submitJob(t, s, JobSubmitRequest{Kind: "table2", Table2: &Table2JobRequest{
		Park:       "rand:16",
		Kinds:      []string{"DTB"},
		Seed:       5,
		Members:    3,
		Thresholds: 3,
	}})
	if final := pollJob(t, s, snap.ID); final.State != job.StateDone {
		t.Fatalf("table2 job ended %s: %+v", final.State, final)
	}
	var res Table2JobResponse
	if status, raw := do(t, s, http.MethodGet, "/v1/jobs/"+snap.ID+"/result", nil, &res); status != http.StatusOK {
		t.Fatalf("result: status %d, body %s", status, raw)
	}
	if res.Park != "rand:16" || len(res.Rows) == 0 {
		t.Fatalf("table2 result %+v", res)
	}
	for _, row := range res.Rows {
		if row.Kind != "DTB" || row.AUC < 0 || row.AUC > 1 {
			t.Fatalf("bad row %+v", row)
		}
	}
	// The sweep reported per-cell progress.
	var cells int
	evReq := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+snap.ID+"/events", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, evReq)
	scn := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
	for scn.Scan() {
		var e job.Event
		if err := json.Unmarshal(scn.Bytes(), &e); err == nil && e.Stage == "cell" {
			cells++
		}
	}
	if cells == 0 {
		t.Fatalf("table2 job emitted no cell events: %s", rec.Body.String())
	}
}

// TestTrainingJobCaps: a train or table2 body with one training override
// one above its cap is rejected at submit time with the bad_request
// envelope, and no job is queued. Each body asks for a plain-kind job on a
// small procedural park, so a build without the caps runs it in seconds.
func TestTrainingJobCaps(t *testing.T) {
	s := testServer(t, Config{})
	train := func(r TrainJobRequest) JobSubmitRequest {
		r.Name, r.Park, r.Kind = "x", "rand:16", "DTB"
		return JobSubmitRequest{Kind: "train", Train: &r}
	}
	table2 := func(r Table2JobRequest) JobSubmitRequest {
		r.Park = "rand:16"
		if r.Kinds == nil {
			r.Kinds = []string{"DTB"}
		}
		return JobSubmitRequest{Kind: "table2", Table2: &r}
	}
	for _, tc := range []struct {
		name string
		req  JobSubmitRequest
	}{
		{"train thresholds", train(TrainJobRequest{Thresholds: maxTrainThresholds + 1})},
		{"train members", train(TrainJobRequest{Members: maxTrainMembers + 1})},
		{"train cv_folds", train(TrainJobRequest{CVFolds: maxTrainCVFolds + 1})},
		{"table2 thresholds", table2(Table2JobRequest{Thresholds: maxTrainThresholds + 1})},
		{"table2 members", table2(Table2JobRequest{Members: maxTrainMembers + 1})},
		{"table2 kinds", table2(Table2JobRequest{Kinds: slices.Repeat([]string{"DTB"}, maxTable2Kinds+1)})},
		{"table2 test_years", table2(Table2JobRequest{TestYears: make([]int, maxTable2TestYears+1)})},
	} {
		status, raw := do(t, s, http.MethodPost, "/v1/jobs", tc.req, nil)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s", tc.name, status, raw)
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(raw, &er); err != nil || er.Error.Code != CodeBadRequest {
			t.Errorf("%s: envelope %s", tc.name, raw)
		}
	}
	var list jobListResponse
	if status, _ := do(t, s, http.MethodGet, "/v1/jobs", nil, &list); status != http.StatusOK || len(list.Jobs) != 0 {
		t.Fatalf("rejected submissions left jobs: %+v", list.Jobs)
	}
}

// TestJobResultConflictWhileRunning asserts the envelope for early result
// fetches and the job listing endpoint.
func TestJobResultConflictWhileRunning(t *testing.T) {
	s := testServer(t, Config{})
	snap := submitJob(t, s, JobSubmitRequest{Kind: "simulate", Simulate: &SimulateRequest{
		Park:     "MFNP",
		Seasons:  6,
		Policies: []string{"paws"},
	}})
	defer func() {
		do(t, s, http.MethodDelete, "/v1/jobs/"+snap.ID, nil, nil)
		pollJob(t, s, snap.ID)
	}()
	status, raw := do(t, s, http.MethodGet, "/v1/jobs/"+snap.ID+"/result", nil, nil)
	var e errorResponse
	if err := json.Unmarshal(raw, &e); err != nil || status != http.StatusConflict || e.Error.Code != CodeConflict {
		t.Fatalf("early result: status %d, body %s", status, raw)
	}
	var list jobListResponse
	if status, _ := do(t, s, http.MethodGet, "/v1/jobs", nil, &list); status != http.StatusOK {
		t.Fatal("job list failed")
	}
	found := false
	for _, j := range list.Jobs {
		found = found || j.ID == snap.ID
	}
	if !found {
		t.Fatalf("submitted job missing from listing: %+v", list.Jobs)
	}
}

// TestServerCloseDrainsJobs is the graceful-shutdown contract: Close stops
// submissions and lets running jobs finish.
func TestServerCloseDrainsJobs(t *testing.T) {
	// A dedicated server so closing it does not affect the shared fixture.
	s := New(testService(t), Config{JobWorkers: 2})
	snap := submitJob(t, s, JobSubmitRequest{Kind: "simulate", Simulate: fastSim(2)})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	var final job.Snapshot
	if status, raw := do(t, s, http.MethodGet, "/v1/jobs/"+snap.ID, nil, &final); status != http.StatusOK {
		t.Fatalf("snapshot after close: %d %s", status, raw)
	}
	if final.State != job.StateDone {
		t.Fatalf("drained job state %s, want done", final.State)
	}
	status, raw := do(t, s, http.MethodPost, "/v1/jobs", JobSubmitRequest{Kind: "simulate", Simulate: fastSim(1)}, nil)
	var e errorResponse
	if err := json.Unmarshal(raw, &e); err != nil || status != http.StatusServiceUnavailable || e.Error.Code != CodeShuttingDown {
		t.Fatalf("submit after close: status %d, body %s", status, raw)
	}
}
