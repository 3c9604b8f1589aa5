package gate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"paws"
	"paws/internal/serve"
)

// stub is a fake replica: it answers /statusz like pawsd, mints job IDs
// prefixed with its replica name, and records every other request it
// receives.
type stub struct {
	name   string
	queued int

	mu   sync.Mutex
	hits map[string]int

	ts *httptest.Server
}

func newStub(t *testing.T, name string, queued int) *stub {
	s := &stub{name: name, queued: queued, hits: map[string]int{}}
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/statusz" {
			fmt.Fprintf(w, `{"replica":%q,"jobs":{"queued":%d,"running":0,"mean_job_seconds":1}}`, s.name, s.queued)
			return
		}
		s.mu.Lock()
		s.hits[r.URL.Path]++
		s.mu.Unlock()
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, `{"id":"j-%s-000042","kind":"riskmap","state":"queued"}`, s.name)
			return
		}
		fmt.Fprint(w, `{"ok":true}`)
	}))
	t.Cleanup(s.ts.Close)
	return s
}

func (s *stub) count(path string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits[path]
}

func (s *stub) total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.hits {
		n += c
	}
	return n
}

func newGate(t *testing.T, affinity bool, stubs ...*stub) *Gate {
	t.Helper()
	urls := make([]string, len(stubs))
	for i, s := range stubs {
		urls[i] = s.ts.URL
	}
	g, err := New(Config{Backends: urls, Affinity: affinity})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// roundTrip drives one request through the gate handler.
func roundTrip(t *testing.T, g *Gate, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body == nil {
		rd = bytes.NewReader(nil)
	} else {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec
}

// TestAffinityPinsRepeatKeys: with affinity on, one riskmap key always
// lands on the same replica (so its LRU accumulates hits), while distinct
// keys spread across the fleet; with affinity off the same repeats
// round-robin.
func TestAffinityPinsRepeatKeys(t *testing.T) {
	a, b := newStub(t, "a", 0), newStub(t, "b", 0)
	g := newGate(t, true, a, b)
	for i := 0; i < 8; i++ {
		if rec := roundTrip(t, g, http.MethodGet, "/v1/riskmap?effort=1.5", nil); rec.Code != http.StatusOK {
			t.Fatalf("riskmap via gate: status %d", rec.Code)
		}
	}
	ca, cb := a.count("/v1/riskmap"), b.count("/v1/riskmap")
	if (ca != 8 || cb != 0) && (ca != 0 || cb != 8) {
		t.Fatalf("one key split %d/%d across replicas, want 8/0", ca, cb)
	}
	// Distinct keys spread: with 64 keys both replicas see some.
	for i := 0; i < 64; i++ {
		roundTrip(t, g, http.MethodGet, fmt.Sprintf("/v1/riskmap?effort=%d.25", i+1), nil)
	}
	if a.count("/v1/riskmap") == 0 || b.count("/v1/riskmap") == 0 {
		t.Fatalf("64 distinct keys all on one replica (a=%d, b=%d)",
			a.count("/v1/riskmap"), b.count("/v1/riskmap"))
	}
	// POST bodies hash to the same key space as GET queries: one more GET
	// and one POST for the same key move exactly one replica's count by 2.
	aBefore, bBefore := a.count("/v1/riskmap"), b.count("/v1/riskmap")
	roundTrip(t, g, http.MethodPost, "/v1/riskmap", map[string]any{"effort": 1.5})
	roundTrip(t, g, http.MethodGet, "/v1/riskmap?effort=1.5", nil)
	aAfter, bAfter := a.count("/v1/riskmap"), b.count("/v1/riskmap")
	if !(aAfter == aBefore+2 && bAfter == bBefore) && !(bAfter == bBefore+2 && aAfter == aBefore) {
		t.Fatalf("GET and POST for one key landed on different replicas (a %d->%d, b %d->%d)",
			aBefore, aAfter, bBefore, bAfter)
	}

	// Affinity off: the same repeated key round-robins.
	a2, b2 := newStub(t, "a2", 0), newStub(t, "b2", 0)
	g2 := newGate(t, false, a2, b2)
	for i := 0; i < 8; i++ {
		roundTrip(t, g2, http.MethodGet, "/v1/riskmap?effort=1.5", nil)
	}
	if a2.count("/v1/riskmap") != 4 || b2.count("/v1/riskmap") != 4 {
		t.Fatalf("affinity off: split %d/%d, want 4/4", a2.count("/v1/riskmap"), b2.count("/v1/riskmap"))
	}
}

// TestPlanAffinity routes plan requests by (model, post, beta).
func TestPlanAffinity(t *testing.T) {
	a, b := newStub(t, "a", 0), newStub(t, "b", 0)
	g := newGate(t, true, a, b)
	for i := 0; i < 6; i++ {
		roundTrip(t, g, http.MethodPost, "/v1/plan", map[string]any{"post": 1, "beta": 0.9})
	}
	ca, cb := a.count("/v1/plan"), b.count("/v1/plan")
	if (ca != 6 || cb != 0) && (ca != 0 || cb != 6) {
		t.Fatalf("one plan key split %d/%d, want 6/0", ca, cb)
	}
}

func TestPredictRoundRobins(t *testing.T) {
	a, b := newStub(t, "a", 0), newStub(t, "b", 0)
	g := newGate(t, true, a, b)
	for i := 0; i < 8; i++ {
		roundTrip(t, g, http.MethodPost, "/v1/predict", map[string]any{"cells": []int{1}, "effort": 1})
	}
	if a.count("/v1/predict") != 4 || b.count("/v1/predict") != 4 {
		t.Fatalf("predict split %d/%d, want 4/4", a.count("/v1/predict"), b.count("/v1/predict"))
	}
}

// TestLeastLoadedSubmission routes job submissions to the replica with
// the smallest committed load, counting the gate's own recent routing.
func TestLeastLoadedSubmission(t *testing.T) {
	busy, idle := newStub(t, "busy", 3), newStub(t, "idle", 0)
	g := newGate(t, true, busy, idle)
	// idle's load runs 0→1→2 while busy sits at 3: first three submissions
	// all go to idle even though no poll happens in between.
	for i := 0; i < 3; i++ {
		if rec := roundTrip(t, g, http.MethodPost, "/v1/jobs", map[string]any{"kind": "riskmap"}); rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, rec.Code)
		}
	}
	if busy.count("/v1/jobs") != 0 || idle.count("/v1/jobs") != 3 {
		t.Fatalf("submissions split busy=%d idle=%d, want 0/3", busy.count("/v1/jobs"), idle.count("/v1/jobs"))
	}
	// The synchronous simulate endpoint follows the same routing.
	roundTrip(t, g, http.MethodPost, "/v1/simulate", map[string]any{"park": "rand:16"})
	if busy.count("/v1/simulate")+idle.count("/v1/simulate") != 1 {
		t.Fatal("simulate not proxied")
	}
}

// TestJobObservationSticksToOwner: job IDs route by the replica name
// embedded in the ID, both for IDs the gate never saw and for the ID a
// submission through the gate returned.
func TestJobObservationSticksToOwner(t *testing.T) {
	a, b := newStub(t, "a", 0), newStub(t, "b", 5)
	g := newGate(t, true, a, b)
	for i := 0; i < 3; i++ {
		if rec := roundTrip(t, g, http.MethodGet, "/v1/jobs/j-b-000007", nil); rec.Code != http.StatusOK {
			t.Fatalf("job get: status %d", rec.Code)
		}
	}
	if b.count("/v1/jobs/j-b-000007") != 3 || a.count("/v1/jobs/j-b-000007") != 0 {
		t.Fatalf("prefixed job ID not owner-routed (a=%d, b=%d)",
			a.count("/v1/jobs/j-b-000007"), b.count("/v1/jobs/j-b-000007"))
	}
	// The submit goes least-loaded to a, whose ID names it, so the
	// follow-up GET and DELETE go back to a.
	if rec := roundTrip(t, g, http.MethodPost, "/v1/jobs", map[string]any{"kind": "riskmap"}); rec.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d", rec.Code)
	}
	if a.count("/v1/jobs") != 1 {
		t.Fatal("submission did not go to the least-loaded replica")
	}
	roundTrip(t, g, http.MethodGet, "/v1/jobs/j-a-000042/events", nil)
	roundTrip(t, g, http.MethodDelete, "/v1/jobs/j-a-000042", nil)
	if a.count("/v1/jobs/j-a-000042/events") != 1 || a.count("/v1/jobs/j-a-000042") != 1 {
		t.Fatal("job ID's replica not used for follow-up job requests")
	}
	if b.total() != 3 {
		t.Fatalf("replica b saw %d requests, want only the 3 owner-routed gets", b.total())
	}
}

// newMintStub is a fake replica that mints job IDs the way pawsd does:
// "j-<name>-000001", or bare "j-000001" when started without a replica
// ID. Every job body, whether from the submit or a poll, carries tag,
// so a test can tell which replica answered.
func newMintStub(t *testing.T, name, tag string) *stub {
	s := &stub{name: name, hits: map[string]int{}}
	var minted atomic.Int64
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/statusz" {
			fmt.Fprintf(w, `{"replica":%q,"jobs":{"queued":0,"running":0,"mean_job_seconds":1}}`, s.name)
			return
		}
		s.mu.Lock()
		s.hits[r.URL.Path]++
		s.mu.Unlock()
		id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			id = fmt.Sprintf("j-%06d", minted.Add(1))
			if s.name != "" {
				id = fmt.Sprintf("j-%s-%06d", s.name, minted.Load())
			}
			w.WriteHeader(http.StatusAccepted)
		}
		fmt.Fprintf(w, `{"id":%q,"tag":%q}`, id, tag)
	}))
	t.Cleanup(s.ts.Close)
	return s
}

// TestReplicaIDCollision: two replicas started without a replica ID both
// mint j-000001, so the ID cannot say whose job it is, and a poll for the
// first submission must never answer with the other replica's job. The
// gate keeps such replicas, and replicas sharing one ID, out of rotation;
// an ID naming no configured replica gets the gate's own 404.
func TestReplicaIDCollision(t *testing.T) {
	type job struct{ ID, Tag string }
	a, b := newMintStub(t, "", "a"), newMintStub(t, "", "b")
	g := newGate(t, false, a, b)
	var accepted []job
	for i := 0; i < 2; i++ {
		rec := roundTrip(t, g, http.MethodPost, "/v1/jobs", map[string]any{"kind": "riskmap"})
		if rec.Code != http.StatusAccepted {
			continue
		}
		var j job
		if err := json.Unmarshal(rec.Body.Bytes(), &j); err != nil {
			t.Fatal(err)
		}
		accepted = append(accepted, j)
	}
	for _, j := range accepted {
		rec := roundTrip(t, g, http.MethodGet, "/v1/jobs/"+j.ID, nil)
		var got job
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || got.Tag != j.Tag {
			t.Errorf("job %s submitted to replica %s: poll answered %s", j.ID, j.Tag, rec.Body)
		}
	}
	for _, bs := range g.Status().Backends {
		if bs.Healthy {
			t.Errorf("backend %s reports no replica ID yet is healthy", bs.URL)
		}
	}

	x1, x2, y := newMintStub(t, "x", "x1"), newMintStub(t, "x", "x2"), newMintStub(t, "y", "y")
	g = newGate(t, false, x1, x2, y)
	var healthy []bool
	for _, bs := range g.Status().Backends {
		healthy = append(healthy, bs.Healthy)
	}
	if !slices.Equal(healthy, []bool{false, false, true}) {
		t.Fatalf("health of x, x, y = %v, want only y healthy", healthy)
	}
	if rec := roundTrip(t, g, http.MethodPost, "/v1/jobs", map[string]any{"kind": "riskmap"}); rec.Code != http.StatusAccepted || y.count("/v1/jobs") != 1 {
		t.Fatalf("submit: status %d, y saw %d submits; want it on y", rec.Code, y.count("/v1/jobs"))
	}
	for _, tc := range []struct{ path, code string }{
		{"/v1/jobs/j-000001", "unknown_job"},
		{"/v1/jobs/j-z-000001/events", "unknown_job"},
		{"/v1/envs/e-z-000001", "unknown_env"},
	} {
		rec := roundTrip(t, g, http.MethodGet, tc.path, nil)
		var env errorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusNotFound || env.Error.Code != tc.code {
			t.Errorf("GET %s: status %d, body %s; want the gate's 404 %s", tc.path, rec.Code, rec.Body, tc.code)
		}
	}
	if n := x1.total() + x2.total() + y.total(); n != 1 {
		t.Errorf("backends saw %d requests, want only the one submit", n)
	}
}

// TestRetryOnDeadReplica: a GET that hits a dead replica is retried once
// on a live one, so a crash costs clients nothing.
func TestRetryOnDeadReplica(t *testing.T) {
	a, b := newStub(t, "a", 0), newStub(t, "b", 0)
	g := newGate(t, true, a, b)
	a.ts.Close() // dies after the initial health poll marked it healthy
	for i := 0; i < 4; i++ {
		if rec := roundTrip(t, g, http.MethodGet, "/v1/models", nil); rec.Code != http.StatusOK {
			t.Fatalf("GET %d via gate with one dead replica: status %d, body %s", i, rec.Code, rec.Body)
		}
	}
	if b.count("/v1/models") != 4 {
		t.Fatalf("live replica served %d of 4 requests", b.count("/v1/models"))
	}
	st := g.Status()
	if st.Routing.Retries < 1 {
		t.Fatalf("no retry recorded: %+v", st.Routing)
	}
	healthyCount := 0
	for _, bs := range st.Backends {
		if bs.Healthy {
			healthyCount++
		}
	}
	if healthyCount != 1 {
		t.Fatalf("%d healthy backends after a death, want 1", healthyCount)
	}
}

func TestGatezAndNoBackends(t *testing.T) {
	a := newStub(t, "a", 0)
	g := newGate(t, true, a)
	rec := roundTrip(t, g, http.MethodGet, "/gatez", nil)
	var st GatezResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("gatez: %v (%s)", err, rec.Body)
	}
	if len(st.Backends) != 1 || st.Backends[0].Name != "a" || !st.Backends[0].Healthy {
		t.Fatalf("gatez backends: %+v", st.Backends)
	}
	a.ts.Close()
	g.PollOnce()
	rec = roundTrip(t, g, http.MethodGet, "/v1/models", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("no healthy backend: status %d, want 503", rec.Code)
	}
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != "no_backend" {
		t.Fatalf("no-backend envelope %s (err %v)", rec.Body, err)
	}
}

// TestKillReplicaMidCampaign is the satellite fleet test over REAL
// replicas: two pawsd serving stacks behind a gate, a campaign job
// submitted through the gate, the owning replica killed, and the next
// poll must reach a live replica and answer with the structured envelope
// (the job died with its owner — the client learns that cleanly, not via
// a transport error or bare 502).
func TestKillReplicaMidCampaign(t *testing.T) {
	mk := func(id string) (*serve.Server, *httptest.Server) {
		svc := paws.NewService(paws.WithWorkers(2), paws.WithSeed(7))
		srv := serve.New(svc, serve.Config{ReplicaID: id, JobWorkers: 1})
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return srv, ts
	}
	_, tsA := mk("a")
	_, tsB := mk("b")
	g, err := New(Config{Backends: []string{tsA.URL, tsB.URL}, Affinity: true})
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(g)
	t.Cleanup(gts.Close)

	// A campaign needs no trained model with non-learning policies, so the
	// empty replicas can run it.
	submit := map[string]any{"kind": "campaign", "campaign": map[string]any{
		"parks": []string{"rand:16"}, "policies": []string{"uniform", "historical"},
		"seeds": []int64{1}, "season_counts": []int{2},
	}}
	body, _ := json.Marshal(submit)
	resp, err := http.Post(gts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || snap.ID == "" {
		t.Fatalf("submit via gate: status %d, id %q", resp.StatusCode, snap.ID)
	}

	// The ID names its owner; kill that replica.
	var owner, live *httptest.Server
	switch {
	case strings.HasPrefix(snap.ID, "j-a-"):
		owner, live = tsA, tsB
	case strings.HasPrefix(snap.ID, "j-b-"):
		owner, live = tsB, tsA
	default:
		t.Fatalf("job ID %q does not name a replica", snap.ID)
	}
	_ = live
	owner.Close()
	g.PollOnce() // the health loop notices the death

	// The next poll through the gate reaches a live replica and gets the
	// authoritative structured answer: this job is unknown there (it died
	// with its owner) — not a transport error, not a 502.
	resp, err = http.Get(gts.URL + "/v1/jobs/" + snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("poll after owner death: undecodable body: %v", err)
	}
	if resp.StatusCode != http.StatusNotFound || env.Error.Code != "unknown_job" {
		t.Fatalf("poll after owner death: status %d, code %q; want 404 unknown_job",
			resp.StatusCode, env.Error.Code)
	}
	// The fleet keeps serving: a fresh submission lands on the survivor.
	resp, err = http.Post(gts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after death: status %d", resp.StatusCode)
	}
}
