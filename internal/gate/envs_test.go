package gate

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"paws"
	"paws/internal/serve"
)

// newEnvStub is a fake replica for env-session routing tests: /statusz
// reports the given live-session count, POST /v1/envs answers 201 with a
// replica-prefixed session ID, and everything else echoes ok.
func newEnvStub(t *testing.T, name string, envActive int) *stub {
	s := &stub{name: name, hits: map[string]int{}}
	var created atomic.Int64
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/statusz" {
			fmt.Fprintf(w, `{"replica":%q,"jobs":{"queued":0,"running":0,"mean_job_seconds":1},"envs":{"active":%d,"sessions":%d}}`,
				s.name, envActive, envActive)
			return
		}
		s.mu.Lock()
		s.hits[r.URL.Path]++
		s.mu.Unlock()
		if r.Method == http.MethodPost && r.URL.Path == "/v1/envs" {
			w.WriteHeader(http.StatusCreated)
			fmt.Fprintf(w, `{"session":{"id":"e-%s-%06d"}}`, s.name, created.Add(1))
			return
		}
		fmt.Fprint(w, `{"ok":true}`)
	}))
	t.Cleanup(s.ts.Close)
	return s
}

// TestEnvCreateLeastLoaded: session creates go to the replica with the
// fewest live sessions, counting the gate's own since-poll creates — and
// the job least-loaded scorer is unaffected by env load (a replica heavy
// with sessions still takes job submissions if its job queue is empty).
func TestEnvCreateLeastLoaded(t *testing.T) {
	busy, idle := newEnvStub(t, "busy", 3), newEnvStub(t, "idle", 0)
	g := newGate(t, true, busy, idle)
	// idle's env score runs 0→1→2 while busy sits at 3: the first three
	// creates all go to idle with no poll in between.
	for i := 0; i < 3; i++ {
		if rec := roundTrip(t, g, http.MethodPost, "/v1/envs", map[string]any{"park": "MFNP"}); rec.Code != http.StatusCreated {
			t.Fatalf("create %d: status %d, body %s", i, rec.Code, rec.Body)
		}
	}
	if busy.count("/v1/envs") != 0 || idle.count("/v1/envs") != 3 {
		t.Fatalf("creates split busy=%d idle=%d, want 0/3", busy.count("/v1/envs"), idle.count("/v1/envs"))
	}
	// Env sessions must not distort JOB routing: both job queues are empty,
	// so submissions round between the replicas by the job scorer's own
	// config-order tie — the first one lands on busy despite its sessions.
	if rec := roundTrip(t, g, http.MethodPost, "/v1/jobs", map[string]any{"kind": "riskmap"}); rec.Code != http.StatusOK {
		t.Fatalf("job submit: status %d", rec.Code)
	}
	if busy.count("/v1/jobs") != 1 {
		t.Fatalf("job submission avoided the env-heavy replica (busy=%d idle=%d): env load leaked into the job scorer",
			busy.count("/v1/jobs"), idle.count("/v1/jobs"))
	}
}

// TestEnvDetailSticksToOwner: session IDs route to the replica named
// inside the ID, both for IDs the gate never saw and for the ID a create
// through the gate returned.
func TestEnvDetailSticksToOwner(t *testing.T) {
	a, b := newEnvStub(t, "a", 0), newEnvStub(t, "b", 5)
	g := newGate(t, true, a, b)
	for i := 0; i < 3; i++ {
		if rec := roundTrip(t, g, http.MethodPost, "/v1/envs/e-b-000007/step", map[string]any{"effort": []float64{1}}); rec.Code != http.StatusOK {
			t.Fatalf("step: status %d", rec.Code)
		}
	}
	if b.count("/v1/envs/e-b-000007/step") != 3 || a.count("/v1/envs/e-b-000007/step") != 0 {
		t.Fatalf("prefixed session ID not owner-routed (a=%d, b=%d)",
			a.count("/v1/envs/e-b-000007/step"), b.count("/v1/envs/e-b-000007/step"))
	}
	// The create goes least-loaded to a, whose session ID names it, so
	// follow-ups go back to a.
	rec := roundTrip(t, g, http.MethodPost, "/v1/envs", map[string]any{"park": "MFNP"})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: status %d", rec.Code)
	}
	var created struct {
		Session struct {
			ID string `json:"id"`
		} `json:"session"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil || created.Session.ID == "" {
		t.Fatalf("create response %s: %v", rec.Body, err)
	}
	if a.count("/v1/envs") != 1 {
		t.Fatal("create did not go to the least-session replica")
	}
	path := "/v1/envs/" + created.Session.ID
	roundTrip(t, g, http.MethodPost, path+"/step", map[string]any{"effort": []float64{1}})
	roundTrip(t, g, http.MethodGet, path, nil)
	roundTrip(t, g, http.MethodDelete, path, nil)
	if a.count(path+"/step") != 1 || a.count(path) != 2 {
		t.Fatalf("session ID's replica not used for follow-ups (step=%d, get+delete=%d)",
			a.count(path+"/step"), a.count(path))
	}
	if got := b.count(path) + b.count(path+"/step"); got != 0 {
		t.Fatalf("replica b saw %d requests for a's session", got)
	}
}

// TestEnvFleetOwnerRoutingReal runs the owner-routing contract over REAL
// replicas: a session created through the gate steps on its owner, a
// non-owner asked directly answers with the authoritative structured
// unknown_env, and after the owner dies the gate's re-route surfaces that
// same structured answer instead of a transport error.
func TestEnvFleetOwnerRoutingReal(t *testing.T) {
	mk := func(id string) *httptest.Server {
		svc := paws.NewService(paws.WithWorkers(2), paws.WithSeed(7))
		ts := httptest.NewServer(serve.New(svc, serve.Config{ReplicaID: id, JobWorkers: 1}))
		t.Cleanup(ts.Close)
		return ts
	}
	tsA, tsB := mk("a"), mk("b")
	g, err := New(Config{Backends: []string{tsA.URL, tsB.URL}, Affinity: true})
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(g)
	t.Cleanup(gts.Close)

	body := strings.NewReader(`{"park":"MFNP","seed":7,"seasons":1,"season_months":1,"bootstrap_months":6}`)
	resp, err := http.Post(gts.URL+"/v1/envs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		Session struct {
			ID string `json:"id"`
		} `json:"session"`
		Obs struct {
			Effort [][]float64 `json:"effort"`
		} `json:"obs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || created.Session.ID == "" {
		t.Fatalf("create via gate: status %d, id %q", resp.StatusCode, created.Session.ID)
	}
	var owner, other *httptest.Server
	switch {
	case strings.HasPrefix(created.Session.ID, "e-a-"):
		owner, other = tsA, tsB
	case strings.HasPrefix(created.Session.ID, "e-b-"):
		owner, other = tsB, tsA
	default:
		t.Fatalf("session ID %q does not name a replica", created.Session.ID)
	}

	// Stepping through the gate reaches the owner and completes the season.
	eff, _ := json.Marshal(map[string]any{"effort": created.Obs.Effort[0]})
	resp, err = http.Post(gts.URL+"/v1/envs/"+created.Session.ID+"/step", "application/json", strings.NewReader(string(eff)))
	if err != nil {
		t.Fatal(err)
	}
	var step struct {
		Done bool `json:"done"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&step); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !step.Done {
		t.Fatalf("step via gate: status %d done=%v", resp.StatusCode, step.Done)
	}

	// The non-owner, asked directly, answers with the authoritative
	// structured unknown_env for its own namespace.
	resp, err = http.Get(other.URL + "/v1/envs/" + created.Session.ID)
	if err != nil {
		t.Fatal(err)
	}
	var envelope errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || envelope.Error.Code != "unknown_env" {
		t.Fatalf("non-owner get: status %d code %q, want 404 unknown_env", resp.StatusCode, envelope.Error.Code)
	}

	// Kill the owner: the gate re-routes to the survivor, whose structured
	// 404 is the honest fleet-level answer (the session died with its owner).
	owner.Close()
	g.PollOnce()
	resp, err = http.Get(gts.URL + "/v1/envs/" + created.Session.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatalf("poll after owner death: undecodable body: %v", err)
	}
	if resp.StatusCode != http.StatusNotFound || envelope.Error.Code != "unknown_env" {
		t.Fatalf("poll after owner death: status %d code %q, want 404 unknown_env", resp.StatusCode, envelope.Error.Code)
	}
}
