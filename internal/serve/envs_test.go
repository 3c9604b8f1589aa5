package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"paws"
	"paws/internal/env"
)

// envCreateBody is the short episode every env HTTP test uses.
func envCreateBody() env.CreateRequest {
	return env.CreateRequest{
		Park:            "MFNP",
		Seed:            7,
		Seasons:         2,
		SeasonMonths:    1,
		BootstrapMonths: 6,
	}
}

// createEnvSession creates a session and returns its ID and cell count.
// (The shared do helper only decodes 200 responses; create returns 201, so
// the body is decoded here.)
func createEnvSession(t *testing.T, s *Server) (id string, cells int) {
	t.Helper()
	var resp env.CreateResponse
	status, raw := do(t, s, http.MethodPost, "/v1/envs", envCreateBody(), nil)
	if status != http.StatusCreated {
		t.Fatalf("create: status %d, body %s", status, raw)
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("create: invalid JSON %s: %v", raw, err)
	}
	if resp.Session.ID == "" || len(resp.Obs.Effort) == 0 {
		t.Fatalf("create response incomplete: %s", raw)
	}
	return resp.Session.ID, len(resp.Obs.Effort[0])
}

func uniformWire(cells int) env.StepRequest {
	eff := make([]float64, cells)
	for i := range eff {
		eff[i] = 1
	}
	return env.StepRequest{Effort: eff}
}

// TestEnvSessionLifecycle drives one episode over HTTP end to end: create
// (full bootstrap record), step to done (deltas only), conflict after
// done, delete, then unknown.
func TestEnvSessionLifecycle(t *testing.T) {
	s := testServer(t, Config{ReplicaID: "r1"})
	var created env.CreateResponse
	status, raw := do(t, s, http.MethodPost, "/v1/envs", envCreateBody(), nil)
	if status != http.StatusCreated {
		t.Fatalf("create: status %d, body %s", status, raw)
	}
	if err := json.Unmarshal(raw, &created); err != nil {
		t.Fatalf("create: invalid JSON %s: %v", raw, err)
	}
	if created.Session.ID != "e-r1-000001" {
		t.Fatalf("session ID %q, want e-r1-000001", created.Session.ID)
	}
	if created.Obs.Months != 6 || len(created.Obs.Effort) != 6 {
		t.Fatalf("bootstrap record: months=%d effort rows=%d, want 6", created.Obs.Months, len(created.Obs.Effort))
	}
	id, cells := created.Session.ID, len(created.Obs.Effort[0])

	var step env.StepResponse
	status, raw = do(t, s, http.MethodPost, "/v1/envs/"+id+"/step", uniformWire(cells), &step)
	if status != http.StatusOK {
		t.Fatalf("step: status %d, body %s", status, raw)
	}
	if step.Done || step.Stats.Season != 0 || step.Stats.StartMonth != 6 {
		t.Fatalf("first step: %+v", step)
	}
	if len(step.Delta.Effort) != 1 || step.Delta.Months != 7 {
		t.Fatalf("step delta should carry exactly the appended month: %+v", step.Delta)
	}
	status, raw = do(t, s, http.MethodPost, "/v1/envs/"+id+"/step", uniformWire(cells), &step)
	if status != http.StatusOK || !step.Done {
		t.Fatalf("second step: status %d done=%v, body %s", status, step.Done, raw)
	}

	// Step after done: structured 409.
	status, raw = do(t, s, http.MethodPost, "/v1/envs/"+id+"/step", uniformWire(cells), nil)
	if envelope := decodeEnvelope(t, raw); status != http.StatusConflict || envelope.Error.Code != CodeConflict {
		t.Fatalf("step after done: status %d code %q, body %s", status, envelope.Error.Code, raw)
	}

	var snap env.Snapshot
	if status, raw = do(t, s, http.MethodGet, "/v1/envs/"+id, nil, &snap); status != http.StatusOK {
		t.Fatalf("get: status %d, body %s", status, raw)
	}
	if !snap.Done || snap.Season != 2 || snap.Months != 8 {
		t.Fatalf("finished snapshot: %+v", snap)
	}

	var del env.DeleteResponse
	if status, raw = do(t, s, http.MethodDelete, "/v1/envs/"+id, nil, &del); status != http.StatusOK {
		t.Fatalf("delete: status %d, body %s", status, raw)
	}
	status, raw = do(t, s, http.MethodGet, "/v1/envs/"+id, nil, nil)
	if envelope := decodeEnvelope(t, raw); status != http.StatusNotFound || envelope.Error.Code != CodeUnknownEnv {
		t.Fatalf("get after delete: status %d code %q, body %s", status, envelope.Error.Code, raw)
	}
}

// decodeEnvelope parses a structured error body (do only decodes 200s).
func decodeEnvelope(t *testing.T, raw []byte) errorResponse {
	t.Helper()
	var envelope errorResponse
	if err := json.Unmarshal(raw, &envelope); err != nil {
		t.Fatalf("invalid error envelope %s: %v", raw, err)
	}
	return envelope
}

// TestEnvCreateValidation: malformed specs and out-of-cap requests fail as
// structured 400s without building anything.
func TestEnvCreateValidation(t *testing.T) {
	s := testServer(t, Config{})
	cases := []env.CreateRequest{
		{Park: "atlantis"},
		{Seasons: maxSimSeasons + 1},
		{SeasonMonths: maxSimSeasonMonths + 1},
		{BootstrapMonths: maxSimBootstrapMonths + 1},
		{Seasons: -1},
		{BudgetKM: -3},
		{Attacker: "quantum"},
	}
	for _, req := range cases {
		var envelope errorResponse
		status, raw := do(t, s, http.MethodPost, "/v1/envs", req, &envelope)
		if status != http.StatusBadRequest {
			t.Errorf("create %+v: status %d, body %s", req, status, raw)
		}
	}
}

// TestEnvCapacitySheds: with a one-session bound and a live episode
// retained, the next create sheds with the structured 429 + Retry-After
// contract.
func TestEnvCapacitySheds(t *testing.T) {
	s := testServer(t, Config{EnvMaxSessions: 1})
	createEnvSession(t, s)
	status, raw, rec := doRec(t, s, http.MethodPost, "/v1/envs", envCreateBody())
	if status != http.StatusTooManyRequests {
		t.Fatalf("create over capacity: status %d, body %s", status, raw)
	}
	var envelope errorResponse
	if err := json.Unmarshal(raw, &envelope); err != nil {
		t.Fatalf("bad envelope %s: %v", raw, err)
	}
	if envelope.Error.Code != CodeOverloaded {
		t.Fatalf("code %q, want %q (body %s)", envelope.Error.Code, CodeOverloaded, raw)
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want an integer ≥ 1", rec.Header().Get("Retry-After"))
	}
	if s.Statusz().Envs.Active != 1 {
		t.Fatalf("statusz envs: %+v, want 1 active", s.Statusz().Envs)
	}
}

// TestEnvDrainVsUnknown: after Close, env requests answer 503
// shutting_down — including for IDs that were just drained — never 404.
func TestEnvDrainVsUnknown(t *testing.T) {
	s := testServer(t, Config{})
	id, cells := createEnvSession(t, s)
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, req := range []struct {
		method, path string
		body         any
	}{
		{http.MethodPost, "/v1/envs", envCreateBody()},
		{http.MethodPost, "/v1/envs/" + id + "/step", uniformWire(cells)},
		{http.MethodGet, "/v1/envs/" + id, nil},
		{http.MethodDelete, "/v1/envs/" + id, nil},
	} {
		status, raw := do(t, s, req.method, req.path, req.body, nil)
		if envelope := decodeEnvelope(t, raw); status != http.StatusServiceUnavailable || envelope.Error.Code != CodeShuttingDown {
			t.Fatalf("%s %s after close: status %d code %q, body %s",
				req.method, req.path, status, envelope.Error.Code, raw)
		}
	}
}

// TestEnvStatuszAndMetrics: the session manager's load is visible on
// /statusz and the env instruments are registered on /metricsz.
func TestEnvStatuszAndMetrics(t *testing.T) {
	s := testServer(t, Config{})
	id, cells := createEnvSession(t, s)
	if st := s.Statusz().Envs; st.Active != 1 || st.Sessions != 1 || st.Created != 1 {
		t.Fatalf("statusz envs after create: %+v", st)
	}
	var step env.StepResponse
	if status, raw := do(t, s, http.MethodPost, "/v1/envs/"+id+"/step", uniformWire(cells), &step); status != http.StatusOK {
		t.Fatalf("step: status %d, body %s", status, raw)
	}
	rec := doRaw(t, s.MetricsHandler(), http.MethodGet, "/metricsz")
	if rec.Code != http.StatusOK {
		t.Fatalf("metricsz: status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, metric := range []string{
		"paws_env_sessions_active 1",
		"paws_env_sessions 1",
		"paws_env_sessions_created_total 1",
		"paws_env_steps_total 1",
		"paws_env_step_seconds",
		"paws_env_sessions_shed_total",
	} {
		if !contains(body, metric) {
			t.Errorf("metricsz missing %q", metric)
		}
	}
}

func contains(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}

// TestSimulateRemoteMatchesLocal is the end-to-end identity acceptance of
// the remote environment surface: the same comparison run through HTTP
// /v1/envs sessions marshals to byte-identical JSON (and so renders the same
// text) as the in-process one, learned policies included, and every
// policy's session is deleted once its episode ends.
func TestSimulateRemoteMatchesLocal(t *testing.T) {
	svc := testService(t)
	cfg := paws.SimConfig{
		Park:            "MFNP",
		Seasons:         2,
		SeasonMonths:    1,
		BootstrapMonths: 6,
		Policies:        []string{"uniform", "thompson", "softmax"},
	}
	local, err := svc.Simulate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}
	s := New(svc, Config{ReplicaID: "r1"})
	srv := httptest.NewServer(s)
	defer srv.Close()
	for _, workers := range []int{1, 3} {
		before := s.Statusz().Envs
		remote, err := svc.SimulateRemote(context.Background(), srv.URL, srv.Client(), cfg, paws.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if remote.Format() != local.Format() {
			t.Fatalf("remote report (workers=%d) differs from local:\n%s\n--- local ---\n%s",
				workers, remote.Format(), local.Format())
		}
		got, err := json.Marshal(remote)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("remote report JSON (workers=%d) differs from local:\n%s\n--- local ---\n%s", workers, got, want)
		}
		after := s.Statusz().Envs
		if after.Sessions != 0 || after.Created != before.Created+int64(len(cfg.Policies)) {
			t.Fatalf("workers=%d: %d sessions retained and %d created, want 0 retained and %d created",
				workers, after.Sessions, after.Created-before.Created, len(cfg.Policies))
		}
	}
}
