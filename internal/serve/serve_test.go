package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"paws"
	"paws/internal/job"
)

// fixture builds one served GPB-iW model shared by every test (training is
// the expensive part; the server itself is cheap).
var (
	fixtureOnce sync.Once
	fixtureSvc  *paws.Service
	fixtureErr  error
	fixtureN    int // park cells
	// fixtureReg trains a GPB-iW model on the fixture's data with larger
	// GPs and registers it on another service (see coldServer).
	fixtureReg func(ctx context.Context, svc *paws.Service) error
)

func testService(t *testing.T) *paws.Service {
	t.Helper()
	fixtureOnce.Do(func() {
		ctx := context.Background()
		svc := paws.NewService(
			paws.WithWorkers(2),
			paws.WithSeed(7),
			paws.WithThresholds(4),
			paws.WithEnsembleSize(4),
			paws.WithGPMaxTrain(50),
			paws.WithTreeDepth(6),
		)
		sc, err := svc.Scenario(ctx, "MFNP", paws.WithScale(paws.ScaleSmall))
		if err != nil {
			fixtureErr = err
			return
		}
		year := sc.Data.Steps[len(sc.Data.Steps)-1].Year
		split, err := sc.Data.SplitByTestYear(year, 3)
		if err != nil {
			fixtureErr = err
			return
		}
		m, err := svc.Train(ctx, split.Train, paws.WithKind(paws.GPBiW))
		if err != nil {
			fixtureErr = err
			return
		}
		testFrom, _ := sc.Data.StepsForYear(year)
		if _, err := svc.AddModel(ctx, "default", m, sc.Data, testFrom-1); err != nil {
			fixtureErr = err
			return
		}
		fixtureSvc = svc
		fixtureN = sc.Park.Grid.NumCells()
		fixtureReg = func(ctx context.Context, other *paws.Service) error {
			big, err := svc.Train(ctx, split.Train, paws.WithKind(paws.GPBiW), paws.WithGPMaxTrain(200))
			if err != nil {
				return err
			}
			_, err = other.AddModel(ctx, "default", big, sc.Data, testFrom-1)
			return err
		}
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureSvc
}

func testServer(t *testing.T, cfg Config) *Server {
	return New(testService(t), cfg)
}

// coldServer serves a GPB-iW model from a fresh registration on its own
// service, so no earlier test has warmed its planner memo: a park-wide
// riskmap on it is real model work. Its GPs keep 200 training points, not
// the fixture's 50, so that work takes ~15 ms on a 2-vCPU VM: far past a
// 1 ms deadline even when the timer behind it fires late under load. The
// fixture model's own sweep takes ~3 ms, and beside a CPU-heavy test run
// it finished before the timer fired in 14 of 150 tries.
func coldServer(t *testing.T, cfg Config) *Server {
	testService(t)
	svc := paws.NewService(paws.WithWorkers(2))
	if err := fixtureReg(context.Background(), svc); err != nil {
		t.Fatal(err)
	}
	return New(svc, cfg)
}

// do runs one request through the handler and decodes the JSON response.
func do(t *testing.T, s *Server, method, path string, body any, out any) (status int, raw []byte) {
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
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	raw = rec.Body.Bytes()
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: invalid JSON response %q: %v", method, path, raw, err)
		}
	}
	return rec.Code, raw
}

func TestHealthz(t *testing.T) {
	s := testServer(t, Config{})
	var resp healthResponse
	status, _ := do(t, s, http.MethodGet, "/healthz", nil, &resp)
	if status != http.StatusOK || resp.Status != "ok" {
		t.Fatalf("healthz: status %d, body %+v", status, resp)
	}
	// The shared fixture service may have accumulated models from other
	// tests (e.g. a train job registering "remote"); require membership,
	// not an exact list.
	found := false
	for _, m := range resp.Models {
		found = found || m == "default"
	}
	if !found {
		t.Fatalf("healthz models = %v, want to include default", resp.Models)
	}
}

func TestPredictByCellsMatchesRiskMap(t *testing.T) {
	s := testServer(t, Config{})
	var rm RiskMapResponse
	status, _ := do(t, s, http.MethodGet, "/v1/riskmap?model=default&effort=1.5", nil, &rm)
	if status != http.StatusOK {
		t.Fatalf("riskmap status %d", status)
	}
	if rm.Cells != fixtureN || len(rm.Risk) != fixtureN || len(rm.Uncertainty) != fixtureN {
		t.Fatalf("riskmap shape: cells=%d risk=%d unc=%d, want %d", rm.Cells, len(rm.Risk), len(rm.Uncertainty), fixtureN)
	}
	if rm.Width <= 0 || rm.Height <= 0 {
		t.Fatalf("riskmap geometry %dx%d", rm.Width, rm.Height)
	}
	cells := make([]int, fixtureN)
	for c := range cells {
		cells[c] = c
	}
	var pr PredictResponse
	status, _ = do(t, s, http.MethodPost, "/v1/predict",
		PredictRequest{Model: "default", Effort: 1.5, Cells: cells}, &pr)
	if status != http.StatusOK || len(pr.Probs) != fixtureN {
		t.Fatalf("predict status %d, %d probs", status, len(pr.Probs))
	}
	if n := countDiffering(pr.Probs, rm.Risk); n > 0 {
		t.Fatalf("%d of %d cells: predict differs from riskmap", n, fixtureN)
	}

	// A features request answers the same probabilities whether or not it
	// asks for the variance.
	sm, _ := testService(t).Served("default")
	nf := sm.Park().NumFeatures()
	X := make([][]float64, 200)
	for i := range X {
		X[i] = make([]float64, sm.FeatureDim())
		sm.Park().FeatureVector((i*7)%fixtureN, X[i][:nf])
		X[i][nf] = 0.5 * float64(i%4)
	}
	var plain, withVar PredictResponse
	for _, r := range []struct {
		variance bool
		out      *PredictResponse
	}{{false, &plain}, {true, &withVar}} {
		status, _ = do(t, s, http.MethodPost, "/v1/predict",
			PredictRequest{Model: "default", Effort: 1.5, Features: X, Variance: r.variance}, r.out)
		if status != http.StatusOK || len(r.out.Probs) != len(X) {
			t.Fatalf("features predict (variance %v): status %d, %d probs", r.variance, status, len(r.out.Probs))
		}
	}
	if n := countDiffering(plain.Probs, withVar.Probs); n > 0 {
		t.Fatalf("%d of %d rows: probs differ between variance false and true", n, len(X))
	}
}

// countDiffering reports how many entries of got differ from want, bit for
// bit.
func countDiffering(got, want []float64) int {
	n := 0
	for i := range got {
		if got[i] != want[i] {
			n++
		}
	}
	return n
}

// TestPredictParallelDeterministic floods /v1/predict with concurrent
// identical requests (run with -race in CI) and requires byte-identical
// response bodies — the serving determinism contract.
func TestPredictParallelDeterministic(t *testing.T) {
	s := testServer(t, Config{})
	cells := make([]int, 200)
	for i := range cells {
		cells[i] = (i * 7) % fixtureN
	}
	req := PredictRequest{Model: "default", Effort: 2, Cells: cells}
	_, want := do(t, s, http.MethodPost, "/v1/predict", req, nil)
	if !json.Valid(want) {
		t.Fatalf("baseline response is not valid JSON: %q", want)
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, err := json.Marshal(req)
			if err != nil {
				errCh <- err
				return
			}
			r := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(b))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, r)
			if rec.Code != http.StatusOK {
				errCh <- fmt.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
				return
			}
			if !bytes.Equal(rec.Body.Bytes(), want) {
				errCh <- fmt.Errorf("concurrent response diverged from baseline")
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestPredictByFeaturesWithVariance(t *testing.T) {
	s := testServer(t, Config{})
	sm, _ := testService(t).Served("default")
	dim := sm.FeatureDim()
	X := [][]float64{make([]float64, dim), make([]float64, dim)}
	for j := 0; j < dim; j++ {
		X[0][j] = 0.1 * float64(j)
		X[1][j] = 0.5
	}
	var pr PredictResponse
	status, _ := do(t, s, http.MethodPost, "/v1/predict",
		PredictRequest{Model: "default", Effort: 1, Features: X, Variance: true}, &pr)
	if status != http.StatusOK {
		t.Fatalf("predict status %d", status)
	}
	if len(pr.Probs) != 2 || len(pr.Variances) != 2 {
		t.Fatalf("response shape: %d probs, %d variances", len(pr.Probs), len(pr.Variances))
	}
	for _, p := range pr.Probs {
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of [0,1]", p)
		}
	}
}

func TestRiskMapCacheHit(t *testing.T) {
	s := testServer(t, Config{RiskMapCacheSize: 8})
	var first, second RiskMapResponse
	if status, _ := do(t, s, http.MethodPost, "/v1/riskmap", RiskMapRequest{Model: "default", Effort: 2.25}, &first); status != http.StatusOK {
		t.Fatalf("first riskmap status %d", status)
	}
	if first.Cached {
		t.Fatal("first response claims to be cached")
	}
	if status, _ := do(t, s, http.MethodPost, "/v1/riskmap", RiskMapRequest{Model: "default", Effort: 2.25}, &second); status != http.StatusOK {
		t.Fatalf("second riskmap status %d", status)
	}
	if !second.Cached {
		t.Fatal("second identical request was not served from the cache")
	}
	for i := range first.Risk {
		if first.Risk[i] != second.Risk[i] {
			t.Fatal("cached risk map diverged from computed one")
		}
	}
	if got := s.cache.len(); got != 1 {
		t.Fatalf("cache holds %d entries, want 1", got)
	}
}

// TestRiskMapBodyBytes pins the riskmap cache's stored bodies. The hit's
// body must be the miss's with "cached":false swapped for "cached":true,
// and exactly json.NewEncoder's output for the maps with Cached set, its
// trailing newline included. A riskmap job's result must carry the same
// bytes as the synchronous answer: the hit body when the LRU holds the
// maps, the miss body when the job computed them.
func TestRiskMapBodyBytes(t *testing.T) {
	s := testServer(t, Config{RiskMapCacheSize: 8})
	get := func(effort string) []byte {
		t.Helper()
		rec := doRaw(t, s, http.MethodGet, "/v1/riskmap?model=default&effort="+effort)
		if rec.Code != http.StatusOK {
			t.Fatalf("riskmap at effort %s: status %d, body %s", effort, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	miss, hit := get("1.75"), get("1.75")
	if want := bytes.Replace(miss, []byte(`"cached":false`), []byte(`"cached":true`), 1); !bytes.Equal(hit, want) {
		t.Fatalf("hit body differs from the miss body with cached swapped:\n%.200s…\n%.200s…", hit, miss)
	}
	sm, _ := s.svc.Served("default")
	risk, unc, err := s.svc.RiskMaps(context.Background(), "default", 1.75)
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := json.NewEncoder(&enc).Encode(RiskMapResponse{
		Model: "default", Effort: 1.75, Width: sm.Park().Grid.W, Height: sm.Park().Grid.H,
		Cells: len(risk), Risk: risk, Uncertainty: unc, Cached: true,
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hit, enc.Bytes()) {
		t.Fatal("hit body differs from json.NewEncoder's output for the maps")
	}
	// Two hits hand out the one stored slice: a hit neither encodes nor
	// copies.
	a, errA := s.computeRiskMap(context.Background(), RiskMapRequest{Effort: 1.75})
	b, errB := s.computeRiskMap(context.Background(), RiskMapRequest{Effort: 1.75})
	if errA != nil || errB != nil || &a[0] != &b[0] {
		t.Fatalf("two hits returned different slices (errors %v, %v)", errA, errB)
	}

	jobBody := func(effort float64) []byte {
		t.Helper()
		snap := submitJob(t, s, JobSubmitRequest{Kind: "riskmap", RiskMap: &RiskMapRequest{Effort: effort}})
		if final := pollJob(t, s, snap.ID); final.State != job.StateDone {
			t.Fatalf("riskmap job ended %s", final.State)
		}
		rec := doRaw(t, s, http.MethodGet, "/v1/jobs/"+snap.ID+"/result")
		if rec.Code != http.StatusOK {
			t.Fatalf("job result: status %d, body %s", rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	if got := jobBody(1.75); !bytes.Equal(got, hit) {
		t.Fatal("riskmap job on a cached effort: result differs from the hit body")
	}
	computed := jobBody(2.75)
	if want := bytes.Replace(get("2.75"), []byte(`"cached":true`), []byte(`"cached":false`), 1); !bytes.Equal(computed, want) {
		t.Fatal("riskmap job that computed its maps: result differs from the miss body")
	}
}

// TestRiskMapHitAllocations counts the allocations of one cached riskmap
// GET through the full handler, with a writer that drops the body: the
// count must not grow with the park, as it would if a hit allocated per
// cell. On the 580-cell fixture and on smallServer's park it must stay
// within one bound, well below either cell count. (The bound is not an
// equality: under the race detector, sync.Pool drops items at random, so
// the counts wobble by one or two.)
func TestRiskMapHitAllocations(t *testing.T) {
	small, smallN := smallServer(t)
	hitAllocs := func(s *Server) float64 {
		req := httptest.NewRequest(http.MethodGet, "/v1/riskmap?model=default&effort=1.25", nil)
		w := &discardWriter{header: http.Header{}}
		s.ServeHTTP(w, req) // fill the cache
		return testing.AllocsPerRun(50, func() {
			w.code = 0
			s.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				t.Fatalf("riskmap status %d", w.code)
			}
		})
	}
	const bound = 64
	for _, c := range []struct {
		s     *Server
		cells int
	}{{testServer(t, Config{}), fixtureN}, {small, smallN}} {
		if got := hitAllocs(c.s); got > bound {
			t.Fatalf("a riskmap hit on %d cells allocates %v times, want at most %d", c.cells, got, bound)
		}
	}
}

// discardWriter is an http.ResponseWriter that keeps the status and drops
// the body.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestRequestDeadline checks an unmeetable per-request deadline surfaces as
// 504 — the ctx reached mid-sweep and aborted the work.
func TestRequestDeadline(t *testing.T) {
	s := coldServer(t, Config{})
	// A cold park-wide GP sweep over the whole ladder cannot finish in 1ms.
	status, raw := do(t, s, http.MethodPost, "/v1/riskmap",
		RiskMapRequest{Model: "default", Effort: 97.25, TimeoutMS: 1}, nil)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("riskmap with 1ms budget: status %d, body %s", status, raw)
	}
	var e errorResponse
	if err := json.Unmarshal(raw, &e); err != nil || e.Error.Code != CodeDeadline || !strings.Contains(e.Error.Message, "deadline") {
		t.Fatalf("error body %q should carry the deadline code", raw)
	}
	// The server-wide timeout applies when the request sets none.
	s2 := testServer(t, Config{RequestTimeout: time.Millisecond})
	cells := make([]int, 0, 8*fixtureN)
	for r := 0; r < 8; r++ {
		for c := 0; c < fixtureN; c++ {
			cells = append(cells, c)
		}
	}
	status, raw = do(t, s2, http.MethodPost, "/v1/predict",
		PredictRequest{Model: "default", Effort: 98.5, Cells: cells}, nil)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("predict under 1ms server timeout: status %d, body %s", status, raw)
	}
}

func TestPlanEndpoint(t *testing.T) {
	s := testServer(t, Config{})
	var resp PlanResponse
	status, raw := do(t, s, http.MethodPost, "/v1/plan",
		PlanRequest{Model: "default", Post: 0, Beta: 0.9, Radius: 2, MaxCells: 12, T: 5, K: 2, Segments: 6}, &resp)
	if status != http.StatusOK {
		t.Fatalf("plan status %d, body %s", status, raw)
	}
	if len(resp.Cells) == 0 || len(resp.Effort) != len(resp.Cells) || len(resp.Routes) == 0 {
		t.Fatalf("plan shape: %d cells, %d efforts, %d routes", len(resp.Cells), len(resp.Effort), len(resp.Routes))
	}
	for _, r := range resp.Routes {
		if len(r) != 6 || r[0] != resp.Cells[0] || r[5] != resp.Cells[0] {
			t.Fatalf("malformed route %v", r)
		}
	}
}

// TestBadRequests is the table-driven contract of the structured error
// envelope: every failing request carries a machine-readable code that
// matches its transport status.
func TestBadRequests(t *testing.T) {
	s := testServer(t, Config{})
	for _, tc := range []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"invalid JSON", http.MethodPost, "/v1/predict", "{nope", http.StatusBadRequest, CodeBadRequest},
		{"unknown field", http.MethodPost, "/v1/predict", `{"mdoel":"default"}`, http.StatusBadRequest, CodeBadRequest},
		{"features and cells", http.MethodPost, "/v1/predict", `{"effort":1,"cells":[1],"features":[[1]]}`, http.StatusBadRequest, CodeBadRequest},
		{"neither features nor cells", http.MethodPost, "/v1/predict", `{"effort":1}`, http.StatusBadRequest, CodeBadRequest},
		{"negative effort", http.MethodPost, "/v1/predict", `{"effort":-1,"cells":[0]}`, http.StatusBadRequest, CodeBadRequest},
		{"unknown model", http.MethodPost, "/v1/predict", `{"model":"nope","effort":1,"cells":[0]}`, http.StatusNotFound, CodeUnknownModel},
		{"cell out of range", http.MethodPost, "/v1/predict", `{"effort":1,"cells":[999999]}`, http.StatusBadRequest, CodeBadRequest},
		{"variance for cells", http.MethodPost, "/v1/predict", `{"effort":1,"cells":[0],"variance":true}`, http.StatusBadRequest, CodeBadRequest},
		{"zero effort riskmap", http.MethodPost, "/v1/riskmap", `{"model":"default"}`, http.StatusBadRequest, CodeBadRequest},
		{"riskmap unknown model", http.MethodGet, "/v1/riskmap?model=nope&effort=1", "", http.StatusNotFound, CodeUnknownModel},
		{"plan bad beta", http.MethodPost, "/v1/plan", `{"model":"default","beta":7}`, http.StatusBadRequest, CodeBadRequest},
		{"plan bad post", http.MethodPost, "/v1/plan", `{"model":"default","post":-2,"beta":0.5}`, http.StatusBadRequest, CodeBadRequest},
		// Each override one above its cap. (No case goes far above: were a
		// cap lost, segments near 10^7 would ask for ~20 GB.)
		{"plan radius over cap", http.MethodPost, "/v1/plan", `{"post":0,"beta":0.5,"radius":33}`, http.StatusBadRequest, CodeBadRequest},
		{"plan max_cells over cap", http.MethodPost, "/v1/plan", `{"post":0,"beta":0.5,"max_cells":401}`, http.StatusBadRequest, CodeBadRequest},
		{"plan t over cap", http.MethodPost, "/v1/plan", `{"post":0,"beta":0.5,"t":49}`, http.StatusBadRequest, CodeBadRequest},
		{"plan k over cap", http.MethodPost, "/v1/plan", `{"post":0,"beta":0.5,"k":16.5}`, http.StatusBadRequest, CodeBadRequest},
		{"plan segments over cap", http.MethodPost, "/v1/plan", `{"post":0,"beta":0.5,"segments":65}`, http.StatusBadRequest, CodeBadRequest},
		{"simulate over cap", http.MethodPost, "/v1/simulate", `{"park":"rand:16","seasons":999}`, http.StatusBadRequest, CodeBadRequest},
		{"simulate unknown park", http.MethodPost, "/v1/simulate", `{"park":"ATLANTIS","seasons":1}`, http.StatusBadRequest, CodeBadRequest},
		{"job unknown kind", http.MethodPost, "/v1/jobs", `{"kind":"mine-bitcoin"}`, http.StatusBadRequest, CodeBadRequest},
		{"job bad params", http.MethodPost, "/v1/jobs", `{"kind":"simulate","simulate":{"seasons":999}}`, http.StatusBadRequest, CodeBadRequest},
		{"job simulate unknown park", http.MethodPost, "/v1/jobs", `{"kind":"simulate","simulate":{"park":"ATLANTIS"}}`, http.StatusBadRequest, CodeBadRequest},
		{"job train without name", http.MethodPost, "/v1/jobs", `{"kind":"train"}`, http.StatusBadRequest, CodeBadRequest},
		{"job train unknown park", http.MethodPost, "/v1/jobs", `{"kind":"train","train":{"name":"x","park":"rand:zzz"}}`, http.StatusBadRequest, CodeBadRequest},
		{"job table2 unknown park", http.MethodPost, "/v1/jobs", `{"kind":"table2","table2":{"park":"ATLANTIS"}}`, http.StatusBadRequest, CodeBadRequest},
		{"job riskmap bad effort", http.MethodPost, "/v1/jobs", `{"kind":"riskmap","riskmap":{"model":"default","effort":0}}`, http.StatusBadRequest, CodeBadRequest},
		{"job riskmap unknown model rejected at submit", http.MethodPost, "/v1/jobs", `{"kind":"riskmap","riskmap":{"model":"nope","effort":1}}`, http.StatusNotFound, CodeUnknownModel},
		{"unknown job snapshot", http.MethodGet, "/v1/jobs/j-999999", "", http.StatusNotFound, CodeUnknownJob},
		{"unknown job result", http.MethodGet, "/v1/jobs/j-999999/result", "", http.StatusNotFound, CodeUnknownJob},
		{"unknown job events", http.MethodGet, "/v1/jobs/j-999999/events", "", http.StatusNotFound, CodeUnknownJob},
		{"unknown job cancel", http.MethodDelete, "/v1/jobs/j-999999", "", http.StatusNotFound, CodeUnknownJob},
		{"GET predict", http.MethodGet, "/v1/predict", "", http.StatusMethodNotAllowed, ""},
		// Whitespace inside the object keeps the decoder reading past the
		// limit; a valid request but for its size.
		{"oversized body", http.MethodPost, "/v1/predict",
			`{"effort":1,` + strings.Repeat(" ", maxBodyBytes+1<<20) + `"cells":[0]}`,
			http.StatusRequestEntityTooLarge, CodeBadRequest},
	} {
		req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, rec.Code, tc.wantStatus, rec.Body.Bytes())
			continue
		}
		if tc.wantCode == "" {
			continue // mux-level rejection, no JSON envelope
		}
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Errorf("%s: error body is not the envelope: %s", tc.name, rec.Body.Bytes())
			continue
		}
		if e.Error.Code != tc.wantCode || e.Error.Message == "" {
			t.Errorf("%s: code %q message %q, want code %q", tc.name, e.Error.Code, e.Error.Message, tc.wantCode)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	c.add("a", 1)
	c.add("b", 2)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	c.add("c", 3) // evicts b (a was just used)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a lost")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c lost")
	}
	if c.len() != 2 {
		t.Fatalf("len %d, want 2", c.len())
	}
	// Disabled cache never stores.
	d := newLRU(0)
	d.add("x", 1)
	if _, ok := d.get("x"); ok {
		t.Fatal("disabled cache stored a value")
	}
}

// ------------------------------------------------------------ /v1/simulate

func TestSimulateEndpoint(t *testing.T) {
	s := testServer(t, Config{})
	var resp SimulateResponse
	status, raw := do(t, s, http.MethodPost, "/v1/simulate", SimulateRequest{
		Park:     "rand:16",
		Seasons:  1,
		Policies: []string{"uniform", "historical"},
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if resp.Park != "rand-16" || resp.Seasons != 1 || len(resp.Policies) != 2 {
		t.Fatalf("unexpected report: %s", raw)
	}
	if resp.Policies[0].Policy != "uniform" || len(resp.Policies[0].Seasons) != 1 {
		t.Fatalf("missing season log: %s", raw)
	}
	if !strings.Contains(resp.Text, "uniform") || !strings.Contains(resp.Text, "historical") {
		t.Fatalf("text rendering missing policies: %q", resp.Text)
	}
	if resp.Attacker != "adaptive" {
		t.Fatalf("default attacker %q, want adaptive", resp.Attacker)
	}
}

func TestSimulateEndpointValidation(t *testing.T) {
	s := testServer(t, Config{})
	cases := []SimulateRequest{
		{Park: "rand:16", Seasons: maxSimSeasons + 1},
		{Park: "rand:16", Seasons: 1, SeasonMonths: maxSimSeasonMonths + 1},
		{Park: "rand:16", Seasons: 1, Policies: make([]string, maxSimPolicies+1)},
		{Park: "rand:16", Seasons: 1, Beta: 1.5},
		{Park: "ATLANTIS", Seasons: 1},
		{Park: "rand:16", Seasons: 1, Policies: []string{"skynet"}},
		{Park: "rand:16", Seasons: 1, Attacker: "quantum"},
	}
	for i, req := range cases {
		if status, raw := do(t, s, http.MethodPost, "/v1/simulate", req, nil); status != http.StatusBadRequest {
			t.Errorf("case %d: status %d (%s), want 400", i, status, raw)
		}
	}
}

func TestSimulateEndpointTimeout(t *testing.T) {
	s := testServer(t, Config{})
	status, raw := do(t, s, http.MethodPost, "/v1/simulate", SimulateRequest{
		Park:      "MFNP",
		Seasons:   6,
		Policies:  []string{"paws"},
		TimeoutMS: 1,
	}, nil)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", status, raw)
	}
}
