package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"paws"
	"paws/internal/campaign"
)

// FuzzClosedLoopRequest decodes arbitrary bytes with decodeBody as a
// SimulateRequest and as a CampaignJobRequest and submits each to
// simulateFn and campaignFn. It only validates: the job functions they
// return never run. Neither may panic; every accepted request must stay
// within the server caps (seasons, season months, policy count, campaign
// cells), and every park it names, after range expansion, must pass
// paws.ValidateParkSpec.
func FuzzClosedLoopRequest(f *testing.F) {
	for _, req := range []any{
		fastSim(2),
		fastCampaign(),
		SimulateRequest{Seasons: -3},
		SimulateRequest{SeasonMonths: -1},
		SimulateRequest{BudgetKM: -5},
		SimulateRequest{Policies: []string{"uniform", "skynet"}},
		SimulateRequest{Policies: []string{"uniform", "uniform"}},
		SimulateRequest{Attacker: "quantum"},
		SimulateRequest{Beta: 1.5},
		SimulateRequest{Park: "rand:16", Seasons: maxSimSeasons + 1},
		SimulateRequest{Park: "rand:16", Seasons: 1, SeasonMonths: maxSimSeasonMonths + 1},
		SimulateRequest{Park: "rand:16", Seasons: 1, Policies: make([]string, maxSimPolicies+1)},
		SimulateRequest{Park: "ATLANTIS", Seasons: 1},
		CampaignJobRequest{Parks: []string{"ATLANTIS"}},
		CampaignJobRequest{Parks: []string{"rand:9-2"}},
		CampaignJobRequest{Parks: []string{"rand:0-9223372036854775807"}},
		CampaignJobRequest{Parks: []string{"rand:1-200"}},
		CampaignJobRequest{Parks: []string{"rand:1-8"}, Seeds: []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}},
		CampaignJobRequest{Seeds: []int64{1, 1}},
		CampaignJobRequest{Policies: []string{"uniform", ""}},
		CampaignJobRequest{SeasonCounts: []int{0}},
		CampaignJobRequest{SeasonCounts: []int{99}},
		CampaignJobRequest{SeasonMonths: 99},
		CampaignJobRequest{Baseline: "skynet"},
		CampaignJobRequest{Resamples: 1_000_000},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	s := New(paws.NewService(), Config{})
	f.Cleanup(func() { s.Close(context.Background()) })
	f.Fuzz(func(t *testing.T, body []byte) {
		var sim SimulateRequest
		if decode(body, &sim) == nil {
			if _, err := s.simulateFn(sim); err == nil {
				if sim.Seasons > maxSimSeasons || sim.SeasonMonths > maxSimSeasonMonths || len(sim.Policies) > maxSimPolicies {
					t.Fatalf("simulate request over the caps accepted: %+v", sim)
				}
				if err := paws.ValidateParkSpec(cmp.Or(sim.Park, "MFNP")); err != nil {
					t.Fatalf("simulate request with park %q accepted: %v", sim.Park, err)
				}
			}
		}
		var camp CampaignJobRequest
		if decode(body, &camp) == nil {
			if _, err := s.campaignFn(camp); err == nil {
				for _, n := range camp.SeasonCounts {
					if n > maxSimSeasons {
						t.Fatalf("campaign season count %d over the cap accepted: %+v", n, camp)
					}
				}
				if camp.SeasonMonths > maxSimSeasonMonths || len(camp.Policies) > maxSimPolicies {
					t.Fatalf("campaign request over the caps accepted: %+v", camp)
				}
				parks := camp.Parks
				if len(parks) == 0 {
					parks = []string{"MFNP"}
				}
				parks, err := campaign.ExpandParks(parks)
				if err != nil {
					t.Fatalf("campaign parks %q accepted but do not expand: %v", camp.Parks, err)
				}
				for _, p := range parks {
					if err := paws.ValidateParkSpec(p); err != nil {
						t.Fatalf("campaign park %q accepted: %v", p, err)
					}
				}
				// Empty grid dimensions take the library defaults: three
				// seeds and one season count.
				cells := len(parks) * max(len(camp.Seeds), 3) * max(len(camp.SeasonCounts), 1)
				if cells > maxCampaignCells {
					t.Fatalf("campaign grid of %d cells accepted: %+v", cells, camp)
				}
			}
		}
	})
}

// decode decodes a request body with decodeBody, as a handler does.
func decode(body []byte, v any) error {
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	return decodeBody(httptest.NewRecorder(), r, v)
}

// FuzzTrainingRequest decodes arbitrary bytes with decodeBody as a
// TrainJobRequest and as a Table2JobRequest and submits each to trainFn and
// table2Fn. It only validates: the job functions they return never run.
// Neither may panic; every accepted request must stay within the training
// caps and name a valid park spec, scale and model kinds.
func FuzzTrainingRequest(f *testing.F) {
	for _, req := range []any{
		TrainJobRequest{Name: "x"},
		TrainJobRequest{Name: "x", Park: "rand:16", Scale: "full", Kind: "GPB-iW", Thresholds: 3, Members: 3, CVFolds: 2},
		TrainJobRequest{Park: "rand:16"},
		TrainJobRequest{Name: "x", Park: "ATLANTIS"},
		TrainJobRequest{Name: "x", Scale: "huge"},
		TrainJobRequest{Name: "x", Kind: "XGB"},
		TrainJobRequest{Name: "x", Thresholds: maxTrainThresholds + 1},
		TrainJobRequest{Name: "x", Members: 1_000_000_000},
		TrainJobRequest{Name: "x", CVFolds: maxTrainCVFolds + 1},
		Table2JobRequest{Park: "rand:16", Kinds: []string{"DTB", "GPB-iW"}, TestYears: []int{2017}, Members: 3},
		Table2JobRequest{Kinds: []string{"SVB", "nope"}},
		Table2JobRequest{Kinds: make([]string, maxTable2Kinds+1)},
		Table2JobRequest{TestYears: make([]int, maxTable2TestYears+1)},
		Table2JobRequest{Thresholds: maxTrainThresholds + 1},
		Table2JobRequest{Members: maxTrainMembers + 1},
		Table2JobRequest{Scale: "tiny"},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	s := New(paws.NewService(), Config{})
	f.Cleanup(func() { s.Close(context.Background()) })
	// checkNames fails unless the park spec, scale and every kind an
	// accepted request names (or defaults to) are valid.
	checkNames := func(t *testing.T, park, scale string, kinds []string) {
		if err := paws.ValidateParkSpec(cmp.Or(park, "MFNP")); err != nil {
			t.Fatalf("request with park %q accepted: %v", park, err)
		}
		if _, err := paws.ParseScale(cmp.Or(scale, "small")); err != nil {
			t.Fatalf("request with scale %q accepted: %v", scale, err)
		}
		for _, k := range kinds {
			if _, err := paws.ParseModelKind(k); err != nil {
				t.Fatalf("request with kind %q accepted: %v", k, err)
			}
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var tr TrainJobRequest
		if decode(body, &tr) == nil {
			if _, err := s.trainFn(tr); err == nil {
				if tr.Thresholds > maxTrainThresholds || tr.Members > maxTrainMembers || tr.CVFolds > maxTrainCVFolds {
					t.Fatalf("train request over the caps accepted: %+v", tr)
				}
				checkNames(t, tr.Park, tr.Scale, []string{cmp.Or(tr.Kind, "DTB-iW")})
			}
		}
		var t2 Table2JobRequest
		if decode(body, &t2) == nil {
			if _, err := s.table2Fn(t2); err == nil {
				if t2.Thresholds > maxTrainThresholds || t2.Members > maxTrainMembers ||
					len(t2.Kinds) > maxTable2Kinds || len(t2.TestYears) > maxTable2TestYears {
					t.Fatalf("table2 request over the caps accepted: %+v", t2)
				}
				checkNames(t, t2.Park, t2.Scale, t2.Kinds)
			}
		}
	})
}

// smallServer serves a DTB-iW model of the procedural park rand:16 under
// the name "default", small enough to fuzz quickly. It returns the server
// and the park's cell count.
func smallServer(tb testing.TB) (*Server, int) {
	tb.Helper()
	smallOnce.Do(func() {
		ctx := context.Background()
		svc := paws.NewService(paws.WithWorkers(1), paws.WithSeed(3),
			paws.WithThresholds(3), paws.WithEnsembleSize(3), paws.WithTreeDepth(4))
		sc, err := svc.Scenario(ctx, "rand:16")
		if err != nil {
			smallErr = err
			return
		}
		year := sc.Data.Steps[len(sc.Data.Steps)-1].Year
		split, err := sc.Data.SplitByTestYear(year, 3)
		if err != nil {
			smallErr = err
			return
		}
		m, err := svc.Train(ctx, split.Train, paws.WithKind(paws.DTBiW))
		if err != nil {
			smallErr = err
			return
		}
		testFrom, _ := sc.Data.StepsForYear(year)
		if _, err := svc.AddModel(ctx, "default", m, sc.Data, testFrom-1); err != nil {
			smallErr = err
			return
		}
		smallSrv, smallCells = New(svc, Config{}), sc.Park.Grid.NumCells()
	})
	if smallErr != nil {
		tb.Fatal(smallErr)
	}
	return smallSrv, smallCells
}

var (
	smallOnce  sync.Once
	smallSrv   *Server
	smallCells int
	smallErr   error
)

// FuzzPredictRequest posts arbitrary bytes to /v1/predict and /v1/riskmap
// through the full handler, on smallServer's model. No request may panic
// or answer 5xx, except 504 when the body set its own timeout_ms. A 200
// predict carries one probability per requested row, a 200 riskmap one
// risk and one uncertainty per cell, and a cells request on the served
// model that names a cell outside [0, cells) answers 400.
func FuzzPredictRequest(f *testing.F) {
	s, n := smallServer(f)
	sm, _ := s.svc.Served("default")
	row := make([]float64, sm.FeatureDim())
	// The fixture must serve, or every fuzzed request would fail alike.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict",
		strings.NewReader(fmt.Sprintf(`{"effort":1,"cells":[0,%d]}`, n-1))))
	if rec.Code != http.StatusOK {
		f.Fatalf("predict on the fixture: status %d, body %s", rec.Code, rec.Body)
	}
	for _, req := range []any{
		PredictRequest{Effort: 1, Cells: []int{-1}},
		PredictRequest{Effort: 1, Cells: []int{0}},
		PredictRequest{Effort: 1, Cells: []int{n - 1}},
		PredictRequest{Effort: 1, Cells: []int{n}},
		PredictRequest{Effort: 1, Cells: make([]int, maxPredictRows+1)},
		PredictRequest{Model: "default", Effort: 2.5, Cells: []int{0, n / 2, n - 1}, TimeoutMS: 1000},
		PredictRequest{Effort: 1, Features: [][]float64{row}, Variance: true},
		PredictRequest{Effort: 1, Features: [][]float64{row[1:]}},
		PredictRequest{Effort: 1, Features: [][]float64{row}, Cells: []int{0}},
		PredictRequest{Effort: 1, Cells: []int{0}, Variance: true},
		PredictRequest{Effort: -1, Cells: []int{0}},
		PredictRequest{Model: "nope", Effort: 1, Cells: []int{0}},
		RiskMapRequest{Effort: 1.5},
		RiskMapRequest{Effort: 1e308},
		RiskMapRequest{Effort: 0},
		RiskMapRequest{Model: "nope", Effort: 1},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		post := func(path string, v any) (int, []byte, bool) {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			// Decode as the handler does, to know what it was asked.
			decoded := decodeBody(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)), v) == nil
			return rec.Code, rec.Body.Bytes(), decoded
		}
		check5xx := func(path string, code int, timeoutMS int, raw []byte) {
			if code >= 500 && (code != http.StatusGatewayTimeout || timeoutMS <= 0) {
				t.Fatalf("%s answered %d to %q: %s", path, code, body, raw)
			}
		}

		var pr PredictRequest
		code, raw, ok := post("/v1/predict", &pr)
		check5xx("/v1/predict", code, pr.TimeoutMS, raw)
		if code == http.StatusOK {
			var resp PredictResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatalf("predict 200 body %q: %v", raw, err)
			}
			if !ok || len(resp.Probs) != len(pr.Cells)+len(pr.Features) {
				t.Fatalf("predict 200 with %d probs for %d cells and %d rows", len(resp.Probs), len(pr.Cells), len(pr.Features))
			}
		}
		if ok && (pr.Model == "" || pr.Model == "default") {
			for _, c := range pr.Cells {
				if (c < 0 || c >= n) && code != http.StatusBadRequest {
					t.Fatalf("predict naming cell %d of %d answered %d: %s", c, n, code, raw)
				}
			}
		}

		var rr RiskMapRequest
		code, raw, _ = post("/v1/riskmap", &rr)
		check5xx("/v1/riskmap", code, rr.TimeoutMS, raw)
		if code == http.StatusOK {
			var resp RiskMapResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatalf("riskmap 200 body %q: %v", raw, err)
			}
			if len(resp.Risk) != n || len(resp.Uncertainty) != n {
				t.Fatalf("riskmap 200 with %d risks and %d uncertainties for %d cells", len(resp.Risk), len(resp.Uncertainty), n)
			}
		}
	})
}
