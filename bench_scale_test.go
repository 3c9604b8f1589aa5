package paws_test

// Scale benchmarks and smoke tests for the columnar data path: procedural
// parks at 10^4, 10^5 and 10^6 cells (rand:7@<cells>) through the full
// pipeline — dataset build, training, risk-map generation and /v1/plan.
// Results are pinned in BENCH_scale.json.
//
// The benchmarks only run under -bench (tier-1 `go test ./...` never pays
// for a million-cell fixture); the smoke/end-to-end tests are opt-in via
// environment variables so CI invokes them deliberately with a wall budget
// (scripts/bench_scale_smoke.sh):
//
//	PAWS_SCALE_SMOKE=1  go test -run TestScaleSmoke -count=1 .
//	PAWS_SCALE_E2E=1e6  go test -run TestScalePlanEndToEnd -count=1 -timeout 30m .
//
// This file lives in package paws_test (not paws) so it can drive the real
// HTTP layer: internal/serve imports paws, so an in-package test would be an
// import cycle.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"paws"
	"paws/internal/dataset"
	"paws/internal/geo"
	"paws/internal/poach"
	"paws/internal/serve"
)

// scaleMonths bounds the simulated history per park size so fixture
// preparation stays proportionate: the benchmarks measure per-cell
// throughput, which is independent of history length.
func scaleMonths(cells int) int {
	switch {
	case cells >= 1_000_000:
		return 12
	case cells >= 100_000:
		return 24
	default:
		return 60
	}
}

// scaleFixture is one prepared park size: scenario, trained model, and the
// training points it was fitted on.
type scaleFixture struct {
	sc  *paws.Scenario
	pts []dataset.Point
	m   *paws.Model
}

var (
	scaleMu    sync.Mutex
	scaleCache = map[int]*scaleFixture{}
)

// scaleTrainOpts configure the DTB-iW model every park size trains.
var scaleTrainOpts = []paws.Option{paws.WithKind(paws.DTBiW), paws.WithThresholds(5), paws.WithEnsembleSize(5), paws.WithSeed(53)}

// scaleFixtureFor builds (once per process) the rand:7@cells scenario and a
// DTB-iW model sized for throughput benchmarking.
func scaleFixtureFor(tb testing.TB, cells int) *scaleFixture {
	tb.Helper()
	scaleMu.Lock()
	defer scaleMu.Unlock()
	if f, ok := scaleCache[cells]; ok {
		return f
	}
	parkCfg := geo.RandomConfigSized(7, cells)
	simCfg := poach.RandomSim(parkCfg, 8)
	simCfg.Months = scaleMonths(cells)
	sc, err := paws.NewCustomScenario(parkCfg, simCfg)
	if err != nil {
		tb.Fatalf("scenario rand:7@%d: %v", cells, err)
	}
	pts := sc.Data.AllPoints()
	m, err := paws.NewService().Train(context.Background(), pts, scaleTrainOpts...)
	if err != nil {
		tb.Fatalf("train at %d cells: %v", cells, err)
	}
	f := &scaleFixture{sc: sc, pts: pts, m: m}
	scaleCache[cells] = f
	return f
}

var scaleSizes = []struct {
	name  string
	cells int
}{
	{"cells=1e4", 10_000},
	{"cells=1e5", 100_000},
	{"cells=1e6", 1_000_000},
}

// perOpCells reports cells-per-second throughput for a benchmark whose op
// touches every park cell once.
func perOpCells(b *testing.B, cells int) {
	secPerOp := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(cells)/secPerOp, "cells/s")
}

// BenchmarkScaleBuild measures chunked streaming dataset assembly: history →
// flat T×N effort/label rasters → contiguous feature matrix.
func BenchmarkScaleBuild(b *testing.B) {
	for _, sz := range scaleSizes {
		b.Run(sz.name, func(b *testing.B) {
			f := scaleFixtureFor(b, sz.cells)
			steps := len(f.sc.Data.Steps)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := dataset.Build(f.sc.History, dataset.StandardConfig())
				if err != nil {
					b.Fatal(err)
				}
				if len(d.Steps) != steps {
					b.Fatalf("steps %d want %d", len(d.Steps), steps)
				}
			}
			secPerOp := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(float64(sz.cells)*float64(steps)/secPerOp, "cellsteps/s")
		})
	}
}

// BenchmarkScaleTrain measures DTB-iW training (5 thresholds × 5 members)
// over the flat feature matrix of each park size.
func BenchmarkScaleTrain(b *testing.B) {
	for _, sz := range scaleSizes {
		b.Run(sz.name, func(b *testing.B) {
			f := scaleFixtureFor(b, sz.cells)
			svc := paws.NewService()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.Train(context.Background(), f.pts, scaleTrainOpts...); err != nil {
					b.Fatal(err)
				}
			}
			secPerOp := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(float64(len(f.pts))/secPerOp, "points/s")
		})
	}
}

// BenchmarkScaleRiskMap measures park-wide risk + uncertainty map generation
// with a cold memo, like BenchmarkRiskMapGen but across the size ladder.
func BenchmarkScaleRiskMap(b *testing.B) {
	for _, sz := range scaleSizes {
		b.Run(sz.name, func(b *testing.B) {
			f := scaleFixtureFor(b, sz.cells)
			prev := len(f.sc.Data.Steps) - 1
			svc := paws.NewService()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Re-registering the name builds a fresh PlannerModel, so
				// every iteration starts from a cold memo.
				sm, err := svc.AddModel(ctx, "m", f.m, f.sc.Data, prev)
				if err != nil {
					b.Fatal(err)
				}
				risk, unc, err := sm.PlannerModel().Maps(ctx, 2)
				if err != nil {
					b.Fatal(err)
				}
				if len(risk) != sz.cells || len(unc) != sz.cells {
					b.Fatal("short map")
				}
			}
			perOpCells(b, sz.cells)
		})
	}
}

// BenchmarkScalePlan measures the hierarchical plan of the /v1/plan hot path
// (paws.CoarsePlan) against a registered model. Registration — including
// the planner feature matrix — happens once, as in a serving process.
func BenchmarkScalePlan(b *testing.B) {
	for _, sz := range scaleSizes {
		b.Run(sz.name, func(b *testing.B) {
			f := scaleFixtureFor(b, sz.cells)
			svc := paws.NewService(paws.WithWorkers(0))
			ctx := context.Background()
			sm, err := svc.AddModel(ctx, "m", f.m, f.sc.Data, len(f.sc.Data.Steps)-1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := paws.CoarsePlan(ctx, sm, 0)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Routes) == 0 {
					b.Fatal("no routes")
				}
			}
			perOpCells(b, sz.cells)
		})
	}
}

// TestScaleSmoke is the CI smoke test (scripts/bench_scale_smoke.sh): the
// full pipeline on a 10^4-cell park, with risk maps and hierarchical plans
// byte-compared across worker counts 1 and 8. Opt-in via PAWS_SCALE_SMOKE=1
// so ordinary `go test ./...` stays fast.
func TestScaleSmoke(t *testing.T) {
	if os.Getenv("PAWS_SCALE_SMOKE") == "" {
		t.Skip("set PAWS_SCALE_SMOKE=1 to run the scale smoke test")
	}
	f := scaleFixtureFor(t, 10_000)
	type outputs struct {
		risk, unc []float64
		plan      *paws.PlanResult
	}
	run := func(workers int) outputs {
		svc := paws.NewService(paws.WithWorkers(workers))
		ctx := context.Background()
		sm, err := svc.AddModel(ctx, "m", f.m, f.sc.Data, len(f.sc.Data.Steps)-1)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		risk, unc, err := svc.RiskMaps(ctx, "m", 2)
		if err != nil {
			t.Fatalf("workers=%d riskmaps: %v", workers, err)
		}
		res, err := paws.CoarsePlan(ctx, sm, workers)
		if err != nil {
			t.Fatalf("workers=%d plan: %v", workers, err)
		}
		return outputs{risk, unc, res}
	}
	ref := run(1)
	got := run(8)
	if !reflect.DeepEqual(ref.risk, got.risk) || !reflect.DeepEqual(ref.unc, got.unc) {
		t.Fatal("risk/uncertainty maps differ between workers 1 and 8")
	}
	if !reflect.DeepEqual(ref.plan.Effort, got.plan.Effort) ||
		!reflect.DeepEqual(ref.plan.Cells, got.plan.Cells) ||
		!reflect.DeepEqual(ref.plan.Routes, got.plan.Routes) {
		t.Fatal("hierarchical plan differs between workers 1 and 8")
	}
}

// TestScalePlanEndToEnd drives the real /v1/plan HTTP handler on a sized
// park — the million-cell acceptance check. Opt-in: PAWS_SCALE_E2E selects
// the size (1e4, 1e5 or 1e6).
func TestScalePlanEndToEnd(t *testing.T) {
	sel := os.Getenv("PAWS_SCALE_E2E")
	if sel == "" {
		t.Skip("set PAWS_SCALE_E2E=1e4|1e5|1e6 to run the end-to-end plan test")
	}
	cells := map[string]int{"1e4": 10_000, "1e5": 100_000, "1e6": 1_000_000}[sel]
	if cells == 0 {
		t.Fatalf("bad PAWS_SCALE_E2E %q", sel)
	}
	f := scaleFixtureFor(t, cells)
	svc := paws.NewService(paws.WithWorkers(0))
	if _, err := svc.AddModel(context.Background(), "m", f.m, f.sc.Data, len(f.sc.Data.Steps)-1); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(svc, serve.Config{})
	defer srv.Close(context.Background())

	body, _ := json.Marshal(serve.PlanRequest{Model: "m", Post: 0, Beta: 0.3})
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := time.Now()
	srv.ServeHTTP(rec, req)
	wall := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/plan status %d: %s", rec.Code, rec.Body.String())
	}
	var resp serve.PlanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Cells) == 0 || len(resp.Effort) != len(resp.Cells) || len(resp.Routes) == 0 {
		t.Fatalf("degenerate plan: %d cells, %d routes", len(resp.Cells), len(resp.Routes))
	}
	wantHier := cells >= paws.HierAutoCells
	if resp.Hierarchical != wantHier {
		t.Fatalf("hierarchical=%v at %d cells, want %v", resp.Hierarchical, cells, wantHier)
	}
	t.Logf("/v1/plan at %s cells: %d region cells, %d routes, objective %.4f, solve %.1f ms, HTTP wall %v",
		sel, len(resp.Cells), len(resp.Routes), resp.Objective, resp.RuntimeMS, wall)
}
