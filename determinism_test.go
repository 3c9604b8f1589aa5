package paws

// Determinism contract of the parallel execution layer (internal/par): for
// every model kind, training and prediction with Workers=N must produce
// byte-identical floats to Workers=1, and the PlannerModel must be safe for
// concurrent lookups (run these under -race). See par's package doc for the
// two-part contract (index-owned writes + pre-derived seeds).

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"paws/internal/ml"
	"paws/internal/plan"
)

// kindOutputs trains one model with the given worker count and returns its
// test-point predictions plus planner-model risk and uncertainty maps.
func kindOutputs(t *testing.T, sc *Scenario, kind ModelKind, workers int) (preds, risk, unc []float64) {
	t.Helper()
	year := sc.Data.Steps[len(sc.Data.Steps)-1].Year
	split, err := sc.Data.SplitByTestYear(year, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := append(quickOpts(kind, 5), WithWorkers(workers))
	if kind.IsIWare() {
		// Exercise the staged CV fan-out too.
		opts = append(opts, WithCVFolds(2))
	}
	m, err := NewService().Train(context.Background(), split.Train, opts...)
	if err != nil {
		t.Fatal(err)
	}
	preds = m.PredictPoints(split.Test)
	testFrom, _ := sc.Data.StepsForYear(year)
	pm, err := newPlannerModel(context.Background(), m, sc.Data, testFrom-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	pm.Workers = workers
	risk, unc = maps(t, pm, 1.5)
	return preds, risk, unc
}

func assertSameFloats(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d != %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s[%d]: %v != %v (parallel run diverged from sequential)", label, i, a[i], b[i])
		}
	}
}

// TestParallelDeterminismAllKinds is the headline determinism table: for
// every Table II model variant, a Workers=4 run of Train → PredictPoints →
// PlannerModel.Maps must be byte-identical to the Workers=1 run.
func TestParallelDeterminismAllKinds(t *testing.T) {
	sc := smallScenario(t, 21, false)
	for _, kind := range []ModelKind{SVB, DTB, GPB, SVBiW, DTBiW, GPBiW} {
		t.Run(kind.String(), func(t *testing.T) {
			p1, r1, u1 := kindOutputs(t, sc, kind, 1)
			p4, r4, u4 := kindOutputs(t, sc, kind, 4)
			assertSameFloats(t, "PredictPoints", p1, p4)
			assertSameFloats(t, "RiskMap", r1, r4)
			assertSameFloats(t, "UncertaintyMap", u1, u4)
		})
	}
}

// TestBatchPredictionMatchesPointwise pins the public batch API to the
// pointwise path for both a plain ensemble and an iWare-E model.
func TestBatchPredictionMatchesPointwise(t *testing.T) {
	sc := smallScenario(t, 23, false)
	year := sc.Data.Steps[len(sc.Data.Steps)-1].Year
	split, err := sc.Data.SplitByTestYear(year, 3)
	if err != nil {
		t.Fatal(err)
	}
	X := make([][]float64, len(split.Test))
	for i, p := range split.Test {
		X[i] = p.Features
	}
	for _, kind := range []ModelKind{DTB, GPBiW} {
		t.Run(kind.String(), func(t *testing.T) {
			m, err := NewService().Train(context.Background(), split.Train, quickOpts(kind, 9)...)
			if err != nil {
				t.Fatal(err)
			}
			const effort = 1.3
			ps, vs := m.PredictWithVarianceFlat(ml.MatrixFromRows(X), effort)
			for i, x := range X {
				wp, wv := m.PredictWithVariance(x, effort)
				if ps[i] != wp || vs[i] != wv {
					t.Fatalf("point %d: variance batch diverged", i)
				}
			}
		})
	}
}

// TestPlannerModelConcurrentLookups hammers one PlannerModel from many
// goroutines — whole-map sweeps racing batched Eval calls over overlapping
// cells and efforts — and checks every value against a sequential
// reference. Run under -race this doubles as the ladder memo's data-race
// proof.
func TestPlannerModelConcurrentLookups(t *testing.T) {
	sc := smallScenario(t, 27, false)
	year := sc.Data.Steps[len(sc.Data.Steps)-1].Year
	split, err := sc.Data.SplitByTestYear(year, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewService().Train(context.Background(), split.Train, quickOpts(DTBiW, 7)...)
	if err != nil {
		t.Fatal(err)
	}
	testFrom, _ := sc.Data.StepsForYear(year)
	newPM := func() *PlannerModel {
		pm, err := newPlannerModel(context.Background(), m, sc.Data, testFrom-1, 0)
		if err != nil {
			t.Fatal(err)
		}
		return pm
	}
	efforts := []float64{0.5, 1, 2}
	// Sequential reference from a fresh (independently memoized) adapter.
	ref := newPM()
	ref.Workers = 1
	wantDetect := map[float64][]float64{}
	wantUnc := map[float64][]float64{}
	for _, e := range efforts {
		wantDetect[e], wantUnc[e] = maps(t, ref, e)
	}
	pm := newPM()
	n := sc.Park.Grid.NumCells()
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := efforts[g%len(efforts)]
			if g%4 == 0 {
				// Whole-map readers race against Eval readers. Report
				// through errCh: t.Fatal must not run off the test goroutine.
				got, _, err := pm.Maps(context.Background(), e)
				if err != nil {
					errCh <- err
					return
				}
				if len(got) != len(wantDetect[e]) {
					errCh <- fmt.Errorf("concurrent RiskMap length %d, want %d", len(got), len(wantDetect[e]))
					return
				}
				for cell := range got {
					if got[cell] != wantDetect[e][cell] {
						errCh <- errMismatch(cell, got[cell], wantDetect[e][cell])
						return
					}
				}
				return
			}
			// Batched lookups: every 7th cell from a per-goroutine offset,
			// each paired with a per-cell effort, in batches of 16.
			var cells []int
			var effs []float64
			for cell := g % 7; cell < n; cell += 7 {
				cells = append(cells, cell)
				effs = append(effs, efforts[(cell+g)%len(efforts)])
			}
			for lo := 0; lo < len(cells); lo += 16 {
				hi := min(lo+16, len(cells))
				gs, nus := make([]float64, hi-lo), make([]float64, hi-lo)
				pm.Eval(cells[lo:hi], effs[lo:hi], gs, nus)
				for k, cell := range cells[lo:hi] {
					e := effs[lo+k]
					if gs[k] != wantDetect[e][cell] {
						errCh <- errMismatch(cell, gs[k], wantDetect[e][cell])
						return
					}
					if nus[k] != wantUnc[e][cell] {
						errCh <- errMismatch(cell, nus[k], wantUnc[e][cell])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func errMismatch(cell int, got, want float64) error {
	return fmt.Errorf("concurrent lookup mismatch at cell %d: got %v, want %v", cell, got, want)
}

// TestTable2SweepDeterminism asserts the experiment-layer fan-out returns
// the same rows for any worker count.
func TestTable2SweepDeterminism(t *testing.T) {
	sc := smallScenario(t, 29, false)
	year := sc.Data.Steps[len(sc.Data.Steps)-1].Year
	run := func(workers int) []Table2Row {
		rows, err := NewService(WithWorkers(workers)).Table2(context.Background(), sc, "SMALL",
			WithKinds(DTB, DTBiW), WithTestYears(year),
			WithThresholds(4), WithEnsembleSize(4), WithSeed(31))
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	seq, par4 := run(1), run(4)
	if len(seq) != len(par4) {
		t.Fatalf("row counts differ: %d vs %d", len(seq), len(par4))
	}
	for i := range seq {
		if seq[i] != par4[i] {
			t.Fatalf("row %d: %+v != %+v", i, seq[i], par4[i])
		}
	}
}

// CoarsePlan is the plan Service.Plan makes for post 0 at beta 0.3 on a
// park of HierAutoCells cells or more — plan.SolveHierarchical on the
// registered model's PlannerModel with Plan's default horizon and region
// cap, then its routes — made on a park of any size. It is exported for the
// scale tests of package paws_test.
func CoarsePlan(ctx context.Context, sm *ServedModel, workers int) (*PlanResult, error) {
	cfg := plan.Config{T: 8, K: 2, Segments: 8, Beta: 0.3, Workers: workers}
	p, region, err := plan.SolveHierarchical(ctx, sm.Park(), sm.Park().Posts[0], sm.PlannerModel(), cfg, 40)
	if err != nil {
		return nil, err
	}
	routes, err := plan.ExtractRoutes(region, p.Effort, cfg.T, int(cfg.K))
	if err != nil {
		return nil, err
	}
	res := &PlanResult{Cells: region.Cells, Effort: p.Effort, Hierarchical: true}
	for _, r := range routes {
		res.Routes = append(res.Routes, r.ParkCells(region))
	}
	return res, nil
}

// TestPresetPipelineWorkerInvariance runs the serving pipeline on an
// existing preset park at Workers 1, 4 and 8 — train, risk maps, the
// served plan and the coarse-pass plan (CoarsePlan) — and requires
// byte-identical outputs. Preset parks sit below HierAutoCells, so the
// served plan must keep using the exact per-post solver (the columnar
// refactor's backwards-compatibility check) while the coarse pass must obey
// the same determinism contract.
func TestPresetPipelineWorkerInvariance(t *testing.T) {
	ctx := context.Background()
	sc, err := NewService(WithSeed(7)).Scenario(ctx, "MFNP", WithScale(ScaleSmall))
	if err != nil {
		t.Fatal(err)
	}
	prev := len(sc.Data.Steps) - 1
	type outputs struct {
		risk, unc   []float64
		exact, hier *PlanResult
	}
	run := func(workers int) outputs {
		svc := NewService(WithWorkers(workers))
		m, err := svc.Train(ctx, sc.Data.AllPoints(), quickOpts(DTBiW, 53)...)
		if err != nil {
			t.Fatalf("workers=%d train: %v", workers, err)
		}
		sm, err := svc.AddModel(ctx, "m", m, sc.Data, prev)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		risk, unc, err := svc.RiskMaps(ctx, "m", 2)
		if err != nil {
			t.Fatalf("workers=%d riskmaps: %v", workers, err)
		}
		exact, err := svc.Plan(ctx, "m", 0, 0.3)
		if err != nil {
			t.Fatalf("workers=%d plan: %v", workers, err)
		}
		hier, err := CoarsePlan(ctx, sm, workers)
		if err != nil {
			t.Fatalf("workers=%d hierarchical plan: %v", workers, err)
		}
		return outputs{risk, unc, exact, hier}
	}
	ref := run(1)
	if ref.exact.Hierarchical {
		t.Fatal("default plan on a preset park must use the exact solver")
	}
	for _, workers := range []int{4, 8} {
		got := run(workers)
		assertSameFloats(t, fmt.Sprintf("workers=%d RiskMap", workers), ref.risk, got.risk)
		assertSameFloats(t, fmt.Sprintf("workers=%d UncertaintyMap", workers), ref.unc, got.unc)
		for _, p := range []struct {
			name     string
			ref, got *PlanResult
		}{{"exact", ref.exact, got.exact}, {"hierarchical", ref.hier, got.hier}} {
			if !reflect.DeepEqual(p.ref.Cells, p.got.Cells) ||
				!reflect.DeepEqual(p.ref.Effort, p.got.Effort) ||
				!reflect.DeepEqual(p.ref.Routes, p.got.Routes) {
				t.Fatalf("workers=%d: %s plan diverged from sequential", workers, p.name)
			}
		}
	}
}
