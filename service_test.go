package paws

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// serviceFixture trains a quick model and registers it on a fresh Service.
func serviceFixture(t testing.TB, kind ModelKind) (*Service, *Scenario) {
	t.Helper()
	sc := smallScenario(t, 51, false)
	year := sc.Data.Steps[len(sc.Data.Steps)-1].Year
	split, err := sc.Data.SplitByTestYear(year, 3)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(WithWorkers(2))
	m, err := svc.Train(context.Background(), split.Train,
		WithKind(kind), WithThresholds(4), WithEnsembleSize(4), WithGPMaxTrain(60), WithTreeDepth(6), WithSeed(17))
	if err != nil {
		t.Fatal(err)
	}
	testFrom, _ := sc.Data.StepsForYear(year)
	if _, err := svc.AddModel(context.Background(), "default", m, sc.Data, testFrom-1); err != nil {
		t.Fatal(err)
	}
	return svc, sc
}

// TestServiceTrainMatchesLegacyTrain checks the functional-options path of
// Service.Train lowers to exactly the TrainOptions struct taken by the free
// function Train: identical predictions.
func TestServiceTrainMatchesLegacyTrain(t *testing.T) {
	sc := smallScenario(t, 53, false)
	year := sc.Data.Steps[len(sc.Data.Steps)-1].Year
	split, err := sc.Data.SplitByTestYear(year, 3)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(WithSeed(17), WithThresholds(4), WithEnsembleSize(4), WithGPMaxTrain(60), WithTreeDepth(6))
	for _, kind := range []ModelKind{DTB, GPBiW} {
		newAPI, err := svc.Train(context.Background(), split.Train, WithKind(kind))
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := Train(context.Background(), split.Train, quickTrainOpts(kind, 17))
		if err != nil {
			t.Fatal(err)
		}
		assertSameFloats(t, kind.String(),
			newAPI.PredictPoints(split.Test), legacy.PredictPoints(split.Test))
	}
}

// TestTrainCtxCanceled checks an already-dead context passed to Train aborts
// training before any work and surfaces the context error unwrapped.
func TestTrainCtxCanceled(t *testing.T) {
	sc := smallScenario(t, 55, false)
	year := sc.Data.Steps[len(sc.Data.Steps)-1].Year
	split, err := sc.Data.SplitByTestYear(year, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Train(ctx, split.Train, quickTrainOpts(GPBiW, 17)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Train on canceled ctx: err = %v, want context.Canceled", err)
	}
}

// TestTrainCtxDeadlineMidTraining checks a deadline expiring during the
// ensemble fit aborts mid-sweep with context.DeadlineExceeded.
func TestTrainCtxDeadlineMidTraining(t *testing.T) {
	sc := smallScenario(t, 57, false)
	year := sc.Data.Steps[len(sc.Data.Steps)-1].Year
	split, err := sc.Data.SplitByTestYear(year, 3)
	if err != nil {
		t.Fatal(err)
	}
	// GPB-iW with a CV pass takes seconds; 5ms cannot finish it.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	opts := quickTrainOpts(GPBiW, 17)
	opts.CVFolds = 3
	start := time.Now()
	_, err = Train(ctx, split.Train, opts)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Train past deadline: err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("training ran %v after a 5ms deadline (cancellation not observed mid-sweep)", elapsed)
	}
}

// TestEntryPointsHonourCanceledContext calls every context-taking root
// entry point with an already-canceled context: each must fail with
// context.Canceled rather than compute.
func TestEntryPointsHonourCanceledContext(t *testing.T) {
	sc := smallScenario(t, 83, false)
	year := sc.Data.Steps[len(sc.Data.Steps)-1].Year
	split, err := sc.Data.SplitByTestYear(year, 3)
	if err != nil {
		t.Fatal(err)
	}
	live := context.Background()
	opts := quickTrainOpts(DTBiW, 89)
	m, err := Train(live, split.Train, opts)
	if err != nil {
		t.Fatal(err)
	}
	testFrom, _ := sc.Data.StepsForYear(year)
	pm, err := NewPlannerModel(live, m, sc.Data, testFrom-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPlanStudy(live, sc, PlanStudyOptions{
		Posts: 1, Radius: 2, MaxCells: 8, T: 4, K: 1, Segments: 3,
		SegmentCounts: []int{3}, TestYear: year, Train: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(WithScale(ScaleSmall))
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		call func(ctx context.Context) error
	}{
		{"Service.Scenario", func(ctx context.Context) error {
			_, err := svc.Scenario(ctx, "MFNP")
			return err
		}},
		{"Service.Simulate", func(ctx context.Context) error {
			_, err := svc.Simulate(ctx, SimConfig{Park: "rand:8", Seasons: 1, Policies: []string{"paws"}})
			return err
		}},
		{"TrainWithThresholds", func(ctx context.Context) error {
			_, err := TrainWithThresholds(ctx, split.Train, []float64{0, 1, 2}, opts)
			return err
		}},
		{"NewPlannerModel", func(ctx context.Context) error {
			_, err := NewPlannerModel(ctx, m, sc.Data, testFrom-1, 0)
			return err
		}},
		{"PlannerModel.Maps", func(ctx context.Context) error {
			_, _, err := pm.Maps(ctx, 1)
			return err
		}},
		{"RunTable1", func(ctx context.Context) error {
			_, err := RunTable1(ctx, 1, 0)
			return err
		}},
		{"RunTable2ForScenario", func(ctx context.Context) error {
			_, err := RunTable2ForScenario(ctx, sc, "SMALL", Table2Options{TestYears: []int{year}, Train: opts})
			return err
		}},
		{"RunFig4", func(ctx context.Context) error {
			_, err := RunFig4(ctx, sc, "SMALL", year, 3, false)
			return err
		}},
		{"RunFig6", func(ctx context.Context) error {
			_, err := RunFig6(ctx, sc, DTBiW, year, 3, opts)
			return err
		}},
		{"RunFig7", func(ctx context.Context) error {
			_, err := RunFig7(ctx, sc, year, 3, opts)
			return err
		}},
		{"NewPlanStudy", func(ctx context.Context) error {
			_, err := NewPlanStudy(ctx, sc, PlanStudyOptions{TestYear: year, Train: opts})
			return err
		}},
		{"PlanStudy.RunFig8Beta", func(ctx context.Context) error {
			_, err := ps.RunFig8Beta(ctx)
			return err
		}},
		{"PlanStudy.RunFig8Segments", func(ctx context.Context) error {
			_, err := ps.RunFig8Segments(ctx)
			return err
		}},
		{"PlanStudy.RunFig9", func(ctx context.Context) error {
			_, err := ps.RunFig9(ctx)
			return err
		}},
		{"PlanStudy.RunDetectionGain", func(ctx context.Context) error {
			_, err := ps.RunDetectionGain(ctx, 2, 97)
			return err
		}},
		{"RunTable3ForScenario", func(ctx context.Context) error {
			_, err := RunTable3ForScenario(ctx, sc, "SMALL", 2, []int{1}, Table3Options{Train: opts})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.call(canceled); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

// TestServiceTable2HonoursTrainSettings checks that Service.Table2 trains
// each cell with every merged training setting, tree depth and ladder
// percentile included: each row's AUC must equal that of Service.Train under
// the same options and the cell's grid seed, on the same split.
func TestServiceTable2HonoursTrainSettings(t *testing.T) {
	ctx := context.Background()
	sc := smallScenario(t, 59, false)
	year := sc.Data.Steps[len(sc.Data.Steps)-1].Year
	split, err := sc.Data.SplitByTestYear(year, 3)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 61
	svc := NewService(WithSeed(seed), WithThresholds(4), WithEnsembleSize(4),
		WithTreeDepth(2), WithMaxThresholdPercentile(60))
	kinds := []ModelKind{DTB, DTBiW}
	rows, err := svc.Table2(ctx, sc, "SMALL", WithKinds(kinds...), WithTestYears(year))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(kinds) {
		t.Fatalf("rows = %d, want %d", len(rows), len(kinds))
	}
	for ki, row := range rows {
		// One test year, so the cell's grid seed is the root seed plus its
		// kind index.
		m, err := svc.Train(ctx, split.Train, WithKind(kinds[ki]), WithSeed(seed+int64(ki)))
		if err != nil {
			t.Fatal(err)
		}
		if row.Kind != kinds[ki] {
			t.Fatalf("row %d kind %v, want %v", ki, row.Kind, kinds[ki])
		}
		if want := m.AUC(split.Test); row.AUC != want {
			t.Errorf("%v: Table2 AUC %.4f, Service.Train AUC %.4f", row.Kind, row.AUC, want)
		}
	}
}

// TestRiskMapCtxDeadlineAbortsSweepEarly is the serving-path acceptance
// test: a park-wide PlannerModel.Maps sweep (through Service.RiskMaps) under
// an expired deadline must abort early with context.DeadlineExceeded instead
// of evaluating every cell.
func TestRiskMapCtxDeadlineAbortsSweepEarly(t *testing.T) {
	svc, _ := serviceFixture(t, GPBiW)
	sm, _ := svc.Served("default")
	n := sm.Park().Grid.NumCells()

	// Expired before the sweep starts: nothing may be evaluated.
	before := sm.pm.evals.Load()
	dead, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := svc.RiskMaps(dead, "default", 1.5); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RiskMaps past deadline: err = %v, want context.DeadlineExceeded", err)
	}
	if got := sm.pm.evals.Load(); got != before {
		t.Fatalf("expired sweep evaluated %d rungs, want 0", got-before)
	}

	// Expiring mid-sweep: the memoized prefix must cover strictly fewer
	// cells than the park — the sweep stopped early — and the error must
	// still surface. The sweep runs sequentially at an effort that
	// qualifies the whole ladder, so it spans several chunks of real work.
	sm.pm.Workers = 1
	const top = 8
	short, cancel2 := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel2()
	if _, _, err := svc.RiskMaps(short, "default", top); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RiskMaps with 2ms budget: err = %v, want context.DeadlineExceeded", err)
	}
	if covered := sm.pm.covered(top); covered >= n {
		t.Fatalf("all %d cells evaluated despite the 2ms deadline (sweep did not abort early)", n)
	}

	// A live context still produces the full maps afterwards.
	risk, unc, err := svc.RiskMaps(context.Background(), "default", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(risk) != n || len(unc) != len(risk) {
		t.Fatalf("map sizes %d/%d, want %d", len(risk), len(unc), n)
	}
}

// TestServicePredictConcurrentDeterministic floods one served model with
// parallel Predict calls (run under -race in CI) and checks every response
// is byte-identical to the sequential answer.
func TestServicePredictConcurrentDeterministic(t *testing.T) {
	svc, sc := serviceFixture(t, GPBiW)
	year := sc.Data.Steps[len(sc.Data.Steps)-1].Year
	split, err := sc.Data.SplitByTestYear(year, 3)
	if err != nil {
		t.Fatal(err)
	}
	X := make([][]float64, 0, 120)
	for _, p := range split.Test {
		X = append(X, append([]float64(nil), p.Features...))
		if len(X) == 120 {
			break
		}
	}
	efforts := []float64{0.5, 1.5, 3}
	want := map[float64][]float64{}
	for _, e := range efforts {
		w, err := svc.Predict(context.Background(), "default", X, e)
		if err != nil {
			t.Fatal(err)
		}
		want[e] = w
	}
	const goroutines = 12
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := efforts[g%len(efforts)]
			got, err := svc.Predict(context.Background(), "default", X, e)
			if err != nil {
				errCh <- err
				return
			}
			for i := range got {
				if got[i] != want[e][i] {
					errCh <- errors.New("concurrent Predict diverged from sequential answer")
					return
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

// TestServicePredictMatchesPointwise pins Predict and PredictWithVariance,
// which convert their rows to one flat matrix and score it in
// predictChunkSize chunks, to the pointwise model bit for bit.
func TestServicePredictMatchesPointwise(t *testing.T) {
	ctx := context.Background()
	for _, kind := range []ModelKind{GPBiW, DTB} {
		t.Run(kind.String(), func(t *testing.T) {
			svc, sc := serviceFixture(t, kind)
			sm, _ := svc.Served("default")
			pts := sc.Data.AllPoints()
			X := make([][]float64, 600) // three chunks, the last one partial
			for i := range X {
				X[i] = pts[(i*7)%len(pts)].Features
			}
			const effort = 1.3
			for _, workers := range []int{1, 4} {
				probs, err := svc.Predict(ctx, "default", X, effort, WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				ps, vs, err := svc.PredictWithVariance(ctx, "default", X, effort, WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				for i, x := range X {
					if want := sm.Model.PredictForEffort(x, effort); probs[i] != want {
						t.Fatalf("workers=%d row %d: Predict %v != pointwise %v", workers, i, probs[i], want)
					}
					if wp, wv := sm.Model.PredictWithVariance(x, effort); ps[i] != wp || vs[i] != wv {
						t.Fatalf("workers=%d row %d: PredictWithVariance (%v, %v) != pointwise (%v, %v)", workers, i, ps[i], vs[i], wp, wv)
					}
				}
			}
		})
	}
}

// TestServicePredictValidation checks unknown models and malformed rows are
// rejected before any model work.
func TestServicePredictValidation(t *testing.T) {
	svc, _ := serviceFixture(t, DTB)
	if _, err := svc.Predict(context.Background(), "nope", nil, 1); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model: err = %v, want ErrUnknownModel", err)
	}
	if _, err := svc.Predict(context.Background(), "default", [][]float64{{1, 2}}, 1); err == nil {
		t.Fatal("short feature row accepted")
	}
	if _, err := svc.PredictCells(context.Background(), "default", []int{-1}, 1); err == nil {
		t.Fatal("negative cell accepted")
	}
}

// TestServicePredictCellsMatchesRiskMap checks the by-cell serving path is
// consistent with the park-wide sweep.
func TestServicePredictCellsMatchesRiskMap(t *testing.T) {
	svc, _ := serviceFixture(t, DTBiW)
	risk, _, err := svc.RiskMaps(context.Background(), "default", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	cells := []int{0, 7, 42, len(risk) - 1}
	got, err := svc.PredictCells(context.Background(), "default", cells, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if got[i] != risk[c] {
			t.Fatalf("cell %d: PredictCells %v != RiskMap %v", c, got[i], risk[c])
		}
	}
}

// TestServicePlan checks the planning endpoint returns a feasible artifact.
func TestServicePlan(t *testing.T) {
	svc, _ := serviceFixture(t, GPBiW)
	res, err := svc.Plan(context.Background(), "default", 0, 0.9,
		WithRegionShape(2, 14), WithPlanHorizon(5, 2, 6))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) == 0 || len(res.Effort) != len(res.Cells) {
		t.Fatalf("plan shape: %d cells, %d efforts", len(res.Cells), len(res.Effort))
	}
	if len(res.Routes) == 0 {
		t.Fatal("plan returned no routes")
	}
	for _, r := range res.Routes {
		if len(r) != 5+1 {
			t.Fatalf("route length %d, want T+1 = 6", len(r))
		}
		if r[0] != res.Cells[0] || r[len(r)-1] != res.Cells[0] {
			t.Fatal("route does not start and end at the post")
		}
	}
	if _, err := svc.Plan(context.Background(), "default", 99, 0.9); err == nil {
		t.Fatal("out-of-range post accepted")
	}
	if _, err := svc.Plan(context.Background(), "default", 0, 2); err == nil {
		t.Fatal("beta > 1 accepted")
	}
}
