package paws

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"paws/internal/obs"
	"paws/internal/plan"
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

// TestTrainCtxCanceled checks an already-dead context passed to
// Service.Train aborts training before any work and surfaces the context
// error unwrapped.
func TestTrainCtxCanceled(t *testing.T) {
	sc := smallScenario(t, 55, false)
	year := sc.Data.Steps[len(sc.Data.Steps)-1].Year
	split, err := sc.Data.SplitByTestYear(year, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewService().Train(ctx, split.Train, quickOpts(GPBiW, 17)...); !errors.Is(err, context.Canceled) {
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
	start := time.Now()
	_, err = NewService().Train(ctx, split.Train, append(quickOpts(GPBiW, 17), WithCVFolds(3))...)
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
	svc := NewService(WithScale(ScaleSmall))
	quick := quickOpts(DTBiW, 89)
	m, err := svc.Train(live, split.Train, quick...)
	if err != nil {
		t.Fatal(err)
	}
	testFrom, _ := sc.Data.StepsForYear(year)
	pm, err := newPlannerModel(live, m, sc.Data, testFrom-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddModel(live, "default", m, sc.Data, testFrom-1); err != nil {
		t.Fatal(err)
	}
	// Warm the memo at effort 1, so PredictCells would answer from it.
	if _, _, err := svc.RiskMaps(live, "default", 1); err != nil {
		t.Fatal(err)
	}
	ps, err := svc.PlanStudy(live, sc, append(quick,
		WithPosts(1), WithRegionShape(2, 8), WithPlanHorizon(4, 1, 3),
		WithSegmentCounts(3), WithTestYears(year))...)
	if err != nil {
		t.Fatal(err)
	}
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
		{"settings.fit", func(ctx context.Context) error {
			_, err := settings{}.apply(quick).fit(ctx, split.Train, []float64{0, 1, 2})
			return err
		}},
		{"newPlannerModel", func(ctx context.Context) error {
			_, err := newPlannerModel(ctx, m, sc.Data, testFrom-1, 0)
			return err
		}},
		{"PlannerModel.Maps", func(ctx context.Context) error {
			_, _, err := pm.Maps(ctx, 1)
			return err
		}},
		{"Service.RiskMaps", func(ctx context.Context) error {
			_, _, err := svc.RiskMaps(ctx, "default", 1)
			return err
		}},
		{"Service.PredictCells", func(ctx context.Context) error {
			_, err := svc.PredictCells(ctx, "default", []int{0, 1, 2}, 1)
			return err
		}},
		{"RunTable1", func(ctx context.Context) error {
			_, err := svc.Table1(ctx, WithSeed(1))
			return err
		}},
		{"RunTable2ForScenario", func(ctx context.Context) error {
			_, err := svc.Table2(ctx, sc, "SMALL", append(quick, WithTestYears(year))...)
			return err
		}},
		{"RunFig4", func(ctx context.Context) error {
			_, err := svc.Fig4(ctx, sc, "SMALL", year)
			return err
		}},
		{"RunFig6", func(ctx context.Context) error {
			_, err := svc.Fig6(ctx, sc, year, quick...)
			return err
		}},
		{"RunFig7", func(ctx context.Context) error {
			_, err := svc.Fig7(ctx, sc, year, quick...)
			return err
		}},
		{"NewPlanStudy", func(ctx context.Context) error {
			_, err := svc.PlanStudy(ctx, sc, append(quick, WithTestYears(year))...)
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
			_, err := svc.Table3(ctx, sc, "SMALL", 2, []int{1}, quick...)
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
// each cell with every merged training setting, tree depth included: each
// row's AUC must equal that of Service.Train under the same options and the
// cell's grid seed, on the same split.
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
		WithTreeDepth(2))
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

// TestExperimentDefaults pins the defaults the experiment methods fill in
// for options left unset: PlanStudy's planner, regions and sweeps, the
// 3-year training window of Fig4, Table3's field protocol, and Table2's
// model kinds and test years.
func TestExperimentDefaults(t *testing.T) {
	ctx := context.Background()
	sc := smallScenario(t, 97, false)
	year := sc.Data.Steps[len(sc.Data.Steps)-1].Year
	svc := NewService(WithWorkers(2), WithThresholds(2), WithEnsembleSize(2),
		WithGPMaxTrain(30), WithTreeDepth(4), WithSeed(101))

	t.Run("PlanStudy", func(t *testing.T) {
		ps, err := svc.PlanStudy(ctx, sc, WithTestYears(year))
		if err != nil {
			t.Fatal(err)
		}
		c := ps.Config
		if c.T != 12 || c.K != 2 || c.Segments != 10 || c.Solver != plan.SolverAuto {
			t.Errorf("Config T=%d K=%v Segments=%d Solver=%v, want 12, 2, 10, SolverAuto", c.T, c.K, c.Segments, c.Solver)
		}
		if got, want := len(ps.Regions), min(3, len(sc.Park.Posts)); got != want {
			t.Errorf("%d regions, want %d", got, want)
		}
		for i, r := range ps.Regions {
			if len(r.Cells) > 60 {
				t.Errorf("region %d has %d cells, want at most 60", i, len(r.Cells))
			}
		}
		if len(ps.betas) != 5 || len(ps.segmentCounts) != 5 {
			t.Errorf("%d betas and %d segment counts, want 5 and 5", len(ps.betas), len(ps.segmentCounts))
		}
	})

	t.Run("Fig4", func(t *testing.T) {
		got, err := svc.Fig4(ctx, sc, "SMALL", year)
		if err != nil {
			t.Fatal(err)
		}
		want, err := svc.Fig4(ctx, sc, "SMALL", year, WithTrainYears(3))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("default Fig4 %+v, WithTrainYears(3) %+v", got, want)
		}
	})

	t.Run("Table3", func(t *testing.T) {
		render := func(opts ...Option) string {
			trials, err := svc.Table3(ctx, sc, "SMALL", 2, []int{2}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, tr := range trials {
				fmt.Fprintf(&b, "%s %s %+v\n", tr.Name, tr.Park, *tr.Result)
			}
			return b.String()
		}
		if got, want := render(), render(WithFieldProtocol(5, 2.5)); got != want {
			t.Errorf("default Table3:\n%s\nWithFieldProtocol(5, 2.5):\n%s", got, want)
		}
	})

	t.Run("Table2", func(t *testing.T) {
		rows, err := svc.Table2(ctx, sc, "SMALL")
		if err != nil {
			t.Fatal(err)
		}
		kinds := []ModelKind{SVB, DTB, GPB, SVBiW, DTBiW, GPBiW}
		if len(rows) != 3*len(kinds) {
			t.Fatalf("%d rows, want %d", len(rows), 3*len(kinds))
		}
		for i, r := range rows {
			if wantYear := year - 2 + i/len(kinds); r.Kind != kinds[i%len(kinds)] || r.TestYear != wantYear {
				t.Errorf("row %d is %v %d, want %v %d", i, r.Kind, r.TestYear, kinds[i%len(kinds)], wantYear)
			}
		}
	})
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
	// The deadline passes once the first chunk is filled: a wall-clock
	// budget would race the sweep, which takes under 3 ms here.
	sm.pm.Workers = 1
	const top = 8
	filled := sm.pm.evals.Load()
	mid := &expiringCtx{Context: context.Background(), done: make(chan struct{}),
		expired: func() bool { return sm.pm.evals.Load() > filled }}
	if _, _, err := svc.RiskMaps(mid, "default", top); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RiskMaps expiring after its first chunk: err = %v, want context.DeadlineExceeded", err)
	}
	if covered := sm.pm.covered(top); covered >= n {
		t.Fatalf("all %d cells evaluated despite the deadline (sweep did not abort early)", n)
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

// expiringCtx is a context whose deadline passes as soon as expired
// reports true: from then on Err returns context.DeadlineExceeded and Done
// is closed.
type expiringCtx struct {
	context.Context
	expired func() bool
	done    chan struct{}
	once    sync.Once
}

func (c *expiringCtx) Err() error {
	if !c.expired() {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.DeadlineExceeded
}

func (c *expiringCtx) Done() <-chan struct{} {
	c.Err()
	return c.done
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
					wp, wv := sm.Model.PredictWithVariance(x, effort)
					if probs[i] != wp {
						t.Fatalf("workers=%d row %d: Predict %v != pointwise %v", workers, i, probs[i], wp)
					}
					if ps[i] != wp || vs[i] != wv {
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

// TestServicePredictCellsMatchesRiskMap checks the by-cell and by-row
// serving paths answer every park cell with its park-wide risk-map value,
// bit for bit, for all six model kinds and at several planned efforts.
func TestServicePredictCellsMatchesRiskMap(t *testing.T) {
	ctx := context.Background()
	for _, kind := range []ModelKind{SVB, DTB, GPB, SVBiW, DTBiW, GPBiW} {
		t.Run(kind.String(), func(t *testing.T) {
			svc, _ := serviceFixture(t, kind)
			sm, _ := svc.Served("default")
			cells := make([]int, sm.pm.features.Rows)
			X := make([][]float64, len(cells))
			for c := range cells {
				cells[c] = c
				X[c] = sm.pm.features.Row(c)
			}
			for _, effort := range []float64{0.5, 1.5, 3} {
				risk, _, err := svc.RiskMaps(ctx, "default", effort)
				if err != nil {
					t.Fatal(err)
				}
				byCell, err := svc.PredictCells(ctx, "default", cells, effort)
				if err != nil {
					t.Fatal(err)
				}
				byRow, err := svc.Predict(ctx, "default", X, effort)
				if err != nil {
					t.Fatal(err)
				}
				differ, first := 0, -1
				for c := range cells {
					if byCell[c] != risk[c] || byRow[c] != risk[c] {
						differ++
						if first < 0 {
							first = c
						}
					}
				}
				if differ > 0 {
					t.Fatalf("effort %v: %d of %d cells differ; cell %d: PredictCells %v, Predict %v, RiskMap %v",
						effort, differ, len(cells), first, byCell[first], byRow[first], risk[first])
				}
			}
		})
	}
}

// TestServicePredictCellsMemoStates pins PredictCells, which reads the
// ladder memo for each cell whose memoized prefix covers the effort and
// computes the rest, to Predict over the same feature rows, bit for bit,
// for all six model kinds in four memo states, in this order: cold (only
// AddModel's calibration sample is memoized), mixed (a Plan has filled the
// full ladder of its region cells; the request also names cells outside
// it), prefix too short (RiskMaps at effort 0.5, then PredictCells at 3)
// and warm (RiskMaps at 3). PredictCells must not write the memo, and its
// predict span must count the cells each path answered.
func TestServicePredictCellsMemoStates(t *testing.T) {
	ctx := context.Background()
	const effort = 3
	for _, kind := range []ModelKind{SVB, DTB, GPB, SVBiW, DTBiW, GPBiW} {
		t.Run(kind.String(), func(t *testing.T) {
			svc, _ := serviceFixture(t, kind)
			sm, _ := svc.Served("default")
			pm := sm.pm
			nq := sm.Model.qualifiedRungs(effort)
			all := make([]int, pm.features.Rows)
			for c := range all {
				all[c] = c
			}
			// check runs one state and returns how many cells came from
			// the memo.
			check := func(state string, cells []int) (memo int) {
				t.Helper()
				X := make([][]float64, len(cells))
				for i, c := range cells {
					X[i] = pm.features.Row(c)
					if int(pm.have[c].Load()) >= nq {
						memo++
					}
				}
				want, err := svc.Predict(ctx, "default", X, effort)
				if err != nil {
					t.Fatal(err)
				}
				evals := pm.evals.Load()
				rec := obs.NewRecorder(1)
				tr := rec.Start("", "test:predict")
				got, err := svc.PredictCells(obs.WithTrace(ctx, tr), "default", cells, effort)
				tr.Finish("ok")
				if err != nil {
					t.Fatal(err)
				}
				for i, c := range cells {
					if got[i] != want[i] {
						t.Fatalf("%s: cell %d: PredictCells %v, Predict %v", state, c, got[i], want[i])
					}
				}
				if pm.evals.Load() != evals {
					t.Fatalf("%s: PredictCells filled the memo", state)
				}
				item := fmt.Sprintf("memo %d computed %d", memo, len(cells)-memo)
				if spans := rec.Recent()[0].Spans; len(spans) != 1 || spans[0].Name != "predict" || spans[0].Item != item {
					t.Fatalf("%s: spans %+v, want one predict span %q", state, spans, item)
				}
				return memo
			}

			if memo := check("cold", all); memo == len(all) {
				t.Fatalf("cold: all %d cells memoized", memo)
			}

			res, err := svc.Plan(ctx, "default", 0, 0.9, WithRegionShape(2, 8), WithPlanHorizon(4, 1, 3))
			if err != nil {
				t.Fatal(err)
			}
			inRegion := map[int]bool{}
			for _, c := range res.Cells {
				inRegion[c] = true
			}
			mixed := append([]int(nil), res.Cells...)
			for c := 1; len(mixed) < 2*len(res.Cells); c += 2 {
				if !inRegion[c] {
					mixed = append(mixed, c)
				}
			}
			if memo := check("mixed", mixed); memo < len(res.Cells) || memo == len(mixed) {
				t.Fatalf("mixed: %d of %d cells memoized, want every one of the %d region cells and not all", memo, len(mixed), len(res.Cells))
			}

			if _, _, err := svc.RiskMaps(ctx, "default", 0.5); err != nil {
				t.Fatal(err)
			}
			memo := check("prefix too short", all)
			if sm.Model.iw != nil && memo == len(all) {
				t.Fatal("prefix too short: every cell memoized, so effort 0.5's prefix already covers effort 3")
			}

			if _, _, err := svc.RiskMaps(ctx, "default", effort); err != nil {
				t.Fatal(err)
			}
			if memo := check("warm", all); memo != len(all) {
				t.Fatalf("warm: %d of %d cells memoized", memo, len(all))
			}
		})
	}
}

// TestServicePredictCellsIgnoresFillSlot holds the memo's single-flight
// fill slot, as a cold park-wide fill would, and requires PredictCells to
// answer a memoized and an unmemoized cell regardless.
func TestServicePredictCellsIgnoresFillSlot(t *testing.T) {
	svc, _ := serviceFixture(t, DTBiW)
	sm, _ := svc.Served("default")
	pm := sm.pm
	// Cell 0 is in the calibration sample, cell 1 is not.
	nq := sm.Model.qualifiedRungs(calibrationEffort)
	if int(pm.have[0].Load()) < nq || pm.have[1].Load() != 0 {
		t.Fatalf("memo holds %d and %d rungs of cells 0 and 1, want at least %d and 0", pm.have[0].Load(), pm.have[1].Load(), nq)
	}
	pm.fillSlot <- struct{}{}
	defer func() { <-pm.fillSlot }()
	done := make(chan error, 1)
	go func() {
		_, err := svc.PredictCells(context.Background(), "default", []int{0, 1}, calibrationEffort)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("PredictCells is waiting on the fill slot")
	}
}

// TestServicePredictCellsDuringFill races PredictCells over every cell
// against the map sweeps that fill the memo under it: whichever rungs each
// call finds published, it must answer every cell as Predict does. Run
// under -race, it checks that the memo reads are ordered after the fills.
func TestServicePredictCellsDuringFill(t *testing.T) {
	svc, _ := serviceFixture(t, GPBiW)
	ctx := context.Background()
	sm, _ := svc.Served("default")
	cells := make([]int, sm.pm.features.Rows)
	X := make([][]float64, len(cells))
	for c := range cells {
		cells[c] = c
		X[c] = sm.pm.features.Row(c)
	}
	efforts := []float64{0.5, 3}
	want := map[float64][]float64{}
	for _, e := range efforts {
		w, err := svc.Predict(ctx, "default", X, e)
		if err != nil {
			t.Fatal(err)
		}
		want[e] = w
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := efforts[g%len(efforts)]
			if g < len(efforts) {
				_, _, errs[g] = svc.RiskMaps(ctx, "default", e)
				return
			}
			got, err := svc.PredictCells(ctx, "default", cells, e)
			if err != nil {
				errs[g] = err
				return
			}
			for c := range cells {
				if got[c] != want[e][c] {
					errs[g] = fmt.Errorf("effort %g cell %d: PredictCells %v, Predict %v", e, c, got[c], want[e][c])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
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
