package paws

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"paws/internal/iware"
)

// covered counts the park cells whose memoized ladder prefix already
// answers the given effort.
func (pm *PlannerModel) covered(effort float64) int {
	nq := pm.model.qualifiedRungs(effort)
	n := 0
	for cell := range pm.have {
		if int(pm.have[cell].Load()) >= nq {
			n++
		}
	}
	return n
}

// planBreakpoints are the PWL breakpoints of a default Service.Plan
// (K = 2, T = 8, 8 segments: MaxEffort = 8).
var planBreakpoints = []float64{0, 1, 2, 3, 4, 5, 6, 7, 8}

// assertLadderMatchesPointwise checks that maps requested in shuffled
// effort order and Eval at every plan breakpoint return exactly
// Model.PredictWithVariance plus the calibrated squash for every cell.
func assertLadderMatchesPointwise(t *testing.T, m *Model, sc *Scenario, prev int) {
	t.Helper()
	pm, err := NewPlannerModel(context.Background(), m, sc.Data, prev, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := func(cell int, e float64) (float64, float64) {
		p, v := m.PredictWithVariance(pm.features.Row(cell), e)
		return p, iware.SquashVariance(v-pm.squashLo, pm.squashScale)
	}
	n := sc.Park.Grid.NumCells()
	for _, e := range []float64{2.5, 1, 2, 1.5} {
		risk, unc, err := pm.Maps(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		for cell := 0; cell < n; cell++ {
			if wp, wu := want(cell, e); risk[cell] != wp || unc[cell] != wu {
				t.Fatalf("map at effort %g, cell %d: (%v, %v), pointwise (%v, %v)", e, cell, risk[cell], unc[cell], wp, wu)
			}
		}
	}
	// Every breakpoint of every cell in one batched query, on the warm
	// memo and on a fresh one (the planner's full-ladder fill path).
	var cells []int
	var efforts []float64
	for cell := 0; cell < n; cell++ {
		for _, e := range planBreakpoints {
			cells = append(cells, cell)
			efforts = append(efforts, e)
		}
	}
	fresh, err := NewPlannerModel(context.Background(), m, sc.Data, prev, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []*PlannerModel{pm, fresh} {
		g, nu := make([]float64, len(cells)), make([]float64, len(cells))
		model.Eval(cells, efforts, g, nu)
		for i, cell := range cells {
			if wp, wu := want(cell, efforts[i]); g[i] != wp || nu[i] != wu {
				t.Fatalf("Eval (fresh memo: %t) at effort %g, cell %d: (%v, %v), pointwise (%v, %v)", model == fresh, efforts[i], cell, g[i], nu[i], wp, wu)
			}
		}
	}
}

// TestPlannerModelLadderMatchesPointwise pins the ladder memo to the
// pointwise model bit for bit for every Table II kind, plus an iWare-E model
// whose leading weights are zero so low efforts take the all-zero-weight
// fallback.
func TestPlannerModelLadderMatchesPointwise(t *testing.T) {
	sc := smallScenario(t, 31, false)
	year := sc.Data.Steps[len(sc.Data.Steps)-1].Year
	split, err := sc.Data.SplitByTestYear(year, 3)
	if err != nil {
		t.Fatal(err)
	}
	testFrom, _ := sc.Data.StepsForYear(year)
	for _, kind := range []ModelKind{SVB, DTB, GPB, SVBiW, DTBiW, GPBiW} {
		t.Run(kind.String(), func(t *testing.T) {
			m, err := Train(context.Background(), split.Train, quickTrainOpts(kind, 37))
			if err != nil {
				t.Fatal(err)
			}
			assertLadderMatchesPointwise(t, m, sc, testFrom-1)
			if !kind.IsIWare() {
				return
			}
			// The model is private to this subtest, so its weights can be
			// zeroed in place.
			w := m.IWare().Weights()
			w[0], w[1] = 0, 0
			if nq := m.qualifiedRungs(planBreakpoints[0]); nq > 2 {
				t.Fatalf("effort 0 qualifies %d rungs; the fallback would not be exercised", nq)
			}
			assertLadderMatchesPointwise(t, m, sc, testFrom-1)
		})
	}
}

// TestPlannerModelSingleFlight races cold plans for one post against map
// sweeps at efforts 1 and 2.5 on one served model. Fills are single-flight,
// so the number of (cell, rung) evaluations must equal a sequential run's,
// and every answer must match it. Run under -race.
func TestPlannerModelSingleFlight(t *testing.T) {
	svc, sc := serviceFixture(t, GPBiW)
	ctx := context.Background()
	def, _ := svc.Served("default")
	prev := len(sc.Data.Steps) - 1
	for _, name := range []string{"seq", "conc"} {
		if _, err := svc.AddModel(ctx, name, def.Model, sc.Data, prev); err != nil {
			t.Fatal(err)
		}
	}
	efforts := []float64{1, 2.5}
	type answers struct {
		plan       *PlanResult
		risk, unc  map[float64][]float64
		evaluation int64
	}
	run := func(name string, op func(i int) error) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = op(i)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	collect := func(name string, concurrent bool) answers {
		a := answers{risk: map[float64][]float64{}, unc: map[float64][]float64{}}
		var mu sync.Mutex
		op := func(i int) error {
			if i%3 == 0 {
				p, err := svc.Plan(ctx, name, 0, 0.9)
				if err != nil {
					return err
				}
				mu.Lock()
				defer mu.Unlock()
				if a.plan != nil && !samePlan(a.plan, p) {
					return fmt.Errorf("plan %d diverged", i)
				}
				a.plan = p
				return nil
			}
			e := efforts[i%3-1]
			risk, unc, err := svc.RiskMaps(ctx, name, e)
			if err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			if prev, ok := a.risk[e]; ok && (!reflect.DeepEqual(prev, risk) || !reflect.DeepEqual(a.unc[e], unc)) {
				return fmt.Errorf("maps at effort %g diverged", e)
			}
			a.risk[e], a.unc[e] = risk, unc
			return nil
		}
		if concurrent {
			run(name, op)
		} else {
			for i := 0; i < 8; i++ {
				if err := op(i); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
		sm, _ := svc.Served(name)
		a.evaluation = sm.pm.evals.Load()
		return a
	}
	seq := collect("seq", false)
	conc := collect("conc", true)
	if seq.evaluation != conc.evaluation {
		t.Fatalf("concurrent run evaluated %d (cell, rung) pairs, sequential %d", conc.evaluation, seq.evaluation)
	}
	if !samePlan(seq.plan, conc.plan) {
		t.Fatal("concurrent plan differs from sequential")
	}
	for _, e := range efforts {
		assertSameFloats(t, fmt.Sprintf("risk %g", e), seq.risk[e], conc.risk[e])
		assertSameFloats(t, fmt.Sprintf("uncertainty %g", e), seq.unc[e], conc.unc[e])
	}
}

// samePlan compares two plan results ignoring their solve times and model
// names.
func samePlan(a, b *PlanResult) bool {
	return reflect.DeepEqual(a.Cells, b.Cells) && reflect.DeepEqual(a.Effort, b.Effort) &&
		reflect.DeepEqual(a.Routes, b.Routes) && a.Objective == b.Objective
}
