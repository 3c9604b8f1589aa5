package env

import (
	"context"
	"errors"
	"math"
	"testing"

	"paws/internal/geo"
	"paws/internal/poach"
	"paws/internal/rng"
)

// testConfig builds a small, fast environment configuration.
func testConfig(t *testing.T) Config {
	t.Helper()
	parkCfg := geo.RandomConfig(16) // 359 cells
	park, err := geo.GeneratePark(parkCfg)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Park:            park,
		Sim:             poach.RandomSim(parkCfg, 21),
		Attacker:        poach.AttackerAdaptive,
		Seasons:         2,
		SeasonMonths:    1,
		BootstrapMonths: 6,
	}
}

// uniformEffort is the simplest valid allocation: the engine rescales it
// to the budget anyway, so only its shape matters.
func uniformEffort(n int) []float64 {
	eff := make([]float64, n)
	for i := range eff {
		eff[i] = 1
	}
	return eff
}

// TestEpisodeReplayAfterReset: an episode replayed after Reset under the
// same effort sequence reproduces itself exactly — the determinism claim
// remote sessions and the Drive harness are built on.
func TestEpisodeReplayAfterReset(t *testing.T) {
	ctx := context.Background()
	e, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	n := e.Config().Park.Grid.NumCells()
	run := func() ([]SeasonStats, int) {
		var log []SeasonStats
		for !e.Done() {
			_, st, _, err := e.Step(ctx, uniformEffort(n))
			if err != nil {
				t.Fatal(err)
			}
			log = append(log, st)
		}
		return log, e.Months()
	}
	first, months1 := run()
	if len(first) != e.Config().Seasons {
		t.Fatalf("episode ran %d seasons, want %d", len(first), e.Config().Seasons)
	}
	if _, _, _, err := e.Step(ctx, uniformEffort(n)); !errors.Is(err, ErrDone) {
		t.Fatalf("stepping a done episode: err %v, want ErrDone", err)
	}
	if _, err := e.Reset(ctx); err != nil {
		t.Fatal(err)
	}
	if e.Done() || e.Season() != 0 {
		t.Fatalf("reset left done=%v season=%d", e.Done(), e.Season())
	}
	second, months2 := run()
	if months1 != months2 {
		t.Fatalf("replay observed %d months, first run %d", months2, months1)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("season %d stats differ after reset: %+v vs %+v", i, first[i], second[i])
		}
	}
}

// TestStepCommonRandomNumbers: two environments at the same seed stepped
// with the same effort see identical outcomes — the draws depend only on
// (seed, month).
func TestStepCommonRandomNumbers(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig(t)
	cfg.Attacker = poach.AttackerStatic
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Park.Grid.NumCells()
	for !a.Done() {
		_, sa, _, err := a.Step(ctx, uniformEffort(n))
		if err != nil {
			t.Fatal(err)
		}
		_, sb, _, err := b.Step(ctx, uniformEffort(n))
		if err != nil {
			t.Fatal(err)
		}
		if sa != sb {
			t.Fatalf("same seed and effort, different outcomes: %+v vs %+v", sa, sb)
		}
	}
}

// TestStepBudgetAndValidation: the executed effort is rescaled to the
// monthly budget, and a wrong-length allocation is a structured error.
func TestStepBudgetAndValidation(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig(t)
	cfg.BudgetKM = 100
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Park.Grid.NumCells()
	if _, _, _, err := e.Step(ctx, []float64{1, 2, 3}); err == nil {
		t.Fatal("wrong-length allocation accepted")
	}
	_, st, _, err := e.Step(ctx, uniformEffort(n))
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.BudgetKM * float64(cfg.SeasonMonths)
	if math.Abs(st.EffortKM-want) > 1e-6*want {
		t.Fatalf("season effort %v km, want %v", st.EffortKM, want)
	}
	if st.Routes != 0 {
		t.Fatalf("engine stats claim %d routes; routes are a driver overlay", st.Routes)
	}
}

// TestScaleToBudget covers the allocation rescaler: proportional scaling,
// negative clamping, the all-zero uniform fallback, and the length check.
func TestScaleToBudget(t *testing.T) {
	got, err := scaleToBudget([]float64{1, 3}, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 || got[1] != 6 {
		t.Fatalf("scaleToBudget([1 3], 8) = %v, want [2 6]", got)
	}
	got, err = scaleToBudget([]float64{-5, 1, 1}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 3 || got[2] != 3 {
		t.Fatalf("negative effort not clamped: %v", got)
	}
	got, err = scaleToBudget([]float64{0, 0, 0, 0}, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 3 {
			t.Fatalf("all-zero fallback not uniform: got[%d] = %v", i, v)
		}
	}
	if _, err := scaleToBudget([]float64{1}, 10, 2); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestBetaSampler: rng.Beta respects its support and its mean tracks
// a/(a+b) — enough sanity for the Thompson posterior draws built on it.
func TestBetaSampler(t *testing.T) {
	r := rng.New(11).Split("beta-test")
	const n = 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Beta(2, 5)
		if v < 0 || v > 1 {
			t.Fatalf("Beta(2,5) sample %v outside [0,1]", v)
		}
		sum += v
	}
	mean := sum / n
	want := 2.0 / 7.0
	if math.Abs(mean-want) > 0.01 {
		t.Fatalf("Beta(2,5) sample mean %v, want ≈ %v", mean, want)
	}
	// Asymmetry: Beta(5,1) concentrates near 1, Beta(1,5) near 0.
	hi, lo := 0.0, 0.0
	for i := 0; i < 2000; i++ {
		hi += r.Beta(5, 1)
		lo += r.Beta(1, 5)
	}
	if hi/2000 < 0.7 || lo/2000 > 0.3 {
		t.Fatalf("Beta asymmetry off: mean(5,1)=%v mean(1,5)=%v", hi/2000, lo/2000)
	}
}

// syntheticObs builds an observed record with one clearly hot cell: every
// month patrols cells 0..4 at 2 km, detections only ever in hotCell.
func syntheticObs(t *testing.T, hotCell, months int) *Obs {
	t.Helper()
	parkCfg := geo.RandomConfig(16)
	park, err := geo.GeneratePark(parkCfg)
	if err != nil {
		t.Fatal(err)
	}
	n := park.Grid.NumCells()
	o := &Obs{Park: park, Months: months, BudgetKM: 40}
	for m := 0; m < months; m++ {
		eff := make([]float64, n)
		det := make([]bool, n)
		for id := 0; id < 5; id++ {
			eff[id] = 2
		}
		det[hotCell] = true
		o.Effort = append(o.Effort, eff)
		o.Detections = append(o.Detections, det)
	}
	return o
}

// TestThompsonExploitsDetections: with a decisive record, the posterior
// draw ranks the always-productive cell above the patrolled-but-empty
// ones, and the plan covers exactly the budget's worth of cells.
func TestThompsonExploitsDetections(t *testing.T) {
	o := syntheticObs(t, 2, 12)
	n := o.Park.Grid.NumCells()
	plan, err := Thompson().PlanSeason(context.Background(), o, 0, rng.New(7).Split("policy:thompson:season:0"))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Effort) != n {
		t.Fatalf("plan has %d cells, park %d", len(plan.Effort), n)
	}
	if plan.Effort[2] <= 0 {
		t.Fatalf("hot cell got no effort: %v", plan.Effort[2])
	}
	positive := 0
	for _, e := range plan.Effort {
		if e > 0 {
			positive++
		}
	}
	if want := budgetTargets(o.BudgetKM, n); positive != want {
		t.Fatalf("plan targets %d cells, want %d", positive, want)
	}
	// Cells patrolled 12 months without a detection (Beta(1,13)) should
	// essentially never outdraw the always-hot cell (Beta(13,1)).
	for _, id := range []int{0, 1, 3, 4} {
		if plan.Effort[id] > plan.Effort[2] {
			t.Fatalf("empty cell %d outranked the hot cell: %v > %v", id, plan.Effort[id], plan.Effort[2])
		}
	}
}

// TestSoftmaxDeterministicAndFocused: the softmax policy ignores its
// stream (same plan twice), spreads positive effort everywhere, and puts
// its maximum on the productive cell.
func TestSoftmaxDeterministicAndFocused(t *testing.T) {
	o := syntheticObs(t, 3, 12)
	ctx := context.Background()
	a, err := Softmax().PlanSeason(ctx, o, 0, rng.New(7).Split("policy:softmax:season:0"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Softmax().PlanSeason(ctx, o, 0, rng.New(99).Split("different-stream"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Effort {
		if a.Effort[i] != b.Effort[i] {
			t.Fatalf("softmax is not deterministic: cell %d %v vs %v", i, a.Effort[i], b.Effort[i])
		}
	}
	maxID := 0
	for i, e := range a.Effort {
		if e <= 0 {
			t.Fatalf("softmax wrote off cell %d entirely", i)
		}
		if e > a.Effort[maxID] {
			maxID = i
		}
	}
	if maxID != 3 {
		t.Fatalf("softmax peak at cell %d, want the productive cell 3", maxID)
	}
}

// TestConfigValidation mirrors Run's edge validation (TestRunEdgeValidation)
// for a single Env, which runs the same checks.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil park", func(c *Config) { c.Park = nil }},
		{"zero-post park", func(c *Config) {
			park := *c.Park
			park.Posts = nil
			c.Park = &park
		}},
		{"zero seasons", func(c *Config) { c.Seasons = 0 }},
		{"negative season months", func(c *Config) { c.SeasonMonths = -2 }},
		{"negative bootstrap months", func(c *Config) { c.BootstrapMonths = -6 }},
		{"negative budget", func(c *Config) { c.BudgetKM = -40 }},
		{"NaN budget", func(c *Config) { c.BudgetKM = math.NaN() }},
		{"no derivable budget", func(c *Config) { c.BudgetKM = 0; c.Sim.Patrol = poach.PatrolConfig{} }},
	}
	for _, tc := range cases {
		cfg := testConfig(t)
		tc.mutate(&cfg)
		if _, err := cfg.WithDefaults(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	cfg := testConfig(t)
	cfg.SeasonMonths, cfg.BootstrapMonths, cfg.BudgetKM = 0, 0, 0
	filled, err := cfg.WithDefaults()
	if err != nil {
		t.Fatalf("zero-value defaults rejected: %v", err)
	}
	if filled.SeasonMonths != 3 || filled.BootstrapMonths != 24 || filled.BudgetKM <= 0 {
		t.Fatalf("defaults not applied: %+v", filled)
	}
}
