package paws

import (
	"context"
	"fmt"
	"math"
	"sort"

	"paws/internal/dataset"
	"paws/internal/env"
	"paws/internal/obs"
	"paws/internal/par"
	"paws/internal/plan"
	"paws/internal/poach"
	"paws/internal/rng"
)

// SimConfig configures the closed loop: Service.Simulate, a multi-season
// patrol simulation (env.Run) comparing patrol policies head-to-head on one
// park, and Service.NewEnv, one episode of that loop as a stepped
// environment. Zero values select defaults; the seed, scale, model kind and
// worker count come from the Service options as usual.
type SimConfig struct {
	// Park is a park spec: MFNP, QENP, SWS or rand:<seed>.
	Park string
	// Seasons is the number of planning seasons (default 4).
	Seasons int
	// SeasonMonths is the months per season (default 3, one quarterly
	// planning cycle).
	SeasonMonths int
	// BootstrapMonths is the historical record simulated before the loop
	// (default 24).
	BootstrapMonths int
	// BudgetKM is the per-month patrol budget; 0 derives the park's ranger
	// capacity.
	BudgetKM float64
	// Policies names the policies to compare (default
	// paws,uniform,historical,random).
	Policies []string
	// Attacker is the poacher response behaviour: poach.AttackerAdaptive
	// (the default; deterrence + displacement) or poach.AttackerStatic (the
	// historical non-responsive process).
	Attacker string
	// Beta is the robustness weight of the paws policy's planner
	// (default 0.9).
	Beta float64
}

// withDefaults validates and fills cfg: zero values select defaults, while
// unknown park specs, policies and attacker kinds and negative or
// out-of-range values are rejected — a typo'd request must fail with a
// structured error (bad_request over HTTP), not silently simulate the
// defaults, panic, or loop forever. It is the one rule set of the closed
// loop: Simulate, SimulateRemote, NewEnv and every Campaign cell run it.
func (cfg SimConfig) withDefaults() (SimConfig, error) {
	if cfg.Park == "" {
		cfg.Park = "MFNP"
	}
	if err := ValidateParkSpec(cfg.Park); err != nil {
		return cfg, err
	}
	if cfg.Seasons < 0 {
		return cfg, fmt.Errorf("paws: seasons must be ≥ 1, got %d", cfg.Seasons)
	}
	if cfg.Seasons == 0 {
		cfg.Seasons = 4
	}
	if cfg.SeasonMonths < 0 {
		return cfg, fmt.Errorf("paws: season months must be ≥ 1, got %d", cfg.SeasonMonths)
	}
	if cfg.BootstrapMonths < 0 {
		return cfg, fmt.Errorf("paws: bootstrap months must be ≥ 1, got %d", cfg.BootstrapMonths)
	}
	if cfg.BudgetKM < 0 || math.IsNaN(cfg.BudgetKM) || math.IsInf(cfg.BudgetKM, 0) {
		return cfg, fmt.Errorf("paws: budget %v km/month must be a non-negative finite number", cfg.BudgetKM)
	}
	if cfg.Beta < 0 || cfg.Beta > 1 || math.IsNaN(cfg.Beta) {
		return cfg, fmt.Errorf("paws: beta %v out of range [0, 1]", cfg.Beta)
	}
	if len(cfg.Policies) == 0 {
		cfg.Policies = []string{"paws", "uniform", "historical", "random"}
	}
	seen := map[string]bool{}
	for _, name := range cfg.Policies {
		if seen[name] {
			return cfg, fmt.Errorf("paws: duplicate policy %q", name)
		}
		seen[name] = true
		if name == "paws" {
			continue
		}
		if _, err := env.ByName(name); err != nil {
			return cfg, fmt.Errorf("paws: %w (plus \"paws\")", err)
		}
	}
	if cfg.Attacker == "" {
		cfg.Attacker = poach.AttackerAdaptive
	}
	if err := poach.ValidateAttackerKind(cfg.Attacker); err != nil {
		return cfg, err
	}
	if cfg.Beta == 0 {
		cfg.Beta = 0.9
	}
	return cfg, nil
}

// Validate checks a closed-loop configuration — the park spec, ranges,
// policy names, the attacker kind — without simulating anything. This is
// the submit-time validation surface of the async job API: everything
// Simulate rejects up front fails here first.
func (cfg SimConfig) Validate() error {
	_, err := cfg.withDefaults()
	return err
}

// Simulate runs the closed-loop policy comparison: generate the park,
// bootstrap its history, then for each requested policy repeat the
// plan → patrol → poacher-reaction → retrain season loop and report
// per-season detections, snares and displacement. The "paws" policy retrains
// the configured model kind (WithKind; default DTB-iW) each season and plans
// with the Frank-Wolfe planner; the other built-ins come from env.ByName.
// The context is observed between seasons and through every training and
// planning call; the report is byte-identical for any worker count.
func (s *Service) Simulate(ctx context.Context, cfg SimConfig, opts ...Option) (*env.Report, error) {
	return s.simulate(ctx, cfg, opts, nil)
}

// simulate is Simulate with an optional source of each policy's Stepper:
// open, when non-nil, is handed the defaults-filled config and the resolved
// environment config. Nil plays every policy against a local Env.
func (s *Service) simulate(ctx context.Context, cfg SimConfig, opts []Option,
	open func(ctx context.Context, cfg SimConfig, ecfg env.Config) (env.Stepper, func(), error)) (*env.Report, error) {
	st := s.settingsFor(opts)
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ecfg, err := st.envConfig(ctx, cfg)
	if err != nil {
		return nil, err
	}
	policies := make([]env.Policy, len(cfg.Policies))
	for i, name := range cfg.Policies {
		if name == "paws" {
			policies[i] = &pawsPolicy{st: st, beta: cfg.Beta}
			continue
		}
		p, err := env.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("paws: %w (plus \"paws\")", err)
		}
		policies[i] = p
	}
	rc := env.RunConfig{Workers: st.workers}
	if pf := st.progress; pf != nil {
		rc.Progress = func(policy string, season, seasons int) {
			pf(ProgressEvent{Stage: "season", Item: policy, Current: season, Total: seasons})
		}
	}
	if open != nil {
		rc.Open = func(ctx context.Context) (env.Stepper, func(), error) { return open(ctx, cfg, ecfg) }
	}
	return env.Run(ctx, ecfg, policies, rc)
}

// Planner-shape defaults for the paws simulation policy.
const (
	// simTargetKMPerCell sets how thinly the budget is spread over the
	// targeted sector: ~1 km/cell sits below the knee of the detection
	// curve (1−exp(−λc)), so coverage is broad rather than saturating.
	simTargetKMPerCell = 1.0
	// Route extraction around each post (the deployable patrol artifact).
	simPlanRadius   = 8
	simPlanMaxCells = 90
	simPlanT        = 10
	simPlanK        = 3.0
	simPlanSegments = 8
)

// pawsPolicy is the full PAWS pipeline as a simulation policy. Each season
// it rebuilds the dataset from the observed record, retrains the configured
// model kind, and targets the predicted-risk hot mass: the budget is spread
// over the top cells of the park-wide risk map, proportional to risk — the
// paper's field-test protocol of selecting high-risk sectors at a nominal
// achievable effort. The Frank-Wolfe planner then turns each patrol post's
// share of the allocation into executable routes, reported with the plan.
// Retraining every season is what lets the policy chase displacement: when
// the adaptive attacker shifts into neighbouring cells, next season's
// detections move the risk map after it.
type pawsPolicy struct {
	st   settings
	beta float64
}

func (p *pawsPolicy) Name() string { return "paws" }

// trainSettings picks lighter-than-paper defaults (the model retrains every
// season) unless the caller set them explicitly.
func (p *pawsPolicy) trainSettings(seed int64) settings {
	st := p.st
	if !st.kindSet {
		st.kind = DTBiW
	}
	st.thresholds = positiveOr(st.thresholds, 6)
	st.members = positiveOr(st.members, 5)
	st.seed = seed
	return st
}

func (p *pawsPolicy) PlanSeason(ctx context.Context, o *env.Obs, season int, r *rng.RNG) (*env.SeasonPlan, error) {
	item := fmt.Sprintf("season %d", season)
	// The observed record is exactly a waypoint-free history; train on the
	// effort maps directly.
	h := &poach.History{
		Park:         o.Park,
		Months:       o.Months,
		Effort:       o.Effort,
		Observations: o.Observations,
	}
	endBuild := obs.StartSpan(ctx, "build", item)
	d, err := dataset.BuildFromEffort(h, dataset.StandardConfig())
	endBuild()
	if err != nil {
		return nil, err
	}
	endTrain := obs.StartSpan(ctx, "train", item)
	m, err := p.trainSettings(r.Int63()).train(ctx, d.AllPoints())
	if err != nil {
		endTrain()
		return nil, err
	}
	pm, err := newPlannerModel(ctx, m, d, len(d.Steps)-1, p.st.workers)
	endTrain()
	if err != nil {
		return nil, err
	}
	// Park-wide risk map at the nominal per-cell effort the sectors will
	// actually receive, then target the hottest cells: enough of them that
	// each gets ~simTargetKMPerCell of the budget, weighted by risk.
	n := o.Park.Grid.NumCells()
	endRisk := obs.StartSpan(ctx, "riskmap", item)
	risk, _, err := pm.Maps(ctx, simTargetKMPerCell)
	endRisk()
	if err != nil {
		return nil, err
	}
	targets := int(o.BudgetKM / simTargetKMPerCell)
	if targets < 1 {
		targets = 1
	}
	if targets > n {
		targets = n
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Risk descending, cell id ascending on ties — deterministic.
	sort.Slice(order, func(a, b int) bool {
		ra, rb := risk[order[a]], risk[order[b]]
		if ra != rb {
			return ra > rb
		}
		return order[a] < order[b]
	})
	eff := make([]float64, n)
	for _, cell := range order[:targets] {
		eff[cell] = risk[cell]
	}
	endRoutes := obs.StartSpan(ctx, "routes", item)
	routes, err := p.extractRoutes(ctx, o, pm)
	endRoutes()
	if err != nil {
		return nil, err
	}
	return &env.SeasonPlan{Effort: eff, Routes: routes}, nil
}

// extractRoutes turns the plan into the deployable artifact: per patrol
// post, a Frank-Wolfe solve over the post's neighbourhood followed by route
// extraction — the patrols rangers would actually walk.
func (p *pawsPolicy) extractRoutes(ctx context.Context, o *env.Obs, pm *PlannerModel) ([][]int, error) {
	radius, maxCells := p.st.radius, p.st.maxCells
	if radius <= 0 {
		radius = simPlanRadius
	}
	if maxCells <= 0 {
		maxCells = simPlanMaxCells
	}
	t, k, segments := p.st.horizonT, p.st.horizonK, p.st.segments
	if t <= 0 {
		t = simPlanT
	}
	if k <= 0 {
		k = simPlanK
	}
	if segments <= 0 {
		segments = simPlanSegments
	}
	cfg := plan.Config{T: t, K: k, Segments: segments, Beta: p.beta, Solver: plan.SolverFrankWolfe, Workers: p.st.workers}
	type postRoutes struct {
		region *plan.Region
		routes []plan.Route
	}
	// Per-post solves are independent; fan them out. Aggregation below runs
	// in post order, so the output is identical for any worker count.
	plans, err := par.MapErrCtx(ctx, p.st.workers, len(o.Park.Posts), func(i int) (postRoutes, error) {
		region, err := plan.NewRegion(o.Park, o.Park.Posts[i], radius, maxCells)
		if err != nil {
			return postRoutes{}, err
		}
		pl, err := plan.Solve(region, pm, cfg)
		if err != nil {
			return postRoutes{}, err
		}
		routes, err := plan.ExtractRoutes(region, pl.Effort, cfg.T, int(cfg.K))
		if err != nil {
			return postRoutes{}, err
		}
		return postRoutes{region: region, routes: routes}, nil
	})
	if err != nil {
		return nil, err
	}
	var routes [][]int
	for _, pr := range plans {
		for _, rt := range pr.routes {
			routes = append(routes, rt.ParkCells(pr.region))
		}
	}
	return routes, nil
}
