package env

import (
	"context"
	"fmt"
	"strings"

	"paws/internal/obs"
	"paws/internal/par"
	"paws/internal/rng"
)

// Stepper is what a policy driver needs from an environment: the local Env
// and the remote HTTP Client both implement it, so the same Drive call
// plays a policy against an in-process episode or a /v1/envs session — and
// produces byte-identical results for the same park, seed and budget.
type Stepper interface {
	// Reset starts a fresh episode and returns its initial observation.
	Reset(ctx context.Context) (*Obs, error)
	// Step executes one season of the given per-cell effort allocation.
	Step(ctx context.Context, effort []float64) (*Obs, SeasonStats, bool, error)
}

// DriveConfig tunes one Drive call.
type DriveConfig struct {
	// Seed roots the policy's deterministic random streams (one split per
	// season, labeled by policy name — the convention Run uses, so a driven
	// policy reproduces its Run season log exactly).
	Seed int64
	// Seasons bounds the episode; Drive also stops early when the Stepper
	// reports done.
	Seasons int
	// Progress, when non-nil, is invoked after each completed season with
	// (policy name, seasons finished, total seasons). It is observational
	// only and never affects the result.
	Progress func(policy string, season, seasons int)
}

// Drive plays one policy through one episode: Reset, then for each season
// plan (under a per-season split of the seed's policy stream) and Step. The
// season's Routes count is overlaid from the plan — routes are a reporting
// artifact of the policy, not an environment outcome. The Reset records a
// "reset" compute span, item the policy name, and each season a "plan" and
// a "patrol" span, item "<policy> season N".
func Drive(ctx context.Context, st Stepper, p Policy, cfg DriveConfig) (PolicyResult, error) {
	endReset := obs.StartSpan(ctx, "reset", p.Name())
	o, err := st.Reset(ctx)
	endReset()
	if err != nil {
		return PolicyResult{}, err
	}
	res := PolicyResult{Policy: p.Name()}
	root := rng.New(cfg.Seed)
	for s := 0; s < cfg.Seasons; s++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		item := fmt.Sprintf("%s season %d", p.Name(), s)
		stream := root.Split(fmt.Sprintf("policy:%s:season:%d", p.Name(), s))
		endPlan := obs.StartSpan(ctx, "plan", item)
		plan, err := p.PlanSeason(ctx, o, s, stream)
		endPlan()
		if err != nil {
			return res, fmt.Errorf("env: policy %s season %d: %w", p.Name(), s, err)
		}
		endPatrol := obs.StartSpan(ctx, "patrol", item)
		next, stats, done, err := st.Step(ctx, plan.Effort)
		endPatrol()
		if err != nil {
			return res, fmt.Errorf("env: policy %s season %d: %w", p.Name(), s, err)
		}
		stats.Routes = len(plan.Routes)
		res.Seasons = append(res.Seasons, stats)
		res.Snares += stats.Snares
		res.Detections += stats.Detections
		res.Displaced += stats.Displaced
		o = next
		if cfg.Progress != nil {
			cfg.Progress(p.Name(), s+1, cfg.Seasons)
		}
		if done {
			break
		}
	}
	return res, nil
}

// RunConfig tunes one Run call beyond the environment itself.
type RunConfig struct {
	// Workers bounds the goroutines policies fan out over (par.Workers
	// semantics). The report is byte-identical for any worker count.
	Workers int
	// Progress, when non-nil, is invoked after each policy finishes a
	// season with (policy name, seasons finished, total seasons). Policies
	// run concurrently, so the callback must be safe for concurrent use; it
	// is observational only and never affects the report.
	Progress func(policy string, season, seasons int)
	// Open, when non-nil, supplies each policy's Stepper together with a
	// release func Run calls once that policy's episode ends, failed or
	// not — a Client over a remote /v1/envs session, say. Nil plays every
	// policy against a local Env over one shared bootstrap history, which
	// Run simulates, and warms an attacker on, under a "bootstrap" compute
	// span.
	Open func(ctx context.Context) (Stepper, func(), error)
}

// Report is the head-to-head outcome of one comparison run.
type Report struct {
	Park         string         `json:"park"`
	Seed         int64          `json:"seed"`
	Attacker     string         `json:"attacker"`
	Seasons      int            `json:"seasons"`
	SeasonMonths int            `json:"season_months"`
	BudgetKM     float64        `json:"budget_km"`
	Policies     []PolicyResult `json:"policies"`
}

// Run is the closed-loop policy comparison: every policy plays one episode
// of cfg through Drive, seeded by cfg.Sim.Seed, and the results are merged
// into a Report in policy order. Policies are independent given the shared
// bootstrap history and common random numbers, so they fan out over
// rc.Workers goroutines — the report is byte-identical for any count, and
// for any Stepper that replays the same episode.
func Run(ctx context.Context, cfg Config, policies []Policy, rc RunConfig) (*Report, error) {
	cfg, err := cfg.WithDefaults()
	if err != nil {
		return nil, err
	}
	if len(policies) == 0 {
		return nil, fmt.Errorf("env: no policies")
	}
	seen := map[string]bool{}
	for _, p := range policies {
		if seen[p.Name()] {
			return nil, fmt.Errorf("env: duplicate policy %q", p.Name())
		}
		seen[p.Name()] = true
	}
	open := rc.Open
	if open == nil {
		endBoot := obs.StartSpan(ctx, "bootstrap", cfg.Park.Name)
		boot, warm, err := bootstrap(cfg)
		endBoot()
		if err != nil {
			return nil, err
		}
		// Every policy's Env shares the bootstrap and its warmed attacker
		// read-only (each episode appends to its own copy of the record and
		// plays its own clone); Drive's Reset starts the episode.
		open = func(context.Context) (Stepper, func(), error) {
			return &Env{cfg: cfg, boot: boot, warm: warm}, func() {}, nil
		}
	}
	results, err := par.MapErrCtx(ctx, rc.Workers, len(policies), func(i int) (PolicyResult, error) {
		st, release, err := open(ctx)
		if err != nil {
			return PolicyResult{}, err
		}
		defer release()
		return Drive(ctx, st, policies[i], DriveConfig{
			Seed:     cfg.Sim.Seed,
			Seasons:  cfg.Seasons,
			Progress: rc.Progress,
		})
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		Park:         cfg.Park.Name,
		Seed:         cfg.Sim.Seed,
		Attacker:     cfg.Attacker,
		Seasons:      cfg.Seasons,
		SeasonMonths: cfg.SeasonMonths,
		BudgetKM:     cfg.BudgetKM,
		Policies:     results,
	}, nil
}

// Format renders the report as a fixed-width text table. The output is a
// pure function of the report values — byte-identical for any worker count —
// which the determinism tests and the pawssim smoke script rely on.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "park %s seed %d: %d seasons × %d months, budget %.1f km/month, attacker %s\n",
		r.Park, r.Seed, r.Seasons, r.SeasonMonths, r.BudgetKM, r.Attacker)
	fmt.Fprintf(&b, "%-12s %6s %9s %7s %9s %10s %7s %10s\n",
		"policy", "season", "months", "snares", "detected", "displaced", "routes", "effort-km")
	for _, p := range r.Policies {
		for _, s := range p.Seasons {
			months := fmt.Sprintf("%d-%d", s.StartMonth, s.StartMonth+r.SeasonMonths-1)
			fmt.Fprintf(&b, "%-12s %6d %9s %7d %9d %10d %7d %10.1f\n",
				p.Policy, s.Season+1, months, s.Snares, s.Detections, s.Displaced, s.Routes, s.EffortKM)
		}
	}
	for _, p := range r.Policies {
		rate := 0.0
		if p.Snares > 0 {
			rate = 100 * float64(p.Detections) / float64(p.Snares)
		}
		fmt.Fprintf(&b, "total %-12s snares %5d  detected %5d (%.1f%%)  displaced %5d\n",
			p.Policy, p.Snares, p.Detections, rate, p.Displaced)
	}
	return b.String()
}
