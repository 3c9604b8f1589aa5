// Package env is the closed-loop patrol simulation: plan → patrol →
// poacher reaction, season after season, exposed as a stepped environment —
// the Reset/Step(allocation) → (observation, stats, done) shape
// reinforcement-learning harnesses expect. One Env is one episode stream:
// Reset rebuilds the observed record from the bootstrap history and
// restores the attacker's memory as warmed on it once, and each Step
// executes one season of patrol effort against the responsive poacher,
// appending the realized effort, detections and observations to the
// policy-visible record.
//
// Run is the policy comparison over it: every policy plays one episode
// through Drive against a Stepper — a local Env over one shared bootstrap,
// or a remote HTTP session (internal/serve's /v1/envs, consumed through
// Client) — and the season logs merge into a Report. An Env run, a Run
// policy log and a remote session are all the same computation: given the
// same park, seed and effort sequence they produce byte-identical season
// statistics.
//
// # Determinism
//
// All randomness of a step is derived from (seed, month) only — the common
// random numbers of the comparison harness (see monthDraws). Two
// environments at the same park and seed diverge only where their effort
// allocations actually change an attack or detection probability, and an
// episode replayed after Reset reproduces itself exactly.
package env

import (
	"context"
	"errors"
	"fmt"
	"math"

	"paws/internal/geo"
	"paws/internal/poach"
	"paws/internal/rng"
	"paws/internal/stats"
)

// Obs is the policy-visible state of an environment: the park and the
// observed patrol record. Hidden ground truth (where attacks actually
// happened) is deliberately absent — policies know exactly what real park
// managers know. All slices are owned by the engine and must be treated as
// read-only.
type Obs struct {
	Park *geo.Park
	// Months is the number of observed months; Effort and Detections have
	// one entry per month.
	Months int
	// Effort[m][cell] is the realized patrol effort (km).
	Effort [][]float64
	// Detections[m][cell] reports a detected poaching sign.
	Detections [][]bool
	// Observations is the SMART-style observation log (poaching and
	// non-poaching).
	Observations []poach.Observation
	// BudgetKM is the per-month patrol budget the plan will be scaled to.
	BudgetKM float64
}

// SeasonPlan is a policy's allocation for one season: desired per-cell
// patrol effort (rescaled by the engine to the budget) and, optionally, the
// executable routes behind it (reported, not re-derived).
type SeasonPlan struct {
	// Effort[cell] is the desired patrol effort; only its relative
	// distribution matters (the engine normalizes the total to the budget).
	Effort []float64
	// Routes are optional executable patrols in park cell ids.
	Routes [][]int
}

// Policy plans one season of patrol effort from the observed record. r is a
// deterministic stream derived from the simulation seed, the policy name and
// the season — the only randomness a policy may use.
type Policy interface {
	Name() string
	PlanSeason(ctx context.Context, obs *Obs, season int, r *rng.RNG) (*SeasonPlan, error)
}

// SeasonStats is one season's outcome.
type SeasonStats struct {
	Season     int     `json:"season"`
	StartMonth int     `json:"start_month"`
	Snares     int     `json:"snares"`
	Detections int     `json:"detections"`
	Displaced  int     `json:"displaced"`
	Routes     int     `json:"routes"`
	EffortKM   float64 `json:"effort_km"`
}

// PolicyResult is one policy's full season log plus totals.
type PolicyResult struct {
	Policy     string        `json:"policy"`
	Seasons    []SeasonStats `json:"seasons"`
	Snares     int           `json:"snares"`
	Detections int           `json:"detections"`
	Displaced  int           `json:"displaced"`
}

// Config drives one environment.
type Config struct {
	// Park is the generated park the loop runs on.
	Park *geo.Park
	// Sim supplies the generative-process parameters (ground truth shape,
	// detection rate, patrol character for the bootstrap, temporal noise).
	// Sim.Months is ignored; BootstrapMonths is used instead.
	Sim poach.SimConfig
	// Attacker is the poacher response behaviour: poach.AttackerStatic (the
	// default, the historical process) or poach.AttackerAdaptive.
	Attacker string
	// Seasons is the number of seasons an episode lasts.
	Seasons int
	// SeasonMonths is the number of months per season (default 3 — one
	// quarterly planning cycle, matching the dataset discretization).
	SeasonMonths int
	// BootstrapMonths is the historical record simulated before the loop
	// starts (default 24). It must cover at least one dataset step.
	BootstrapMonths int
	// BudgetKM is the per-month patrol budget; 0 derives the park's ranger
	// capacity from Sim.Patrol (posts × patrols × length).
	BudgetKM float64
}

// WithDefaults validates and fills cfg. Zero values select defaults;
// negative values (and degenerate parks) are rejected rather than silently
// replaced, so a caller's typo surfaces as a structured error instead of a
// simulation of the wrong thing. It is idempotent.
func (cfg Config) WithDefaults() (Config, error) {
	if cfg.Park == nil {
		return cfg, fmt.Errorf("env: nil park")
	}
	if len(cfg.Park.Posts) == 0 {
		return cfg, fmt.Errorf("env: park %s has no patrol posts", cfg.Park.Name)
	}
	if cfg.Seasons < 1 {
		return cfg, fmt.Errorf("env: seasons must be ≥ 1, got %d", cfg.Seasons)
	}
	if cfg.SeasonMonths < 0 {
		return cfg, fmt.Errorf("env: season months must be ≥ 1, got %d", cfg.SeasonMonths)
	}
	if cfg.SeasonMonths == 0 {
		cfg.SeasonMonths = 3
	}
	if cfg.BootstrapMonths < 0 {
		return cfg, fmt.Errorf("env: bootstrap months must be ≥ 1, got %d", cfg.BootstrapMonths)
	}
	if cfg.BootstrapMonths == 0 {
		cfg.BootstrapMonths = 24
	}
	if cfg.BudgetKM < 0 || math.IsNaN(cfg.BudgetKM) || math.IsInf(cfg.BudgetKM, 0) {
		return cfg, fmt.Errorf("env: budget %v km/month must be a non-negative finite number", cfg.BudgetKM)
	}
	if cfg.BudgetKM == 0 {
		p := cfg.Sim.Patrol
		cfg.BudgetKM = float64(len(cfg.Park.Posts) * p.PatrolsPerPostMonth * p.LengthKM)
	}
	if cfg.BudgetKM <= 0 {
		return cfg, fmt.Errorf("env: no patrol budget (set BudgetKM or Sim.Patrol)")
	}
	if err := poach.ValidateAttackerKind(cfg.Attacker); err != nil {
		return cfg, err
	}
	if cfg.Attacker == "" {
		cfg.Attacker = poach.AttackerStatic
	}
	return cfg, nil
}

// ErrDone is returned by Step once the episode's seasons are exhausted;
// call Reset to start a fresh episode. Over HTTP it renders as a structured
// 409 conflict.
var ErrDone = errors.New("env: episode is done")

// bootstrap simulates the historical record every episode of cfg starts
// from — BootstrapMonths of the park's status-quo ranger behaviour — and
// warms an attacker of cfg's kind on it. Episodes share both read-only:
// Reset copies the record's outer slices and clones the attacker.
func bootstrap(cfg Config) (*poach.History, poach.Attacker, error) {
	bootCfg := cfg.Sim
	bootCfg.Months = cfg.BootstrapMonths
	boot, err := poach.Simulate(cfg.Park, bootCfg)
	if err != nil {
		return nil, nil, fmt.Errorf("env: bootstrap history: %w", err)
	}
	att, err := poach.NewAttacker(boot.Truth, cfg.Attacker)
	if err != nil {
		return nil, nil, err
	}
	for m := 0; m < boot.Months; m++ {
		att.BeginMonth(m, prevEffort(boot, m))
	}
	return boot, att, nil
}

// Env is the local stepped environment. It is not safe for concurrent use;
// the session Manager serializes remote steps per session.
type Env struct {
	cfg  Config
	boot *poach.History
	// warm is the attacker warmed on boot; each Reset plays a clone.
	warm poach.Attacker

	// Per-episode state, rebuilt by Reset.
	h      *poach.History
	att    poach.Attacker
	season int
	done   bool
}

// New builds an environment: validate the config, simulate the bootstrap
// history, and reset to the first episode.
func New(cfg Config) (*Env, error) {
	cfg, err := cfg.WithDefaults()
	if err != nil {
		return nil, err
	}
	boot, warm, err := bootstrap(cfg)
	if err != nil {
		return nil, err
	}
	e := &Env{cfg: cfg, boot: boot, warm: warm}
	if _, err := e.Reset(context.Background()); err != nil {
		return nil, err
	}
	return e, nil
}

// Config returns the defaults-filled configuration.
func (e *Env) Config() Config { return e.cfg }

// Season returns the index of the next season Step will execute (equal to
// the number of seasons completed this episode).
func (e *Env) Season() int { return e.season }

// Done reports whether the episode's seasons are exhausted.
func (e *Env) Done() bool { return e.done }

// Months returns the number of observed months (bootstrap + stepped).
func (e *Env) Months() int { return e.h.Months }

// Obs returns the current policy-visible observation.
func (e *Env) Obs() *Obs {
	return &Obs{
		Park:         e.cfg.Park,
		Months:       e.h.Months,
		Effort:       e.h.Effort,
		Detections:   e.h.Detected,
		Observations: e.h.Observations,
		BudgetKM:     e.cfg.BudgetKM,
	}
}

// Reset starts a fresh episode: a clone of the attacker warmed on the
// bootstrap record, and an extendable copy of the bootstrap history. The
// context parameter exists for the Stepper interface (a remote Reset is a
// network call); the local reset never blocks on it.
func (e *Env) Reset(context.Context) (*Obs, error) {
	e.h, e.att = extendableCopy(e.boot), e.warm.Clone()
	e.season, e.done = 0, false
	return e.Obs(), nil
}

// Step executes one season of the episode: rescale the allocation to the
// monthly budget, then for each month let the attacker react, place snares,
// and detect signs under the effort-dependent detection probability —
// appending everything observable to the record. It returns the new
// observation, the season's statistics (Routes is always 0 — routes are a
// driver-side artifact, see Drive), and whether the episode is done.
// Stepping a done episode returns ErrDone.
func (e *Env) Step(ctx context.Context, effort []float64) (*Obs, SeasonStats, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, SeasonStats{}, e.done, err
	}
	if e.done {
		return nil, SeasonStats{}, true, ErrDone
	}
	n := e.cfg.Park.Grid.NumCells()
	eff, err := scaleToBudget(effort, e.cfg.BudgetKM, n)
	if err != nil {
		return nil, SeasonStats{}, false, err
	}
	gt := e.boot.Truth
	h := e.h
	st := SeasonStats{Season: e.season, StartMonth: h.Months}
	for k := 0; k < e.cfg.SeasonMonths; k++ {
		m := h.Months
		e.att.BeginMonth(m, prevEffort(h, m))
		noise, attackU, detectU, obsU := monthDraws(e.cfg.Sim.Seed, m, n)
		attacked := make([]bool, n)
		detected := make([]bool, n)
		for id := 0; id < n; id++ {
			logit := e.att.AttackLogit(id) + e.cfg.Sim.TemporalNoise*noise[id]
			if attackU[id] >= stats.Logistic(logit) {
				continue
			}
			attacked[id] = true
			st.Snares++
			if e.att.Displaced(id) {
				st.Displaced++
			}
			if detectU[id] < gt.DetectProb(eff[id]) {
				detected[id] = true
				st.Detections++
				h.Observations = append(h.Observations, poach.Observation{Month: m, CellID: id, Poaching: true})
			}
		}
		for id := 0; id < n; id++ {
			if eff[id] > 0 && obsU[id] < e.cfg.Sim.NonPoachingRate {
				h.Observations = append(h.Observations, poach.Observation{Month: m, CellID: id, Poaching: false})
			}
		}
		h.Effort = append(h.Effort, eff)
		h.Attacked = append(h.Attacked, attacked)
		h.Detected = append(h.Detected, detected)
		h.Months++
		for _, v := range eff {
			st.EffortKM += v
		}
	}
	e.season++
	if e.season >= e.cfg.Seasons {
		e.done = true
	}
	return e.Obs(), st, e.done, nil
}

// monthDraws returns the per-cell random draws for one simulated month,
// derived from the root seed and the month only — every policy sees the same
// draws (common random numbers), so two policies' outcomes differ only where
// their patrol effort actually changes a probability. Exactly four draws per
// cell are consumed in a fixed order, so the streams stay aligned across
// policies regardless of outcomes.
func monthDraws(seed int64, month, n int) (noise, attackU, detectU, obsU []float64) {
	r := rng.New(seed).Split(fmt.Sprintf("sim-month:%d", month))
	noise = make([]float64, n)
	attackU = make([]float64, n)
	detectU = make([]float64, n)
	obsU = make([]float64, n)
	for id := 0; id < n; id++ {
		noise[id] = r.NormFloat64()
		attackU[id] = r.Float64()
		detectU[id] = r.Float64()
		obsU[id] = r.Float64()
	}
	return noise, attackU, detectU, obsU
}

// prevEffort returns month m−1's realized effort, or nil for the first month.
func prevEffort(h *poach.History, m int) []float64 {
	if m <= 0 {
		return nil
	}
	return h.Effort[m-1]
}

// extendableCopy clones the outer slices of a history so each episode can
// append months without touching the shared bootstrap. Inner per-month
// slices are shared read-only.
func extendableCopy(boot *poach.History) *poach.History {
	h := *boot
	h.Effort = append(make([][]float64, 0, len(boot.Effort)+8), boot.Effort...)
	h.Attacked = append(make([][]bool, 0, len(boot.Attacked)+8), boot.Attacked...)
	h.Detected = append(make([][]bool, 0, len(boot.Detected)+8), boot.Detected...)
	h.Observations = append(make([]poach.Observation, 0, len(boot.Observations)+64), boot.Observations...)
	return &h
}

// scaleToBudget clamps negatives and rescales the allocation so the total
// equals the monthly budget. An all-zero allocation falls back to uniform.
func scaleToBudget(effort []float64, budget float64, n int) ([]float64, error) {
	if len(effort) != n {
		return nil, fmt.Errorf("env: plan has %d cells, park has %d", len(effort), n)
	}
	out := make([]float64, n)
	var total float64
	for i, e := range effort {
		if e > 0 {
			out[i] = e
			total += e
		}
	}
	if total <= 0 {
		u := budget / float64(n)
		for i := range out {
			out[i] = u
		}
		return out, nil
	}
	scale := budget / total
	for i := range out {
		out[i] *= scale
	}
	return out, nil
}
