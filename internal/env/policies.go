package env

import (
	"context"
	"fmt"
	"math"
	"sort"

	"paws/internal/rng"
)

// This file hosts the built-in policies: the ML-free baselines (uniform,
// historical, random) and two learned sequential policies (thompson,
// softmax). All of them plan each season purely from the observed record
// the Obs carries, so they run identically against a local Env or a remote
// /v1/envs session. The paper-faithful PAWS policy (retrain + Frank-Wolfe
// plan) lives in the root package (it needs the training and planning
// layers) and is injected through the Policy interface.

// ByName resolves a built-in policy name. The "paws" policy is constructed
// by the root package.
func ByName(name string) (Policy, error) {
	switch name {
	case "uniform":
		return Uniform(), nil
	case "historical":
		return Historical(), nil
	case "random":
		return Random(), nil
	case "thompson":
		return Thompson(), nil
	case "softmax":
		return Softmax(), nil
	}
	return nil, fmt.Errorf("env: unknown policy %q (built-ins: uniform, historical, random, thompson, softmax)", name)
}

// Uniform returns the uniform-effort baseline: the budget spread evenly over
// every park cell.
func Uniform() Policy { return uniformPolicy{} }

type uniformPolicy struct{}

func (uniformPolicy) Name() string { return "uniform" }

func (uniformPolicy) PlanSeason(_ context.Context, o *Obs, _ int, _ *rng.RNG) (*SeasonPlan, error) {
	eff := make([]float64, o.Park.Grid.NumCells())
	for i := range eff {
		eff[i] = 1
	}
	return &SeasonPlan{Effort: eff}, nil
}

// Historical returns the status-quo baseline: effort allocated proportional
// to the cumulative observed patrol record — keep patrolling where rangers
// have always patrolled.
func Historical() Policy { return historicalPolicy{} }

type historicalPolicy struct{}

func (historicalPolicy) Name() string { return "historical" }

func (historicalPolicy) PlanSeason(_ context.Context, o *Obs, _ int, _ *rng.RNG) (*SeasonPlan, error) {
	eff := make([]float64, o.Park.Grid.NumCells())
	for m := 0; m < o.Months; m++ {
		for id, e := range o.Effort[m] {
			eff[id] += e
		}
	}
	return &SeasonPlan{Effort: eff}, nil
}

// randomCellFraction is the share of park cells the random baseline patrols
// each season.
const randomCellFraction = 0.25

// Random returns the random baseline: each season, the budget spread evenly
// over a fresh random quarter of the park.
func Random() Policy { return randomPolicy{} }

type randomPolicy struct{}

func (randomPolicy) Name() string { return "random" }

func (randomPolicy) PlanSeason(_ context.Context, o *Obs, _ int, r *rng.RNG) (*SeasonPlan, error) {
	n := o.Park.Grid.NumCells()
	k := int(float64(n) * randomCellFraction)
	if k < 1 {
		k = 1
	}
	eff := make([]float64, n)
	for _, id := range r.SampleWithoutReplacement(n, k) {
		eff[id] = 1
	}
	return &SeasonPlan{Effort: eff}, nil
}

// thompsonTargetKMPerCell spreads the budget at the same nominal ~1 km/cell
// the paws policy targets, so the two concentrate effort over sectors of
// comparable size and differ only in how they rank cells.
const thompsonTargetKMPerCell = 1.0

// Thompson returns the Thompson-sampling policy: each cell keeps a
// Beta(1 + detections, 1 + patrolled-months-without-detection) posterior
// over "a patrol month here finds a snare", one sample is drawn per cell
// from the season's policy stream, and the budget concentrates on the
// highest samples — the posterior draw IS the exploration, so rarely
// patrolled cells (wide posteriors) keep getting probed while confirmed
// hot cells are exploited.
func Thompson() Policy { return thompsonPolicy{} }

type thompsonPolicy struct{}

func (thompsonPolicy) Name() string { return "thompson" }

func (thompsonPolicy) PlanSeason(_ context.Context, o *Obs, _ int, r *rng.RNG) (*SeasonPlan, error) {
	n := o.Park.Grid.NumCells()
	alpha := make([]float64, n)
	beta := make([]float64, n)
	for i := range alpha {
		alpha[i], beta[i] = 1, 1
	}
	for m := 0; m < o.Months; m++ {
		det := o.Detections[m]
		for id, e := range o.Effort[m] {
			if e <= 0 {
				continue
			}
			if det[id] {
				alpha[id]++
			} else {
				beta[id]++
			}
		}
	}
	theta := make([]float64, n)
	for id := 0; id < n; id++ {
		theta[id] = r.Beta(alpha[id], beta[id])
	}
	eff := make([]float64, n)
	for _, id := range topCells(theta, budgetTargets(o.BudgetKM, n)) {
		eff[id] = theta[id]
	}
	return &SeasonPlan{Effort: eff}, nil
}

// softmaxTemperature is the concentration knob of the softmax policy: the
// empirical risk scores are normalized to [0, 1], so τ = 0.25 gives the
// hottest cell ≈ e⁴ ≈ 55× the weight of a never-productive one — strongly
// focused, but never writing any cell off entirely.
const (
	softmaxTemperature = 0.25
	// Laplace smoothing of the detections-per-km rate: half a phantom
	// detection over five phantom kilometres, so unpatrolled cells score a
	// small positive prior instead of 0/0.
	softmaxPriorDetections = 0.5
	softmaxPriorKM         = 5.0
)

// Softmax returns the softmax-over-riskmap policy: each cell's empirical
// risk is its Laplace-smoothed detections-per-patrol-km over the whole
// observed record, and the budget is spread over ALL cells proportional to
// exp(risk/τ) — a deterministic, smoothly exploring allocation (the policy
// stream is unused) that chases where detections have actually been
// productive per kilometre walked.
func Softmax() Policy { return softmaxPolicy{} }

type softmaxPolicy struct{}

func (softmaxPolicy) Name() string { return "softmax" }

func (softmaxPolicy) PlanSeason(_ context.Context, o *Obs, _ int, _ *rng.RNG) (*SeasonPlan, error) {
	n := o.Park.Grid.NumCells()
	det := make([]float64, n)
	km := make([]float64, n)
	for m := 0; m < o.Months; m++ {
		dm := o.Detections[m]
		for id, e := range o.Effort[m] {
			km[id] += e
			if dm[id] {
				det[id]++
			}
		}
	}
	score := make([]float64, n)
	maxScore := 0.0
	for id := 0; id < n; id++ {
		score[id] = (det[id] + softmaxPriorDetections) / (km[id] + softmaxPriorKM)
		if score[id] > maxScore {
			maxScore = score[id]
		}
	}
	eff := make([]float64, n)
	for id := 0; id < n; id++ {
		s := 0.0
		if maxScore > 0 {
			s = score[id] / maxScore
		}
		eff[id] = math.Exp(s / softmaxTemperature)
	}
	return &SeasonPlan{Effort: eff}, nil
}

// budgetTargets is how many cells a budget covers at the nominal per-cell
// effort, clamped to [1, n].
func budgetTargets(budgetKM float64, n int) int {
	k := int(budgetKM / thompsonTargetKMPerCell)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// topCells returns the indices of the k largest values, value descending
// with cell id ascending on ties — deterministic for equal inputs.
func topCells(v []float64, k int) []int {
	order := make([]int, len(v))
	for i := range order {
		order[i] = i
	}
	// Selection by full sort keeps the tie-break explicit; n is park-sized.
	sort.Slice(order, func(x, y int) bool {
		a, b := order[x], order[y]
		if v[a] != v[b] {
			return v[a] > v[b]
		}
		return a < b
	})
	return order[:k]
}
