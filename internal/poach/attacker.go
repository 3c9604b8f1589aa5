package poach

import (
	"fmt"
	"slices"
)

// Attacker is the poacher decision model the closed-loop simulator
// (internal/env) plays patrol policies against. The simulator drives it month
// by month: BeginMonth folds the previous month's *realized* patrol effort
// into the attacker's state, then AttackLogit is queried per cell to sample
// this month's snares.
//
// Two implementations exist. The static attacker reproduces exactly the
// generative process poach.Simulate uses for historical data — a
// previous-month deterrence term and nothing else — and is the default, so
// existing behaviour is unchanged unless a caller opts in. The adaptive
// attacker is the "Game Theory on the Ground" response model: poachers
// remember patrol pressure over several months (deterrence) and shift their
// effort into less-patrolled neighbouring cells (displacement).
type Attacker interface {
	// BeginMonth starts month m, folding the previous month's realized
	// per-cell effort into internal state (nil when there is no previous
	// month). Months must be fed in order; replaying a historical record
	// through BeginMonth warm-starts the attacker's memory.
	BeginMonth(month int, prevEffort []float64)
	// AttackLogit returns the attack log-odds for cell id in the current
	// month.
	AttackLogit(id int) float64
	// Displaced reports whether an attack at cell id this month should be
	// attributed to displacement — patrol pressure on neighbouring cells
	// pushing poachers here — rather than the cell's intrinsic risk.
	Displaced(id int) bool
	// Clone returns an independent copy of the attacker's state: months fed
	// to either copy leave the other unchanged, so one attacker warmed on a
	// historical record can start any number of episodes.
	Clone() Attacker
}

// Attacker kinds NewAttacker builds. The empty kind is the static one.
const (
	AttackerStatic   = "static"
	AttackerAdaptive = "adaptive"
)

// The adaptive attacker runs with one parameter set.
const (
	// adaptiveMemory is the month-over-month pressure decay:
	// pressure ← adaptiveMemory·pressure + realized effort.
	adaptiveMemory = 0.6
	// displacementRadius is the displacement neighbourhood radius in cells
	// (Chebyshev distance, self excluded).
	displacementRadius = 2
)

// ValidateAttackerKind checks a kind without building anything — the
// submit-time validation surface of the async job API.
func ValidateAttackerKind(kind string) error {
	switch kind {
	case "", AttackerStatic, AttackerAdaptive:
		return nil
	}
	return fmt.Errorf("poach: unknown attacker kind %q (want %s or %s)", kind, AttackerStatic, AttackerAdaptive)
}

// NewAttacker builds the attacker behaviour kind names over a ground truth.
func NewAttacker(gt *GroundTruth, kind string) (Attacker, error) {
	switch kind {
	case "", AttackerStatic:
		return &StaticAttacker{Truth: gt}, nil
	case AttackerAdaptive:
		// The ground truth's deterrence scaled by (1 − adaptiveMemory), so
		// the steady-state penalty under constant effort matches the static
		// model; displacement is half of it.
		det := gt.Deterrence * (1 - adaptiveMemory)
		n := gt.Park.Grid.NumCells()
		return &AdaptiveAttacker{
			Truth:        gt,
			deterrence:   det,
			displacement: det / 2,
			pressure:     make([]float64, n),
			spill:        make([]float64, n),
		}, nil
	}
	// Single source of truth for the error: a kind NewAttacker cannot build
	// must be one ValidateAttackerKind rejects, or the submit-time
	// validation drifts from the build path.
	if err := ValidateAttackerKind(kind); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("poach: attacker kind %q passes validation but has no builder", kind)
}

// StaticAttacker reproduces the historical generative process of
// poach.Simulate: the attack logit responds only to the previous month's
// effort in the same cell, through the ground truth's Deterrence.
type StaticAttacker struct {
	Truth *GroundTruth

	month int
	prev  []float64
}

// BeginMonth records the month and the previous month's effort.
func (a *StaticAttacker) BeginMonth(month int, prevEffort []float64) {
	a.month = month
	a.prev = prevEffort
}

// AttackLogit returns the ground truth's attack log-odds for the cell.
func (a *StaticAttacker) AttackLogit(id int) float64 {
	prev := 0.0
	if a.prev != nil {
		prev = a.prev[id]
	}
	return a.Truth.AttackLogit(id, a.month, prev)
}

// Displaced always reports false: the static attacker never relocates.
func (a *StaticAttacker) Displaced(id int) bool { return false }

// Clone copies the month and shares the previous month's effort, which
// BeginMonth replaces and never writes into.
func (a *StaticAttacker) Clone() Attacker {
	c := *a
	return &c
}

// AdaptiveAttacker responds to realized patrol effort with memory: an
// exponentially decayed per-cell pressure trace deters attacks where patrols
// have been, and the average pressure of the surrounding neighbourhood
// attracts the displaced remainder — poachers stepping sideways out of
// patrolled areas rather than quitting.
type AdaptiveAttacker struct {
	Truth *GroundTruth

	// deterrence scales the own-cell pressure penalty in the attack logit;
	// displacement scales the neighbourhood-pressure bonus (patrols next
	// door push attacks here).
	deterrence, displacement float64

	month    int
	pressure []float64 // decayed realized-effort trace per cell
	spill    []float64 // mean neighbourhood pressure per cell, current month
}

// BeginMonth decays the pressure trace, folds in the previous month's
// realized effort, and rebuilds the neighbourhood-spill field.
func (a *AdaptiveAttacker) BeginMonth(month int, prevEffort []float64) {
	a.month = month
	for i := range a.pressure {
		a.pressure[i] *= adaptiveMemory
	}
	if prevEffort != nil {
		for i, e := range prevEffort {
			a.pressure[i] += e
		}
	}
	grid := a.Truth.Park.Grid
	n := grid.NumCells()
	for id := 0; id < n; id++ {
		x, y := grid.CellXY(id)
		var sum float64
		count := 0
		for dy := -displacementRadius; dy <= displacementRadius; dy++ {
			for dx := -displacementRadius; dx <= displacementRadius; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				if nb := grid.CellID(x+dx, y+dy); nb >= 0 {
					sum += a.pressure[nb]
					count++
				}
			}
		}
		if count > 0 {
			a.spill[id] = sum / float64(count)
		} else {
			a.spill[id] = 0
		}
	}
}

// Clone copies the month and the pressure and spill fields.
func (a *AdaptiveAttacker) Clone() Attacker {
	c := *a
	c.pressure = slices.Clone(a.pressure)
	c.spill = slices.Clone(a.spill)
	return &c
}

// AttackLogit returns the cell's intrinsic log-odds (the ground truth's
// logit at zero effort) minus the own-cell deterrence plus the displacement
// bonus from patrolled neighbours.
func (a *AdaptiveAttacker) AttackLogit(id int) float64 {
	base := a.Truth.AttackLogit(id, a.month, 0)
	return base - a.deterrence*a.pressure[id] + a.displacement*a.spill[id]
}

// displacedLogitMargin is the minimum net displacement bonus (in logit
// units) before an attack is attributed to displacement rather than the
// cell's intrinsic risk.
const displacedLogitMargin = 0.05

// Displaced reports whether the displacement bonus at the cell currently
// outweighs its own deterrence by a material margin.
func (a *AdaptiveAttacker) Displaced(id int) bool {
	return a.displacement*a.spill[id] > a.deterrence*a.pressure[id]+displacedLogitMargin
}
