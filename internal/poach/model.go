// Package poach implements the ground-truth wildlife-crime process that
// substitutes for the proprietary SMART patrol data used in the paper: that
// data is not public, so the reproduction simulates a patrol history with
// the structure the pipeline relies on — imperfect detection that grows
// with patrol effort, and attackers deterred by past coverage.
//
// The generative model has three parts, mirroring Section III of the paper:
//
//  1. An attacker places snares in cell n during month m with probability
//     σ(w·x_n + b + seasonal(n,m) − d·c_{m−1,n}): a logistic function of the
//     true static features, a park-specific seasonal term, and a deterrence
//     term in the previous month's patrol coverage.
//  2. Rangers patrol from posts along biased walks, producing waypoint
//     streams (sparser for motorbike parks) and per-cell monthly effort.
//  3. Detection is one-sided noise: an attack in a patrolled cell is found
//     with probability 1 − exp(−λ·effort). Positives are therefore reliable
//     while negatives are only as trustworthy as the effort behind them —
//     exactly the label-noise structure iWare-E is designed for.
package poach

import (
	"fmt"
	"math"

	"paws/internal/geo"
	"paws/internal/stats"
)

// GroundTruth is the true attack and detection process for one park.
type GroundTruth struct {
	Park *geo.Park

	// Weights over the park's static features (parallel to FeatureNames).
	Weights []float64
	// Bias is the attack-logit intercept, set by Calibrate.
	Bias float64
	// Deterrence scales the previous-month coverage penalty in the logit.
	Deterrence float64
	// SeasonalAmp modulates attacks between north (dry) and south (wet).
	// Zero for parks without seasonality.
	SeasonalAmp float64
	// DetectLambda is the detection saturation rate per km of effort.
	DetectLambda float64
	// Hidden is the per-cell unobserved risk shift (see NewGroundTruth).
	Hidden []float64
	// SignalGain scales the observable part of the attack score (default 1).
	// Larger gains concentrate true risk into hot spots, producing the
	// heavy-tailed risk landscape real parks exhibit (a few snaring hot
	// spots, large cold areas) — the regime where field tests have power.
	SignalGain float64

	// score caches the attack score per cell: the linear term w·x plus the
	// nonlinear terms below and the hidden field. The nonlinearity matters
	// for Table II's model ranking — real poaching risk is not linearly
	// separable in the raw features, which is why linear SVMs underperform
	// trees and GPs.
	score []float64
}

// nonlinearScore adds the non-additive structure of the attack logit:
// poachers favour a band of distances from rivers (close enough for water
// and game trails, far enough to stay hidden) and the conjunction of high
// animal density with forest cover (game to snare AND concealment).
func nonlinearScore(park *geo.Park, id int) float64 {
	var s float64
	if r := park.FeatureByName("dist_river"); r != nil {
		d := r.V[id]
		s += 1.4 * math.Exp(-(d-2.5)*(d-2.5)/2)
	}
	animal := park.FeatureByName("animal_density")
	forest := park.FeatureByName("forest_cover")
	if animal != nil && forest != nil {
		s += 2.0 * animal.V[id] * forest.V[id]
	}
	return s
}

// NewGroundTruth builds a ground truth with the standard weight profile:
// attacks concentrate in cells with high animal density and forest cover,
// near rivers and villages, and toward the park edge — the qualitative
// structure the paper describes for MFNP/QENP/SWS.
//
// hiddenAmp adds a smooth spatially-correlated risk field that is NOT
// derivable from any observed feature: unmeasured drivers (market access,
// poacher village locations, traditional hunting grounds) that cap the
// achievable AUC of any model, as in real wildlife-crime data.
func NewGroundTruth(park *geo.Park, deterrence, seasonalAmp, detectLambda, hiddenAmp float64) *GroundTruth {
	w := make([]float64, park.NumFeatures())
	for j, name := range park.FeatureNames {
		switch name {
		case "animal_density":
			w[j] = 0.8
		case "forest_cover":
			w[j] = 0.2
		case "dist_river":
			w[j] = -0.05
		case "dist_village":
			w[j] = -0.30
		case "dist_boundary":
			w[j] = -0.12
		case "dist_road":
			w[j] = -0.05
		case "slope":
			w[j] = -0.6
		case "dist_patrol_post":
			w[j] = 0.04
		}
	}
	gt := &GroundTruth{
		Park:         park,
		Weights:      w,
		Deterrence:   deterrence,
		SeasonalAmp:  seasonalAmp,
		DetectLambda: detectLambda,
		SignalGain:   1,
	}
	n := park.Grid.NumCells()
	gt.Hidden = make([]float64, n)
	if hiddenAmp > 0 {
		nz := geo.NewNoise(park.Config.Seed+777, 4, 0.5, 0.06)
		for id := 0; id < n; id++ {
			x, y := park.Grid.CellXY(id)
			gt.Hidden[id] = hiddenAmp * (2*nz.At(float64(x), float64(y)) - 1)
		}
	}
	gt.rebuildScores()
	return gt
}

func (gt *GroundTruth) rebuildScores() {
	n := gt.Park.Grid.NumCells()
	nf := gt.Park.NumFeatures()
	// Standardize features inside the true score so the observable signal's
	// magnitude does not grow with park size (raw distance features scale
	// with the park diameter); this keeps the signal-to-noise ratio — and
	// therefore the achievable AUC — comparable across park scales.
	mean := make([]float64, nf)
	std := make([]float64, nf)
	buf := make([]float64, nf)
	for id := 0; id < n; id++ {
		buf = gt.Park.FeatureVector(id, buf)
		for j, v := range buf {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	for id := 0; id < n; id++ {
		buf = gt.Park.FeatureVector(id, buf)
		for j, v := range buf {
			d := v - mean[j]
			std[j] += d * d
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / float64(n))
		if std[j] < 1e-9 {
			std[j] = 1
		}
	}
	gain := gt.SignalGain
	if gain <= 0 {
		gain = 1
	}
	gt.score = make([]float64, n)
	for id := 0; id < n; id++ {
		buf = gt.Park.FeatureVector(id, buf)
		var s float64
		for j, v := range buf {
			s += gt.Weights[j] * (v - mean[j]) / std[j]
		}
		gt.score[id] = gain*(s+nonlinearScore(gt.Park, id)) + gt.Hidden[id]
	}
}

// SetSignalGain rescales the observable score component and rebuilds the
// cached scores. Call before Calibrate.
func (gt *GroundTruth) SetSignalGain(gain float64) {
	gt.SignalGain = gain
	gt.rebuildScores()
}

// DrySeason reports whether month m (0 = January) falls in the November–April
// dry season used for the SWS field tests.
func DrySeason(m int) bool {
	mm := m % 12
	return mm >= 10 || mm <= 3
}

// seasonal returns the seasonal logit shift for cell id in month m: in
// seasonal parks, dry-season attacks shift north and wet-season attacks
// shift south (Section VII-C of the paper).
func (gt *GroundTruth) seasonal(id, month int) float64 {
	if gt.SeasonalAmp == 0 {
		return 0
	}
	ns := gt.Park.NorthSouth.V[id]
	if DrySeason(month) {
		return gt.SeasonalAmp * ns
	}
	return -gt.SeasonalAmp * ns
}

// AttackLogit returns the attack log-odds for cell id in month m given the
// previous month's patrol effort in that cell.
func (gt *GroundTruth) AttackLogit(id, month int, prevEffort float64) float64 {
	return gt.score[id] + gt.Bias + gt.seasonal(id, month) - gt.Deterrence*prevEffort
}

// AttackProb returns the attack probability for cell id in month m.
func (gt *GroundTruth) AttackProb(id, month int, prevEffort float64) float64 {
	return stats.Logistic(gt.AttackLogit(id, month, prevEffort))
}

// DetectProb returns the probability that an attack present in a cell is
// detected under the given patrol effort (km). It is 0 at zero effort and
// saturates toward 1 — the one-sided noise of Section III-C.
func (gt *GroundTruth) DetectProb(effort float64) float64 {
	if effort <= 0 {
		return 0
	}
	return 1 - math.Exp(-gt.DetectLambda*effort)
}

// Calibrate sets the bias so that the expected positive-label rate over the
// supplied patrolled points (pairs of cell id and effort) matches target.
// It returns the achieved rate. Points with zero effort are ignored, since
// they generate no dataset rows.
func (gt *GroundTruth) Calibrate(cells []int, efforts []float64, months []int, target float64) (float64, error) {
	if len(cells) != len(efforts) || len(cells) != len(months) {
		return 0, fmt.Errorf("poach: calibrate length mismatch %d/%d/%d", len(cells), len(efforts), len(months))
	}
	if len(cells) == 0 {
		return 0, fmt.Errorf("poach: no patrolled points to calibrate on")
	}
	// Detection does not depend on the bias, so each point's probability
	// is computed once, not at every bisection step.
	detect := make([]float64, len(cells))
	n := 0
	for i, e := range efforts {
		if e > 0 {
			detect[i] = gt.DetectProb(e)
			n++
		}
	}
	rate := func(bias float64) float64 {
		if n == 0 {
			return 0
		}
		var sum float64
		for i, id := range cells {
			if efforts[i] <= 0 {
				continue
			}
			logit := gt.score[id] + bias + gt.seasonal(id, months[i])
			sum += stats.Logistic(logit) * detect[i]
		}
		return sum / float64(n)
	}
	lo, hi := -20.0, 10.0
	if r := rate(hi); r < target {
		gt.Bias = hi
		return r, nil
	}
	for iter := 0; iter < 80; iter++ {
		mid := (lo + hi) / 2
		// Once mid equals an end of the interval, every later step leaves
		// (lo+hi)/2 where it is, so the bias is already final.
		if mid == lo || mid == hi {
			break
		}
		if rate(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	gt.Bias = (lo + hi) / 2
	return rate(gt.Bias), nil
}
