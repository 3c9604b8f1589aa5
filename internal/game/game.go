// Package game hosts the Green Security Game experiments of Section VI:
// the robustness (β) sweep and the PWL-segment sweep behind Fig. 8, the
// runtime/utility convergence study behind Fig. 9, and the simulated
// "snares detected" comparison that backs the paper's headline claim that
// uncertainty-aware patrols increase detections (~30% on average).
//
// The game itself — N boundedly-rational adversaries choosing whether to
// attack their cells, a defender allocating patrol flow — is embedded in the
// planner objective: the learned g_v(c) is exactly the joint probability
// Pr[a=1, o=1 | c] of Eq. (3), so maximizing Σ g_v is maximizing defender
// expected utility against the learned attacker response.
package game

import (
	"context"
	"fmt"
	"time"

	"paws/internal/par"
	"paws/internal/plan"
	"paws/internal/poach"
	"paws/internal/rng"
)

// RatioPoint is one β (or segment-count) sample of the solution-quality
// ratio U_β(C_β) / U_β(C_{β=0}) of Fig. 8.
type RatioPoint struct {
	Beta     float64
	Segments int
	Avg      float64 // average ratio over patrol posts
	Max      float64 // maximum ratio over patrol posts
}

// BetaSweep computes plans at each β for every region and evaluates the
// robust-utility ratio against the β=0 plan. cfg.Beta is overridden. Every
// (β, region) solve is independent, so the whole grid — baselines included —
// fans out over cfg.Workers goroutines; aggregation runs in (β, region)
// order afterwards, so the series is identical for any worker count. ctx is
// observed between solves: a canceled or expired context stops launching
// new (β, region) solves, drains the ones in flight, and returns the
// context's error.
func BetaSweep(ctx context.Context, regions []*plan.Region, model plan.CellModel, cfg plan.Config, betas []float64) ([]RatioPoint, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("game: no regions")
	}
	// Baseline β=0 plan per region.
	base, err := par.MapErrCtx(ctx, cfg.Workers, len(regions), func(i int) (*plan.Plan, error) {
		c := cfg
		c.Beta = 0
		p, err := plan.Solve(regions[i], model, c)
		if err != nil {
			return nil, fmt.Errorf("game: baseline plan for region %d: %w", i, err)
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	// Robust plans for the full β × region grid.
	plans, err := par.MapErrCtx(ctx, cfg.Workers, len(betas)*len(regions), func(j int) (*plan.Plan, error) {
		beta, i := betas[j/len(regions)], j%len(regions)
		c := cfg
		c.Beta = beta
		p, err := plan.Solve(regions[i], model, c)
		if err != nil {
			return nil, fmt.Errorf("game: β=%v plan for region %d: %w", beta, i, err)
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	var out []RatioPoint
	for bi, beta := range betas {
		pt := RatioPoint{Beta: beta, Segments: cfg.Segments, Avg: 0, Max: 0}
		var sum float64
		for i, r := range regions {
			uRobust := plan.Evaluate(r, model, plans[bi*len(regions)+i].Effort, beta)
			uBase := plan.Evaluate(r, model, base[i].Effort, beta)
			ratio := 1.0
			if uBase > 1e-12 {
				ratio = uRobust / uBase
			}
			sum += ratio
			if ratio > pt.Max {
				pt.Max = ratio
			}
		}
		pt.Avg = sum / float64(len(regions))
		out = append(out, pt)
	}
	return out, nil
}

// SegmentPoint is one sample of the Fig. 9 runtime/convergence study.
type SegmentPoint struct {
	Segments int
	Runtime  time.Duration
	Utility  float64 // U_{β=1}(C_{β=1}) evaluated exactly
	Nodes    int
}

// SegmentSweep solves the fully robust plan (β=1) for one region at each
// segment count, recording runtime and exact utility (Fig. 9a/9b), and the
// ratio study of Fig. 8(d–f) reuses the same plans via the returned efforts.
// ctx is observed between solves, which run sequentially because the study
// measures per-solve runtime.
func SegmentSweep(ctx context.Context, region *plan.Region, model plan.CellModel, cfg plan.Config, segments []int) ([]SegmentPoint, error) {
	var out []SegmentPoint
	for _, s := range segments {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c := cfg
		c.Segments = s
		c.Beta = 1
		p, err := plan.Solve(region, model, c)
		if err != nil {
			return nil, fmt.Errorf("game: segments=%d: %w", s, err)
		}
		out = append(out, SegmentPoint{
			Segments: s,
			Runtime:  p.Runtime,
			Utility:  plan.Evaluate(region, model, p.Effort, 1),
			Nodes:    p.Nodes,
		})
	}
	return out, nil
}

// SegmentRatioSweep computes the Fig. 8(d–f) series: the solution-quality
// ratio at fixed β as the PWL segment count varies, observing ctx between
// solves via BetaSweep.
func SegmentRatioSweep(ctx context.Context, regions []*plan.Region, model plan.CellModel, cfg plan.Config, beta float64, segments []int) ([]RatioPoint, error) {
	var out []RatioPoint
	for _, s := range segments {
		c := cfg
		c.Segments = s
		pts, err := BetaSweep(ctx, regions, model, c, []float64{beta})
		if err != nil {
			return nil, err
		}
		pt := pts[0]
		pt.Segments = s
		out = append(out, pt)
	}
	return out, nil
}

// DetectionResult compares simulated snare detections under the robust plan
// versus the uncertainty-blind plan, executed against the TRUE poaching
// process — the experiment behind the paper's "30% more snares" claim.
type DetectionResult struct {
	RobustDetections int
	BlindDetections  int
	// Factor is robust/blind (1.0 when blind is zero and robust is zero too).
	Factor float64
}

// SimulateDetections plays both plans for `months` months against the
// ground truth: each month, attacks are sampled per cell and detected with
// the effort-dependent probability.
func SimulateDetections(region *plan.Region, truth *poach.GroundTruth, robust, blind []float64, months int, seed int64) DetectionResult {
	r := rng.New(seed)
	count := func(effort []float64, stream *rng.RNG) int {
		found := 0
		for m := 0; m < months; m++ {
			for i, cell := range region.Cells {
				if !stream.Bernoulli(truth.AttackProb(cell, m, 0)) {
					continue
				}
				if stream.Bernoulli(truth.DetectProb(effort[i])) {
					found++
				}
			}
		}
		return found
	}
	res := DetectionResult{
		RobustDetections: count(robust, r.Split("robust")),
		BlindDetections:  count(blind, r.Split("blind")),
	}
	switch {
	case res.BlindDetections > 0:
		res.Factor = float64(res.RobustDetections) / float64(res.BlindDetections)
	case res.RobustDetections > 0:
		res.Factor = float64(res.RobustDetections)
	default:
		res.Factor = 1
	}
	return res
}
