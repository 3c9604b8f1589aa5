package game

import (
	"context"
	"math"
	"testing"

	"paws/internal/geo"
	"paws/internal/plan"
	"paws/internal/poach"
)

func gamePark(t *testing.T) *geo.Park {
	t.Helper()
	cfg := geo.ParkConfig{
		Name: "GAME", Seed: 51, W: 18, H: 18, TargetCells: 240,
		Shape: geo.ShapeRound, NumRivers: 1, NumRoads: 2, NumVillages: 2,
		NumPosts: 3, ExtraFeatures: 1,
	}
	p, err := geo.GeneratePark(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// varyModel has saturating detection and cell-dependent uncertainty.
type varyModel struct {
	park *geo.Park
}

func (m varyModel) Eval(cells []int, efforts []float64, g, nu []float64) {
	for i, cell := range cells {
		r := 0.2 + 0.6*m.park.FeatureByName("animal_density").V[cell]
		g[i] = 1 - math.Exp(-r*efforts[i])
		// Uncertainty grows with distance from patrol posts (less data there).
		d := m.park.FeatureByName("dist_patrol_post").V[cell]
		nu[i] = math.Min(0.9, d/15)
	}
}

func regions(t *testing.T, park *geo.Park, k int) []*plan.Region {
	t.Helper()
	var out []*plan.Region
	for i, post := range park.Posts {
		if i >= k {
			break
		}
		r, err := plan.NewRegion(park, post, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

func TestBetaSweepRatiosAtLeastOne(t *testing.T) {
	park := gamePark(t)
	regs := regions(t, park, 2)
	model := varyModel{park}
	cfg := plan.Config{T: 5, K: 2, Segments: 5}
	pts, err := BetaSweep(context.Background(), regs, model, cfg, []float64{0.5, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, pt := range pts {
		// Cβ optimizes Uβ, so the ratio must be ≥ 1 up to PWL error.
		if pt.Avg < 0.98 {
			t.Fatalf("β=%v avg ratio %v < 1", pt.Beta, pt.Avg)
		}
		if pt.Max < pt.Avg-1e-9 {
			t.Fatalf("max %v < avg %v", pt.Max, pt.Avg)
		}
	}
}

func TestBetaSweepRequiresRegions(t *testing.T) {
	if _, err := BetaSweep(context.Background(), nil, varyModel{}, plan.Config{T: 4, K: 1, Segments: 4}, []float64{1}); err == nil {
		t.Fatal("expected error with no regions")
	}
}

func TestSegmentSweepRuntimeGrowsAndUtilityConverges(t *testing.T) {
	park := gamePark(t)
	regs := regions(t, park, 1)
	model := varyModel{park}
	cfg := plan.Config{T: 5, K: 2}
	pts, err := SegmentSweep(context.Background(), regs[0], model, cfg, []int{3, 8, 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Utility should not degrade much as segments increase (convergence).
	if pts[2].Utility < pts[0].Utility-0.05*math.Abs(pts[0].Utility) {
		t.Fatalf("utility degraded with segments: %v → %v", pts[0].Utility, pts[2].Utility)
	}
	for _, p := range pts {
		if p.Runtime <= 0 {
			t.Fatal("runtime not recorded")
		}
	}
}

func TestSegmentRatioSweep(t *testing.T) {
	park := gamePark(t)
	regs := regions(t, park, 1)
	model := varyModel{park}
	cfg := plan.Config{T: 5, K: 2}
	pts, err := SegmentRatioSweep(context.Background(), regs, model, cfg, 1.0, []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if pt.Avg < 0.98 {
			t.Fatalf("segments=%d ratio %v < 1", pt.Segments, pt.Avg)
		}
		if pt.Segments == 0 {
			t.Fatal("segments not recorded")
		}
	}
}

func TestSimulateDetections(t *testing.T) {
	park := gamePark(t)
	truth := poach.NewGroundTruth(park, 0.3, 0, 0.5, 0)
	truth.Bias = -1 // moderately common attacks
	regs := regions(t, park, 1)
	region := regs[0]
	n := region.NumCells()
	// Robust plan concentrates effort; blind plan spreads it thin.
	robust := make([]float64, n)
	blind := make([]float64, n)
	for i := 0; i < n; i++ {
		blind[i] = 0.3
	}
	for i := 0; i < 3 && i < n; i++ {
		robust[i] = float64(n) * 0.3 / 3
	}
	res := SimulateDetections(region, truth, robust, blind, 12, 99)
	if res.RobustDetections < 0 || res.BlindDetections < 0 {
		t.Fatal("negative detections")
	}
	if res.Factor <= 0 {
		t.Fatalf("factor = %v", res.Factor)
	}
	// Deterministic under the same seed.
	res2 := SimulateDetections(region, truth, robust, blind, 12, 99)
	if res.RobustDetections != res2.RobustDetections || res.BlindDetections != res2.BlindDetections {
		t.Fatal("simulation not deterministic")
	}
}

func TestSimulateDetectionsZeroEffort(t *testing.T) {
	park := gamePark(t)
	truth := poach.NewGroundTruth(park, 0.3, 0, 0.5, 0)
	regs := regions(t, park, 1)
	region := regs[0]
	zero := make([]float64, region.NumCells())
	res := SimulateDetections(region, truth, zero, zero, 6, 1)
	if res.RobustDetections != 0 || res.BlindDetections != 0 {
		t.Fatal("zero effort must detect nothing")
	}
	if res.Factor != 1 {
		t.Fatalf("0/0 factor should be 1, got %v", res.Factor)
	}
}
