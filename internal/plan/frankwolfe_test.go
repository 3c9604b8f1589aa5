package plan

import (
	"math"
	"testing"
	"testing/quick"

	"paws/internal/rng"
)

func TestConcaveHullOfConcaveIsIdentity(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{0, 2, 3, 3.5} // decreasing slopes: already concave
	h := newConcaveHull(xs, ys)
	if len(h.xs) != 4 {
		t.Fatalf("concave input should keep all breakpoints, got %d", len(h.xs))
	}
	for _, x := range []float64{0, 0.5, 1.7, 3} {
		want := interpolate(xs, ys, x)
		if math.Abs(h.eval(x)-want) > 1e-12 {
			t.Fatalf("hull(%v) = %v want %v", x, h.eval(x), want)
		}
	}
}

func TestConcaveHullDominatesStaircase(t *testing.T) {
	// Staircase (non-concave): hull must be ≥ everywhere and equal at the
	// retained breakpoints.
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{0, 0, 1, 1, 2}
	h := newConcaveHull(xs, ys)
	for x := 0.0; x <= 4; x += 0.1 {
		if h.eval(x) < interpolate(xs, ys, x)-1e-12 {
			t.Fatalf("hull below function at %v", x)
		}
	}
	// Hull of this staircase is the chord from (0,0) to (4,2).
	if math.Abs(h.eval(2)-1) > 1e-12 {
		t.Fatalf("hull(2) = %v want 1", h.eval(2))
	}
	// Slopes must be non-increasing.
	prev := math.Inf(1)
	for i := 1; i < len(h.xs); i++ {
		s := (h.ys[i] - h.ys[i-1]) / (h.xs[i] - h.xs[i-1])
		if s > prev+1e-12 {
			t.Fatalf("hull slopes increase: %v after %v", s, prev)
		}
		prev = s
	}
}

func TestConcaveHullProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(8)
		xs := make([]float64, n)
		ys := make([]float64, n)
		x := 0.0
		for i := 0; i < n; i++ {
			x += 0.2 + r.Float64()
			xs[i] = x
			ys[i] = r.Float64() * 3
		}
		h := newConcaveHull(xs, ys)
		// Hull dominates and touches the endpoints.
		if math.Abs(h.eval(xs[0])-ys[0]) > 1e-9 {
			return false
		}
		for i := range xs {
			if h.eval(xs[i]) < ys[i]-1e-9 {
				return false
			}
		}
		// Concavity of slopes.
		prev := math.Inf(1)
		for i := 1; i < len(h.xs); i++ {
			s := (h.ys[i] - h.ys[i-1]) / (h.xs[i] - h.xs[i-1])
			if s > prev+1e-9 {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestConcaveHullSlope(t *testing.T) {
	h := newConcaveHull([]float64{0, 2, 4}, []float64{0, 2, 3})
	if got := h.slope(1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("slope(1) = %v want 1", got)
	}
	if got := h.slope(3); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("slope(3) = %v want 0.5", got)
	}
	if got := h.slope(10); got != 0 {
		t.Fatalf("slope beyond domain = %v want 0", got)
	}
}

func interpolate(xs, ys []float64, x float64) float64 {
	if x <= xs[0] {
		return ys[0]
	}
	for i := 1; i < len(xs); i++ {
		if x <= xs[i] {
			t := (x - xs[i-1]) / (xs[i] - xs[i-1])
			return ys[i-1]*(1-t) + ys[i]*t
		}
	}
	return ys[len(ys)-1]
}

func TestFrankWolfeMatchesMILPOnConcaveModel(t *testing.T) {
	park := planPark(t)
	region, err := NewRegion(park, park.Posts[0], 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	model := saturatingModel{rate: map[int]float64{}, unc: map[int]float64{}}
	for i, c := range region.Cells {
		model.rate[c] = 0.1 + 0.15*float64(i%5)
	}
	cfgFW := Config{T: 6, K: 2, Segments: 6, Solver: SolverFrankWolfe}
	fw, err := Solve(region, model, cfgFW)
	if err != nil {
		t.Fatal(err)
	}
	cfgMILP := Config{T: 6, K: 2, Segments: 6, Solver: SolverMILP}
	milpPlan, err := Solve(region, model, cfgMILP)
	if err != nil {
		t.Fatal(err)
	}
	// Concave utilities: both should find (nearly) the same optimum.
	if fw.Objective < milpPlan.Objective-0.02*math.Abs(milpPlan.Objective)-1e-9 {
		t.Fatalf("FW %v far below MILP %v on concave instance", fw.Objective, milpPlan.Objective)
	}
}

func TestFrankWolfeFlowBudget(t *testing.T) {
	park := planPark(t)
	region, err := NewRegion(park, park.Posts[0], 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	model := saturatingModel{rate: map[int]float64{}, unc: map[int]float64{}}
	p, err := Solve(region, model, Config{T: 8, K: 3, Segments: 5, Solver: SolverFrankWolfe})
	if err != nil {
		t.Fatal(err)
	}
	// Every FW iterate is a convex combination of unit paths with T visits,
	// so total effort must be exactly K·T.
	if math.Abs(p.TotalEffort()-24) > 1e-6 {
		t.Fatalf("total effort %v want 24", p.TotalEffort())
	}
	for _, e := range p.Effort {
		if e < -1e-9 {
			t.Fatalf("negative effort %v", e)
		}
	}
	if p.Runtime <= 0 {
		t.Fatal("runtime not recorded")
	}
}

func TestFrankWolfeBestPathPrefersReward(t *testing.T) {
	park := planPark(t)
	region, err := NewRegion(park, park.Posts[0], 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := &fwProblem{region: region, T: 6, K: 1}
	w := make([]float64, region.NumCells())
	// Reward only one adjacent cell; the path should visit it repeatedly.
	w[1] = 5
	visits := f.bestPath(w)
	if visits[1] < 2 {
		t.Fatalf("path should dwell on rewarded cell, visits = %v", visits[1])
	}
	var total float64
	for _, v := range visits {
		total += v
	}
	if math.Abs(total-6) > 1e-9 {
		t.Fatalf("path visits %v want T=6", total)
	}
}

func TestSolverAutoAtLeastFrankWolfe(t *testing.T) {
	park := planPark(t)
	region, err := NewRegion(park, park.Posts[0], 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	model := saturatingModel{rate: map[int]float64{}, unc: map[int]float64{}}
	auto, err := Solve(region, model, Config{T: 6, K: 2, Segments: 6})
	if err != nil {
		t.Fatal(err)
	}
	fw, err := Solve(region, model, Config{T: 6, K: 2, Segments: 6, Solver: SolverFrankWolfe})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Objective < fw.Objective-1e-9 {
		t.Fatalf("auto (%v) must never be worse than FW alone (%v)", auto.Objective, fw.Objective)
	}
}

// nonConcaveModel has a staircase detection function, forcing SOS2 binaries
// in the MILP path.
type nonConcaveModel struct{}

func (nonConcaveModel) Eval(cells []int, efforts []float64, g, nu []float64) {
	for i, cell := range cells {
		// Flat, then a jump past 3 km: sampled at breakpoints {0,2,4,…} this
		// gives increasing slopes, which is non-concave.
		switch effort := efforts[i]; {
		case effort < 3:
			g[i] = 0.01 * float64(cell%3+1)
		case effort < 6:
			g[i] = 0.3
		default:
			g[i] = 0.35
		}
		nu[i] = 0
	}
}

func TestSolverMILPRefinesNonConcave(t *testing.T) {
	park := planPark(t)
	region, err := NewRegion(park, park.Posts[0], 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Solve(region, nonConcaveModel{}, Config{T: 4, K: 2, Segments: 4, Solver: SolverMILP})
	if err != nil {
		t.Fatal(err)
	}
	if p.Binaries == 0 {
		t.Fatal("staircase utilities must produce binaries")
	}
	if p.Objective <= 0 {
		t.Fatalf("objective %v", p.Objective)
	}
}
