package plan

import (
	"math"
	"testing"

	"paws/internal/geo"
)

func planPark(t *testing.T) *geo.Park {
	t.Helper()
	cfg := geo.ParkConfig{
		Name: "PLAN", Seed: 41, W: 20, H: 20, TargetCells: 300,
		Shape: geo.ShapeRound, NumRivers: 1, NumRoads: 2, NumVillages: 2,
		NumPosts: 2, ExtraFeatures: 1,
	}
	p, err := geo.GeneratePark(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// saturatingModel is a synthetic concave detection model: g = 1−exp(−r·c),
// ν decreasing in historical familiarity (here: a per-cell constant).
type saturatingModel struct {
	rate map[int]float64
	unc  map[int]float64
}

func (m saturatingModel) Eval(cells []int, efforts []float64, g, nu []float64) {
	for i, cell := range cells {
		r := m.rate[cell]
		if r == 0 {
			r = 0.3
		}
		g[i] = 1 - math.Exp(-r*efforts[i])
		nu[i] = m.unc[cell]
	}
}

func TestNewRegion(t *testing.T) {
	park := planPark(t)
	post := park.Posts[0]
	r, err := NewRegion(park, post, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cells[0] != post {
		t.Fatal("region must start at the post")
	}
	if r.NumCells() < 5 {
		t.Fatalf("region too small: %d", r.NumCells())
	}
	// All neighbor indices must be valid and mutual adjacency must hold in
	// the park grid.
	for i, nbrs := range r.Neighbors {
		for _, j := range nbrs {
			if j < 0 || j >= r.NumCells() {
				t.Fatalf("bad neighbor index %d", j)
			}
			if d := park.Grid.EuclidKM(r.Cells[i], r.Cells[j]); d > math.Sqrt2+1e-9 {
				t.Fatalf("non-adjacent neighbor at distance %v", d)
			}
		}
	}
}

func TestNewRegionErrors(t *testing.T) {
	park := planPark(t)
	if _, err := NewRegion(park, -1, 3, 0); err == nil {
		t.Fatal("expected post range error")
	}
	if _, err := NewRegion(park, 0, 0, 0); err == nil {
		t.Fatal("expected radius error")
	}
}

func TestNewRegionMaxCells(t *testing.T) {
	park := planPark(t)
	r, err := NewRegion(park, park.Posts[0], 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumCells() != 7 {
		t.Fatalf("maxCells not respected: %d", r.NumCells())
	}
}

func TestSolveBasicPlan(t *testing.T) {
	park := planPark(t)
	region, err := NewRegion(park, park.Posts[0], 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	model := saturatingModel{rate: map[int]float64{}, unc: map[int]float64{}}
	p, err := Solve(region, model, Config{T: 6, K: 2, Segments: 5, Beta: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Total effort must equal K·T (all flow is somewhere).
	if math.Abs(p.TotalEffort()-12) > 1e-4 {
		t.Fatalf("total effort %v want 12", p.TotalEffort())
	}
	if p.Objective <= 0 {
		t.Fatalf("objective %v", p.Objective)
	}
	for i, e := range p.Effort {
		if e < -1e-9 {
			t.Fatalf("negative effort %v at cell %d", e, i)
		}
	}
	// Concave model: no binaries needed.
	if p.Binaries != 0 {
		t.Fatalf("concave utilities should need no binaries, got %d", p.Binaries)
	}
}

func TestSolvePrefersHighRateCells(t *testing.T) {
	park := planPark(t)
	region, err := NewRegion(park, park.Posts[0], 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One adjacent cell has a much higher detection rate.
	model := saturatingModel{rate: map[int]float64{}, unc: map[int]float64{}}
	target := region.Cells[1]
	for _, c := range region.Cells {
		model.rate[c] = 0.05
	}
	model.rate[target] = 2.0
	p, err := Solve(region, model, Config{T: 6, K: 2, Segments: 6, Beta: 0})
	if err != nil {
		t.Fatal(err)
	}
	// The high-rate cell should receive above-average effort.
	avg := p.TotalEffort() / float64(region.NumCells())
	if p.Effort[1] <= avg {
		t.Fatalf("high-value cell got %v, average %v", p.Effort[1], avg)
	}
}

func TestRobustPlanAvoidsUncertainCells(t *testing.T) {
	park := planPark(t)
	region, err := NewRegion(park, park.Posts[0], 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	model := saturatingModel{rate: map[int]float64{}, unc: map[int]float64{}}
	for _, c := range region.Cells {
		model.rate[c] = 0.5
		model.unc[c] = 0
	}
	// Two equally attractive cells; one is maximally uncertain.
	sure, unsure := region.Cells[1], region.Cells[2]
	model.unc[unsure] = 0.95
	p0, err := Solve(region, model, Config{T: 6, K: 2, Segments: 6, Beta: 0})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := Solve(region, model, Config{T: 6, K: 2, Segments: 6, Beta: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = sure
	// β=1 plan must shift effort away from the uncertain cell relative to β=0.
	if p1.Effort[2] > p0.Effort[2]+1e-6 {
		t.Fatalf("robust plan increased effort on uncertain cell: %v vs %v", p1.Effort[2], p0.Effort[2])
	}
	// And robust utility of the robust plan must be at least that of the
	// blind plan (it optimizes that objective).
	u1 := Evaluate(region, model, p1.Effort, 1)
	u0 := Evaluate(region, model, p0.Effort, 1)
	if u1 < u0-1e-6 {
		t.Fatalf("Uβ(Cβ)=%v < Uβ(C0)=%v", u1, u0)
	}
}

func TestSolveValidation(t *testing.T) {
	park := planPark(t)
	region, err := NewRegion(park, park.Posts[0], 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	model := saturatingModel{rate: map[int]float64{}, unc: map[int]float64{}}
	cases := []Config{
		{T: 1, K: 1, Segments: 3},
		{T: 4, K: 0, Segments: 3},
		{T: 4, K: 1, Segments: 0},
		{T: 4, K: 1, Segments: 3, Beta: 2},
	}
	for i, cfg := range cases {
		if _, err := Solve(region, model, cfg); err == nil {
			t.Fatalf("case %d should fail validation", i)
		}
	}
}

func TestEvaluateMatchesHandComputation(t *testing.T) {
	park := planPark(t)
	region, err := NewRegion(park, park.Posts[0], 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	model := saturatingModel{rate: map[int]float64{}, unc: map[int]float64{}}
	for _, c := range region.Cells {
		model.rate[c] = 1
		model.unc[c] = 0.5
	}
	effort := make([]float64, region.NumCells())
	effort[0] = 2
	got := Evaluate(region, model, effort, 1)
	g := 1 - math.Exp(-2.0)
	want := g - g*0.5 + 0 // remaining cells contribute 0 at zero effort
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Evaluate = %v want %v", got, want)
	}
}

func TestPlanEffortLocalizedToRegion(t *testing.T) {
	park := planPark(t)
	region, err := NewRegion(park, park.Posts[0], 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	model := saturatingModel{rate: map[int]float64{}, unc: map[int]float64{}}
	p, err := Solve(region, model, Config{T: 4, K: 1, Segments: 4, Beta: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Effort) != region.NumCells() {
		t.Fatal("effort vector must match region size")
	}
	if p.Runtime <= 0 {
		t.Fatal("runtime must be recorded")
	}
}
