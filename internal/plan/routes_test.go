package plan

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// RouteCoverage sums, per region cell, the number of visits across routes —
// the executed analogue of the planned effort (in visit units; multiply by
// the per-visit kilometreage to compare with effort).
func RouteCoverage(region *Region, routes []Route) []float64 {
	cov := make([]float64, region.NumCells())
	for _, r := range routes {
		for _, c := range r.Cells[1:] {
			cov[c]++
		}
	}
	return cov
}

// ValidateRoute checks that a route is executable: starts and ends at the
// post and every move is a self-loop or region adjacency.
func ValidateRoute(region *Region, r Route) error {
	if len(r.Cells) < 2 {
		return errors.New("plan: route too short")
	}
	if r.Cells[0] != 0 || r.Cells[len(r.Cells)-1] != 0 {
		return errors.New("plan: route must start and end at the post")
	}
	for i := 1; i < len(r.Cells); i++ {
		u, v := r.Cells[i-1], r.Cells[i]
		if u == v {
			continue // waiting in place
		}
		ok := false
		for _, nb := range region.Neighbors[u] {
			if nb == v {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("plan: illegal move %d→%d at step %d", u, v, i)
		}
	}
	return nil
}

func TestExtractRoutesValidAndCovering(t *testing.T) {
	park := planPark(t)
	region, err := NewRegion(park, park.Posts[0], 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	model := saturatingModel{rate: map[int]float64{}, unc: map[int]float64{}}
	for i, c := range region.Cells {
		model.rate[c] = 0.1 + 0.1*float64(i%4)
	}
	p, err := Solve(region, model, Config{T: 8, K: 3, Segments: 6, Solver: SolverFrankWolfe})
	if err != nil {
		t.Fatal(err)
	}
	routes, err := ExtractRoutes(region, p.Effort, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 3 {
		t.Fatalf("routes = %d want 3", len(routes))
	}
	for i, r := range routes {
		if err := ValidateRoute(region, r); err != nil {
			t.Fatalf("route %d invalid: %v", i, err)
		}
		if len(r.Cells) != 9 {
			t.Fatalf("route %d has %d entries want 9", i, len(r.Cells))
		}
	}
	// Coverage should overlap the planned effort: the visited mass must land
	// mostly on cells with planned effort.
	cov := RouteCoverage(region, routes)
	var onPlan, total float64
	for i, c := range cov {
		total += c
		if p.Effort[i] > 1e-9 {
			onPlan += c
		}
	}
	if total == 0 {
		t.Fatal("routes visited nothing")
	}
	if onPlan/total < 0.6 {
		t.Fatalf("only %.0f%% of route visits land on planned cells", 100*onPlan/total)
	}
}

func TestExtractRoutesErrors(t *testing.T) {
	park := planPark(t)
	region, err := NewRegion(park, park.Posts[0], 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExtractRoutes(region, []float64{1}, 4, 1); err == nil {
		t.Fatal("expected length error")
	}
	eff := make([]float64, region.NumCells())
	if _, err := ExtractRoutes(region, eff, 1, 1); err == nil {
		t.Fatal("expected T error")
	}
	if _, err := ExtractRoutes(region, eff, 4, 0); err == nil {
		t.Fatal("expected K error")
	}
}

func TestExtractRoutesConcentratedEffort(t *testing.T) {
	park := planPark(t)
	region, err := NewRegion(park, park.Posts[0], 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// All effort on one adjacent cell: the single route should dwell there.
	eff := make([]float64, region.NumCells())
	target := region.Neighbors[0][0]
	eff[target] = 6
	routes, err := ExtractRoutes(region, eff, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	visits := 0
	for _, c := range routes[0].Cells[1:] {
		if c == target {
			visits++
		}
	}
	if visits < 4 {
		t.Fatalf("route should dwell on the hot cell, visits = %d", visits)
	}
}

func TestValidateRoute(t *testing.T) {
	park := planPark(t)
	region, err := NewRegion(park, park.Posts[0], 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	nb := region.Neighbors[0][0]
	good := Route{Cells: []int{0, nb, 0}}
	if err := ValidateRoute(region, good); err != nil {
		t.Fatalf("valid route rejected: %v", err)
	}
	wait := Route{Cells: []int{0, 0, 0}}
	if err := ValidateRoute(region, wait); err != nil {
		t.Fatalf("waiting route rejected: %v", err)
	}
	if err := ValidateRoute(region, Route{Cells: []int{0}}); err == nil {
		t.Fatal("too-short route accepted")
	}
	if err := ValidateRoute(region, Route{Cells: []int{nb, 0, nb}}); err == nil {
		t.Fatal("route not anchored at post accepted")
	}
	// Find two non-adjacent cells for an illegal move.
	far := -1
	for i := 1; i < region.NumCells(); i++ {
		if park.Grid.EuclidKM(region.Cells[0], region.Cells[i]) > 2.5 {
			far = i
			break
		}
	}
	if far >= 0 {
		if err := ValidateRoute(region, Route{Cells: []int{0, far, 0}}); err == nil {
			t.Fatal("teleporting route accepted")
		}
	}
}

func TestRouteParkCells(t *testing.T) {
	park := planPark(t)
	region, err := NewRegion(park, park.Posts[0], 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := Route{Cells: []int{0, region.Neighbors[0][0], 0}}
	pc := r.ParkCells(region)
	if pc[0] != region.Cells[0] || len(pc) != 3 {
		t.Fatalf("ParkCells = %v", pc)
	}
}

func TestRouteCoverageMatchesVisits(t *testing.T) {
	park := planPark(t)
	region, err := NewRegion(park, park.Posts[0], 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	nb := region.Neighbors[0][0]
	routes := []Route{{Cells: []int{0, nb, 0}}, {Cells: []int{0, nb, nb}}}
	cov := RouteCoverage(region, routes)
	if math.Abs(cov[nb]-3) > 1e-12 {
		t.Fatalf("coverage of nb = %v want 3", cov[nb])
	}
	// Route 1 returns to the post once; route 2 ends away from it. Starts
	// are not counted.
	if math.Abs(cov[0]-1) > 1e-12 {
		t.Fatalf("coverage of post = %v want 1 (excludes starts)", cov[0])
	}
}
