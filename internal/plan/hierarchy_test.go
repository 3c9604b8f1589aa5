package plan

import (
	"context"
	"math"
	"reflect"
	"testing"

	"paws/internal/geo"
)

// hierModel gives every cell a spatially-varying detection rate so the
// coarse pass has a real gradient to follow: cells in the park's east half
// are much more attractive than the west.
func hierModel(park *geo.Park) saturatingModel {
	m := saturatingModel{rate: map[int]float64{}, unc: map[int]float64{}}
	for id := 0; id < park.Grid.NumCells(); id++ {
		x, _ := park.Grid.CellXY(id)
		m.rate[id] = 0.1 + 0.8*float64(x)/float64(park.Grid.W)
		m.unc[id] = 0.2
	}
	return m
}

func TestCoarseningPartition(t *testing.T) {
	park := planPark(t)
	co := newCoarsening(park, 3)
	n := park.Grid.NumCells()
	seen := make([]int, n)
	for s, ms := range co.members {
		prev := -1
		for _, id := range ms {
			if id <= prev {
				t.Fatalf("super %d members not ascending: %v", s, ms)
			}
			prev = id
			seen[id]++
			if int(co.super[id]) != s {
				t.Fatalf("cell %d: super[%d]=%d, listed under %d", id, id, co.super[id], s)
			}
			x, y := park.Grid.CellXY(id)
			if int(co.lx[s]) != x/3 || int(co.ly[s]) != y/3 {
				t.Fatalf("cell %d in super %d with wrong lattice coords", id, s)
			}
		}
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("cell %d appears in %d super-cells", id, c)
		}
	}
}

func TestSampleMembersDeterministicSubset(t *testing.T) {
	park := planPark(t)
	co := newCoarsening(park, 4)
	samples := co.sampleMembers(3)
	for s, picks := range samples {
		if len(picks) == 0 || len(picks) > 3 {
			t.Fatalf("super %d: %d samples", s, len(picks))
		}
		for _, id := range picks {
			if int(co.super[id]) != s {
				t.Fatalf("super %d sampled foreign cell %d", s, id)
			}
		}
	}
	again := co.sampleMembers(3)
	if !reflect.DeepEqual(samples, again) {
		t.Fatal("sampleMembers is not deterministic")
	}
}

func TestGrowFineRegionFollowsCoarseEffort(t *testing.T) {
	park := planPark(t)
	post := park.Posts[0]
	co := newCoarsening(park, 3)
	// All coarse effort sits in the easternmost super-cells.
	effort := make([]float64, len(co.members))
	var maxLX int32
	for _, lx := range co.lx {
		if lx > maxLX {
			maxLX = lx
		}
	}
	for s := range effort {
		effort[s] = float64(co.lx[s])
	}
	r := growFineRegion(park, post, 25, co, effort)
	if r.Cells[0] != post {
		t.Fatal("fine region must start at the post")
	}
	if len(r.Cells) != 25 {
		t.Fatalf("fine region size %d, want 25", len(r.Cells))
	}
	// Connectivity: every cell after the first must be 8-adjacent to an
	// earlier cell (the frontier only holds neighbors of absorbed cells).
	for i := 1; i < len(r.Cells); i++ {
		ok := false
		for j := 0; j < i; j++ {
			if park.Grid.EuclidKM(r.Cells[i], r.Cells[j]) <= math.Sqrt2+1e-9 {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("cell %d (%d) not adjacent to any earlier region cell", i, r.Cells[i])
		}
	}
	// Determinism.
	r2 := growFineRegion(park, post, 25, co, effort)
	if !reflect.DeepEqual(r.Cells, r2.Cells) || !reflect.DeepEqual(r.Neighbors, r2.Neighbors) {
		t.Fatal("growFineRegion is not deterministic")
	}
	// Pull: the mean x of the region should exceed the mean x of a plain
	// BFS region of the same size, because effort increases eastward.
	flat, err := NewRegion(park, post, 1<<20, 25)
	if err != nil {
		t.Fatal(err)
	}
	meanX := func(cells []int) float64 {
		var s float64
		for _, id := range cells {
			x, _ := park.Grid.CellXY(id)
			s += float64(x)
		}
		return s / float64(len(cells))
	}
	if meanX(r.Cells) < meanX(flat.Cells) {
		t.Fatalf("effort-guided region did not move east: guided %.2f, flat %.2f",
			meanX(r.Cells), meanX(flat.Cells))
	}
}

func TestSolveHierarchical(t *testing.T) {
	park := planPark(t)
	model := hierModel(park)
	cfg := Config{T: 6, K: 2, Segments: 6, Beta: 0.3, Solver: SolverFrankWolfe}
	h := HierOptions{FineMaxCells: 20}
	p, region, err := SolveHierarchical(context.Background(), park, park.Posts[0], model, cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	if region.Cells[0] != park.Posts[0] {
		t.Fatal("region must start at the post")
	}
	if len(p.Effort) != region.NumCells() {
		t.Fatalf("effort length %d, region %d", len(p.Effort), region.NumCells())
	}
	if p.TotalEffort() > cfg.K*float64(cfg.T)+1e-6 {
		t.Fatalf("total effort %v exceeds budget %v", p.TotalEffort(), cfg.K*float64(cfg.T))
	}
	routes, err := ExtractRoutes(region, p.Effort, cfg.T, int(cfg.K))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range routes {
		if err := ValidateRoute(region, r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSolveHierarchicalAllWorkerInvariance(t *testing.T) {
	park := planPark(t)
	model := hierModel(park)
	cfg := Config{T: 6, K: 2, Segments: 6, Beta: 0.3, Solver: SolverFrankWolfe}
	posts := park.Posts
	var ref []*Plan
	var refRegions []*Region
	for _, workers := range []int{1, 4} {
		h := HierOptions{FineMaxCells: 20, Workers: workers}
		plans, regions, err := SolveHierarchicalAll(context.Background(), park, posts, model, cfg, h)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refRegions = plans, regions
			continue
		}
		for i := range plans {
			if !reflect.DeepEqual(plans[i].Effort, ref[i].Effort) {
				t.Fatalf("workers=%d: post %d effort differs", workers, i)
			}
			if !reflect.DeepEqual(regions[i].Cells, refRegions[i].Cells) {
				t.Fatalf("workers=%d: post %d region differs", workers, i)
			}
		}
	}
}

func TestCoarseCells(t *testing.T) {
	park := planPark(t)
	cfg := Config{T: 6, K: 2, Segments: 6}
	n := CoarseCells(park, cfg, HierOptions{})
	if n < 1 || n > 256 {
		t.Fatalf("coarse cells %d out of (0, 256]", n)
	}
	if nf := CoarseCells(park, cfg, HierOptions{Factor: 1}); nf != park.Grid.NumCells() {
		t.Fatalf("factor 1 must be the identity coarsening: %d != %d", nf, park.Grid.NumCells())
	}
}
