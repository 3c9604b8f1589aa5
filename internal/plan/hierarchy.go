package plan

import (
	"context"
	"fmt"
	"math"

	"paws/internal/geo"
	"paws/internal/obs"
)

// This file implements hierarchical planning for very large parks. A flat
// breadth-first region around a patrol post (NewRegion) sees only the cells
// nearest the post — at 10^6 cells that is an arbitrary sliver of the park,
// chosen with no regard for where the model actually predicts poaching. The
// hierarchical planner fixes the targeting without giving up the per-post
// solver:
//
//  1. Coarsen the park into f×f super-cells and solve the same patrol
//     problem over the coarse lattice with Frank-Wolfe (the coarse instance
//     is a few hundred cells regardless of park size, so this is
//     milliseconds). The coarse cell model averages the predictive model
//     over a deterministic sample of member cells.
//  2. Grow the post's fine region toward the super-cells the coarse plan
//     actually patrols: a best-first expansion from the post whose frontier
//     is ordered by coarse effort (ties broken by cell id), capped at the
//     usual region size.
//  3. Solve the fine region with the existing per-post machinery (Solve +
//     ExtractRoutes) — every downstream artifact (effort map, routes,
//     objective) keeps its exact semantics.

// maxCoarseCells caps the coarse instance: the super-cell factor is derived
// so the whole park fits in this many super-cells, and the coarse region
// never grows past it.
const maxCoarseCells = 256

// coarseFactor is the super-cell edge length in fine cells: the smallest
// factor that keeps the whole park within maxCoarseCells super-cells, so
// the coarse solve always sees the full park.
func coarseFactor(park *geo.Park) int {
	f := int(math.Ceil(math.Sqrt(float64(park.Grid.NumCells()) / maxCoarseCells)))
	return max(f, 1)
}

// coarsening aggregates a park into f×f super-cells. Super-cells are indexed
// in first-seen order over ascending fine cell ids, so the numbering — and
// everything built on it — is deterministic.
type coarsening struct {
	f      int
	sw, sh int
	// super[id] is the super-cell index of fine cell id.
	super []int32
	// members[s] lists the fine cell ids of super-cell s, ascending.
	members [][]int
	// lx, ly are the coarse lattice coordinates of each super-cell.
	lx, ly []int32
	// lattice maps a coarse lattice index (ly*sw + lx) to its super-cell
	// index, or -1 where no park cell falls.
	lattice []int32
}

// newCoarsening buckets every park cell into its super-cell.
func newCoarsening(park *geo.Park, f int) *coarsening {
	g := park.Grid
	co := &coarsening{
		f:  f,
		sw: (g.W + f - 1) / f,
		sh: (g.H + f - 1) / f,
	}
	co.lattice = make([]int32, co.sw*co.sh)
	for i := range co.lattice {
		co.lattice[i] = -1
	}
	n := g.NumCells()
	co.super = make([]int32, n)
	for id := 0; id < n; id++ {
		x, y := g.CellXY(id)
		li := (y/f)*co.sw + x/f
		s := co.lattice[li]
		if s < 0 {
			s = int32(len(co.members))
			co.lattice[li] = s
			co.members = append(co.members, nil)
			co.lx = append(co.lx, int32(x/f))
			co.ly = append(co.ly, int32(y/f))
		}
		co.super[id] = s
		co.members[s] = append(co.members[s], id)
	}
	return co
}

// sampleMembers picks ≤ k member cells of each super-cell by deterministic
// stride over the ascending member list.
func (co *coarsening) sampleMembers(k int) [][]int {
	out := make([][]int, len(co.members))
	for s, ms := range co.members {
		if len(ms) <= k {
			out[s] = ms
			continue
		}
		picks := make([]int, k)
		for i := 0; i < k; i++ {
			picks[i] = ms[i*len(ms)/k]
		}
		out[s] = picks
	}
	return out
}

// coarseRegion builds the planning region over super-cells reachable from
// the post's super-cell (breadth-first over coarse 4-adjacency, capped at
// maxCells). Region.Cells hold super-cell indices, which is what the coarse
// model interprets.
func (co *coarsening) coarseRegion(park *geo.Park, post, maxCells int) *Region {
	start := int(co.super[post])
	r := &Region{Park: park, Post: start, index: map[int]int{}}
	queue := []int{start}
	seen := map[int]bool{start: true}
	var nbr []int
	for len(queue) > 0 && len(r.Cells) < maxCells {
		cur := queue[0]
		queue = queue[1:]
		r.index[cur] = len(r.Cells)
		r.Cells = append(r.Cells, cur)
		nbr = co.coarseNeighbors(cur, nbr[:0])
		for _, nb := range nbr {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	r.linkNeighbors(co.coarseNeighbors)
	return r
}

// coarseNeighbors appends to out the super-cell indices 4-adjacent to s on
// the coarse lattice, in fixed (+x, −x, +y, −y) order.
func (co *coarsening) coarseNeighbors(s int, out []int) []int {
	x, y := int(co.lx[s]), int(co.ly[s])
	for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
		nx, ny := x+d[0], y+d[1]
		if nx < 0 || nx >= co.sw || ny < 0 || ny >= co.sh {
			continue
		}
		if nb := co.lattice[ny*co.sw+nx]; nb >= 0 {
			out = append(out, int(nb))
		}
	}
	return out
}

// coarseModel averages the fine cell model over each super-cell's sampled
// members. Effort is interpreted as patrol intensity: a patrol spending c km
// in the super-cell patrols the sampled cells at that intensity. The
// averaged values stay in [0,1], so the coarse instance is a well-formed
// planning problem; it is only used to target refinement, never reported.
type coarseModel struct {
	base    CellModel
	samples [][]int
}

// Eval queries every sampled member of every requested super-cell in one
// base call, then averages each super-cell's members in sample order.
func (cm *coarseModel) Eval(supers []int, efforts []float64, g, nu []float64) {
	var cells []int
	var effs []float64
	for i, sc := range supers {
		for _, cell := range cm.samples[sc] {
			cells = append(cells, cell)
			effs = append(effs, efforts[i])
		}
	}
	fg := make([]float64, len(cells))
	fnu := make([]float64, len(cells))
	cm.base.Eval(cells, effs, fg, fnu)
	k := 0
	for i, sc := range supers {
		m := len(cm.samples[sc])
		var sg, snu float64
		for j := k; j < k+m; j++ {
			sg += fg[j]
			snu += fnu[j]
		}
		g[i] = sg / float64(m)
		nu[i] = snu / float64(m)
		k += m
	}
}

// growFineRegion expands a connected region from the post, always absorbing
// the frontier cell whose super-cell carries the most coarse effort (ties by
// smaller cell id). The result is the post's neighborhood bent toward where
// the coarse plan wants patrols, with the same structure NewRegion produces:
// Cells[0] is the post and Neighbors is the in-region 4-adjacency.
func growFineRegion(park *geo.Park, post, maxCells int, co *coarsening, superEffort []float64) *Region {
	g := park.Grid
	r := &Region{Park: park, Post: post, index: map[int]int{}}
	// Frontier max-heap ordered by (coarse effort desc, cell id asc) — a
	// total order, so pops are deterministic.
	better := func(a, b int) bool {
		ea, eb := superEffort[co.super[a]], superEffort[co.super[b]]
		if ea != eb {
			return ea > eb
		}
		return a < b
	}
	var heap []int
	push := func(id int) {
		heap = append(heap, id)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if !better(heap[i], heap[p]) {
				break
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	pop := func() int {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, rr, s := 2*i+1, 2*i+2, i
			if l < last && better(heap[l], heap[s]) {
				s = l
			}
			if rr < last && better(heap[rr], heap[s]) {
				s = rr
			}
			if s == i {
				break
			}
			heap[i], heap[s] = heap[s], heap[i]
			i = s
		}
		return top
	}
	seen := map[int]bool{post: true}
	nbr := make([]int, 0, 8)
	absorb := func(id int) {
		r.index[id] = len(r.Cells)
		r.Cells = append(r.Cells, id)
		nbr = g.Neighbors8(id, nbr[:0])
		for _, n := range nbr {
			if !seen[n] {
				seen[n] = true
				push(n)
			}
		}
	}
	absorb(post)
	for len(heap) > 0 && len(r.Cells) < maxCells {
		absorb(pop())
	}
	r.linkNeighbors(g.Neighbors4)
	return r
}

// SolveHierarchical computes a hierarchically-targeted plan for one post:
// coarse Frank-Wolfe over super-cells, effort-guided region refinement, then
// the standard Solve on the refined region of at most fineMaxCells cells. It
// returns the fine plan and its region (for route extraction and reporting).
// The coarse model averages 4 deterministically sampled members per
// super-cell, and the coarse solve keeps the fine horizon cfg.T: one coarse
// step spans f fine cells, so it explores far beyond the fine region. The
// context is for observability: when ctx carries a trace (internal/obs), the
// coarse Frank-Wolfe pass and the fine refinement record one span each. The
// plan itself is byte-identical with or without a trace.
func SolveHierarchical(ctx context.Context, park *geo.Park, post int, model CellModel, cfg Config, fineMaxCells int) (*Plan, *Region, error) {
	if post < 0 || post >= park.Grid.NumCells() {
		return nil, nil, fmt.Errorf("plan: post cell %d out of range", post)
	}
	co := newCoarsening(park, coarseFactor(park))
	cm := &coarseModel{base: model, samples: co.sampleMembers(4)}
	ccfg := cfg
	ccfg.Solver = SolverFrankWolfe // coarse stage only targets; skip the MILP

	item := fmt.Sprintf("post %d", post)
	creg := co.coarseRegion(park, post, maxCoarseCells)
	endCoarse := obs.StartSpan(ctx, "coarse", item)
	cplan, err := Solve(creg, cm, ccfg)
	endCoarse()
	if err != nil {
		return nil, nil, fmt.Errorf("plan: coarse solve for post %d: %w", post, err)
	}
	superEffort := make([]float64, len(co.members))
	for li, s := range creg.Cells {
		superEffort[s] = cplan.Effort[li]
	}
	fine := growFineRegion(park, post, fineMaxCells, co, superEffort)
	endRefine := obs.StartSpan(ctx, "refine", item)
	fplan, err := Solve(fine, model, cfg)
	endRefine()
	if err != nil {
		return nil, nil, fmt.Errorf("plan: fine solve for post %d: %w", post, err)
	}
	return fplan, fine, nil
}
