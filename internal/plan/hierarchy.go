package plan

import (
	"context"
	"fmt"
	"math"

	"paws/internal/geo"
	"paws/internal/obs"
	"paws/internal/par"
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
//
// SolveHierarchicalAll shares one coarsening across posts and refines each
// post's region in parallel under the par determinism contract: regions and
// plans depend only on the post, never on scheduling, so results are
// byte-identical for any worker count.

// HierOptions tunes hierarchical planning. The zero value derives everything
// from the park and the fine Config.
type HierOptions struct {
	// Factor is the super-cell edge length in fine cells. 0 derives the
	// smallest factor that keeps the whole park within MaxCoarseCells
	// super-cells, so the coarse solve always sees the full park.
	Factor int
	// MaxCoarseCells caps the coarse region size (default 256).
	MaxCoarseCells int
	// SamplePerSuper is the number of member cells sampled per super-cell
	// for the coarse model (default 4). Members are sampled by deterministic
	// stride, so the coarse model is a pure function of the park and model.
	SamplePerSuper int
	// CoarseT overrides the coarse horizon (default: the fine Config.T).
	// One coarse step spans f fine cells, so even the default horizon
	// explores far beyond the fine region.
	CoarseT int
	// FineMaxCells caps the refined per-post region (default 40, matching
	// the flat planner's default region size).
	FineMaxCells int
	// Workers bounds the goroutines SolveHierarchicalAll uses to refine
	// posts concurrently (par.Workers semantics). The model must be safe
	// for concurrent lookups when Workers ≠ 1.
	Workers int
}

// withDefaults resolves zero fields against the park and fine config.
func (h HierOptions) withDefaults(park *geo.Park, cfg Config) HierOptions {
	if h.MaxCoarseCells <= 0 {
		h.MaxCoarseCells = 256
	}
	if h.Factor <= 0 {
		n := park.Grid.NumCells()
		h.Factor = int(math.Ceil(math.Sqrt(float64(n) / float64(h.MaxCoarseCells))))
		if h.Factor < 1 {
			h.Factor = 1
		}
	}
	if h.SamplePerSuper <= 0 {
		h.SamplePerSuper = 4
	}
	if h.CoarseT <= 0 {
		h.CoarseT = cfg.T
	}
	if h.FineMaxCells <= 0 {
		h.FineMaxCells = 40
	}
	return h
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
	for len(queue) > 0 && len(r.Cells) < maxCells {
		cur := queue[0]
		queue = queue[1:]
		r.index[cur] = len(r.Cells)
		r.Cells = append(r.Cells, cur)
		for _, nb := range co.coarseNeighbors(cur) {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	r.Neighbors = make([][]int, len(r.Cells))
	for li, s := range r.Cells {
		for _, nb := range co.coarseNeighbors(s) {
			if lj, ok := r.index[nb]; ok {
				r.Neighbors[li] = append(r.Neighbors[li], lj)
			}
		}
	}
	return r
}

// coarseNeighbors returns the super-cell indices 4-adjacent to s on the
// coarse lattice, in fixed (+x, −x, +y, −y) order.
func (co *coarsening) coarseNeighbors(s int) []int {
	x, y := int(co.lx[s]), int(co.ly[s])
	var out []int
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
	r.Neighbors = make([][]int, len(r.Cells))
	for li, cell := range r.Cells {
		nbr = g.Neighbors4(cell, nbr[:0])
		for _, n := range nbr {
			if lj, ok := r.index[n]; ok {
				r.Neighbors[li] = append(r.Neighbors[li], lj)
			}
		}
	}
	return r
}

// SolveHierarchical computes a hierarchically-targeted plan for one post:
// coarse Frank-Wolfe over super-cells, effort-guided region refinement, then
// the standard Solve on the refined region. It returns the fine plan and its
// region (for route extraction and reporting).
func SolveHierarchical(park *geo.Park, post int, model CellModel, cfg Config, h HierOptions) (*Plan, *Region, error) {
	return SolveHierarchicalCtx(context.Background(), park, post, model, cfg, h)
}

// SolveHierarchicalCtx is SolveHierarchical with a context for
// observability: when ctx carries a trace (internal/obs), the coarse
// Frank-Wolfe pass and the fine refinement record one span per post.
// The plan itself is byte-identical with or without a trace.
func SolveHierarchicalCtx(ctx context.Context, park *geo.Park, post int, model CellModel, cfg Config, h HierOptions) (*Plan, *Region, error) {
	plans, regions, err := SolveHierarchicalAllCtx(ctx, park, []int{post}, model, cfg, h)
	if err != nil {
		return nil, nil, err
	}
	return plans[0], regions[0], nil
}

// SolveHierarchicalAll plans for many posts against one shared coarsening:
// the park is aggregated once, then each post runs its coarse solve and fine
// refinement on its own worker (par.MapErr), reusing the existing per-post
// solver for the refined regions. Results are index-ordered by post and
// byte-identical for any worker count.
func SolveHierarchicalAll(park *geo.Park, posts []int, model CellModel, cfg Config, h HierOptions) ([]*Plan, []*Region, error) {
	return SolveHierarchicalAllCtx(context.Background(), park, posts, model, cfg, h)
}

// SolveHierarchicalAllCtx is SolveHierarchicalAll with a context for
// observability (see SolveHierarchicalCtx).
func SolveHierarchicalAllCtx(ctx context.Context, park *geo.Park, posts []int, model CellModel, cfg Config, h HierOptions) ([]*Plan, []*Region, error) {
	n := park.Grid.NumCells()
	for _, p := range posts {
		if p < 0 || p >= n {
			return nil, nil, fmt.Errorf("plan: post cell %d out of range", p)
		}
	}
	h = h.withDefaults(park, cfg)
	co := newCoarsening(park, h.Factor)
	cm := &coarseModel{base: model, samples: co.sampleMembers(h.SamplePerSuper)}

	ccfg := cfg
	ccfg.T = h.CoarseT
	ccfg.Solver = SolverFrankWolfe // coarse stage only targets; skip the MILP
	ccfg.MaxEffort = 0             // re-derive for the coarse horizon

	type out struct {
		plan   *Plan
		region *Region
	}
	res, err := par.MapErr(h.Workers, len(posts), func(i int) (out, error) {
		post := posts[i]
		item := fmt.Sprintf("post %d", post)
		creg := co.coarseRegion(park, post, h.MaxCoarseCells)
		endCoarse := obs.StartSpan(ctx, "coarse", item)
		cplan, err := Solve(creg, cm, ccfg)
		endCoarse()
		if err != nil {
			return out{}, fmt.Errorf("plan: coarse solve for post %d: %w", post, err)
		}
		superEffort := make([]float64, len(co.members))
		for li, s := range creg.Cells {
			superEffort[s] = cplan.Effort[li]
		}
		fine := growFineRegion(park, post, h.FineMaxCells, co, superEffort)
		endRefine := obs.StartSpan(ctx, "refine", item)
		fplan, err := Solve(fine, model, cfg)
		endRefine()
		if err != nil {
			return out{}, fmt.Errorf("plan: fine solve for post %d: %w", post, err)
		}
		return out{fplan, fine}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	plans := make([]*Plan, len(posts))
	regions := make([]*Region, len(posts))
	for i, o := range res {
		plans[i] = o.plan
		regions[i] = o.region
	}
	return plans, regions, nil
}

// CoarseCells reports how many super-cells a hierarchical solve over this
// park would use at the given options — a sizing aid for callers deciding
// between flat and hierarchical planning.
func CoarseCells(park *geo.Park, cfg Config, h HierOptions) int {
	h = h.withDefaults(park, cfg)
	co := newCoarsening(park, h.Factor)
	return len(co.members)
}
