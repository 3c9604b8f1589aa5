// Package plan implements the prescriptive stage of PAWS (Section VI):
// computing patrol routes that maximize expected detection of poaching,
// optionally penalized by predictive uncertainty.
//
// A patrol plan for one patrol post is a mixed strategy over paths on a
// time-unrolled graph: layers t = 0..T of the post's neighborhood cells,
// edges between 8-adjacent cells (and self-loops for waiting) in consecutive
// layers, one unit of flow from (post, 0) to (post, T). Patrol effort at a
// cell is K times the total flow entering that cell across layers 1..T,
// where K is the number of patrols conducted, so Σ_v c_v = K·T.
//
// The machine-learning model enters as a black box: per cell, the functions
// g_v(c) (probability a patrol with effort c detects an attack) and ν_v(c)
// (squashed predictive uncertainty). The planner samples the robust utility
//
//	U_v(c) = g_v(c) − β·g_v(c)·ν_v(c)
//
// at PWL breakpoints (both factors depend on the same scalar c, so the
// product is still a function of c alone and one PWL curve per cell
// represents it) and maximizes Σ_v U_v(c_v)
// subject to the flow polytope, as a MILP when any sampled U_v is
// non-concave.
//
// For parks far larger than a patrol's reach, SolveHierarchical first runs
// a coarse Frank-Wolfe pass over f×f super-cell aggregates to decide where
// the effort mass belongs, grows the post's fine region toward that mass,
// and then solves the ordinary problem inside it (see hierarchy.go). This
// keeps planning interactive at 10^6 cells.
package plan

import (
	"errors"
	"fmt"
	"math"
	"time"

	"paws/internal/geo"
	"paws/internal/lp"
	"paws/internal/milp"
)

// CellModel is the black-box predictive interface the planner optimizes.
// Eval pairs cells[i] with efforts[i] and writes g[i] = g_v(c), the
// detection probability in [0,1], and nu[i] = ν_v(c), the squashed
// uncertainty score in [0,1], for v = cells[i] and c = efforts[i]. The
// planner asks for a whole region's queries in one call, so an
// implementation can batch its model evaluation.
type CellModel interface {
	Eval(cells []int, efforts []float64, g, nu []float64)
}

// Region is the planning neighborhood of one patrol post.
type Region struct {
	Park *geo.Park
	Post int
	// Cells are park cell ids in the region; Cells[0] == Post.
	Cells []int
	// index maps park cell id -> region-local index.
	index map[int]int
	// Neighbors lists region-local neighbor indices (4-adjacency, within the
	// region) for each region cell. One planner time step is the minimum
	// time to cross one cell, so moves are rook steps; waiting is modelled
	// by the planner's self-loops.
	Neighbors [][]int
}

// NewRegion builds the planning region of all cells within graph radius
// `radius` of the post (breadth-first over 8-neighbors), capped at maxCells.
func NewRegion(park *geo.Park, post, radius, maxCells int) (*Region, error) {
	if post < 0 || post >= park.Grid.NumCells() {
		return nil, fmt.Errorf("plan: post cell %d out of range", post)
	}
	if radius < 1 {
		return nil, errors.New("plan: radius must be ≥ 1")
	}
	if maxCells <= 0 {
		maxCells = 1 << 30
	}
	r := &Region{Park: park, Post: post, index: map[int]int{}}
	type qi struct{ cell, depth int }
	queue := []qi{{post, 0}}
	seen := map[int]bool{post: true}
	nbr := make([]int, 0, 8)
	for len(queue) > 0 && len(r.Cells) < maxCells {
		cur := queue[0]
		queue = queue[1:]
		r.index[cur.cell] = len(r.Cells)
		r.Cells = append(r.Cells, cur.cell)
		if cur.depth >= radius {
			continue
		}
		nbr = park.Grid.Neighbors8(cur.cell, nbr[:0])
		for _, n := range nbr {
			if !seen[n] {
				seen[n] = true
				queue = append(queue, qi{n, cur.depth + 1})
			}
		}
	}
	r.linkNeighbors(park.Grid.Neighbors4)
	return r, nil
}

// linkNeighbors fills r.Neighbors: adjacent(cell, buf) appends the cells
// adjacent to cell to buf, and those inside the region become its
// region-local neighbors, in that order. Self-loops are added by the
// planner, not here.
func (r *Region) linkNeighbors(adjacent func(cell int, buf []int) []int) {
	r.Neighbors = make([][]int, len(r.Cells))
	var buf []int
	for li, cell := range r.Cells {
		buf = adjacent(cell, buf[:0])
		for _, n := range buf {
			if lj, ok := r.index[n]; ok {
				r.Neighbors[li] = append(r.Neighbors[li], lj)
			}
		}
	}
}

// NumCells returns the number of cells in the region.
func (r *Region) NumCells() int { return len(r.Cells) }

// Config controls one planning solve.
type Config struct {
	// T is the number of time steps in a patrol (path length).
	T int
	// K is the number of patrols conducted over the planning horizon; the
	// effort at a cell is K × (flow into the cell).
	K float64
	// Segments is the number of PWL segments per cell utility.
	Segments int
	// Beta is the robustness weight β ∈ [0,1] on the uncertainty penalty.
	Beta float64
	// Solver selects the optimization strategy (see SolverKind).
	Solver SolverKind
	// Workers bounds the goroutines sweep drivers (package game) use to run
	// independent solves concurrently (par.Workers semantics: 1 is
	// sequential, ≤ 0 means GOMAXPROCS). Solve itself is sequential; the
	// CellModel must be safe for concurrent lookups when Workers ≠ 1, which
	// the paws.PlannerModel adapter guarantees.
	Workers int
	// now is a test hook (the env.ManagerConfig.now convention): Solve
	// stamps Plan.Runtime from it, so tests can pin Runtime
	// deterministically. nil means time.Now.
	now func() time.Time
}

// SolverKind selects how the planning problem is optimized.
type SolverKind int

const (
	// SolverAuto runs the Frank-Wolfe relaxation, then refines with the
	// budgeted MILP when the instance is small enough, keeping the better
	// plan. This is the default.
	SolverAuto SolverKind = iota
	// SolverFrankWolfe runs only the conditional-gradient relaxation over
	// the flow polytope — fast and scalable, exact for concave utilities.
	SolverFrankWolfe
	// SolverMILP runs only the simplex relaxation plus branch-and-bound —
	// the formulation of the paper, exact (within its budget) but slow on
	// large regions. Used by the Fig. 9 runtime study.
	SolverMILP
)

// Plan is a computed patrol strategy.
type Plan struct {
	Region *Region
	// Effort[i] is the planned patrol effort for region cell i.
	Effort []float64
	// Objective is Σ U_v(c_v) of the returned plan, evaluated exactly on the
	// sampled PWL utilities (never the LP's possibly-overestimated bound).
	Objective float64
	// Runtime is the wall time of the solve.
	Runtime time.Duration
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// Binaries is the number of SOS2 binaries the MILP needed (0 when every
	// sampled utility was concave).
	Binaries int
	// Relaxed reports that the returned plan came from the LP relaxation
	// (the MILP refinement found nothing better within its budget). The LP
	// relaxation only loosens the objective linearization — its flow and
	// effort values are always feasible patrol strategies.
	Relaxed bool
}

// Solve computes the optimal plan for the region under the model.
func Solve(region *Region, model CellModel, cfg Config) (*Plan, error) {
	if cfg.T < 2 {
		return nil, errors.New("plan: T must be ≥ 2")
	}
	if cfg.K <= 0 {
		return nil, errors.New("plan: K must be positive")
	}
	if cfg.Segments < 1 {
		return nil, errors.New("plan: need ≥ 1 PWL segment")
	}
	if cfg.Beta < 0 || cfg.Beta > 1 {
		return nil, fmt.Errorf("plan: β = %v out of [0,1]", cfg.Beta)
	}
	now := cfg.now
	if now == nil {
		now = time.Now
	}
	start := now()

	pwls, err := sampleUtilities(region, model, cfg)
	if err != nil {
		return nil, err
	}
	exactObj := func(effort []float64) float64 {
		var s float64
		for i, f := range pwls {
			s += f.Eval(effort[i])
		}
		return s
	}

	out := &Plan{Region: region}

	// Frank-Wolfe relaxation: fast, feasible, exact for concave hulls.
	if cfg.Solver != SolverMILP {
		fw := buildFW(region, cfg, pwls)
		effort := fw.solveFrankWolfe(250)
		out.Effort = effort
		out.Objective = exactObj(effort)
		out.Relaxed = true
	}
	if cfg.Solver == SolverFrankWolfe || (cfg.Solver == SolverAuto && !autoRefines(cfg.T, pwls)) {
		out.Runtime = now().Sub(start)
		return out, nil
	}

	// MILP path (problem P of the paper).
	milpPlan, err := solveMILPPath(region, cfg, pwls, exactObj)
	if err != nil && cfg.Solver == SolverMILP {
		return nil, err
	}
	// Auto mode keeps the Frank-Wolfe plan when the MILP path fails.
	if err == nil {
		out.Binaries = milpPlan.Binaries
		out.Nodes = milpPlan.Nodes
		if out.Effort == nil || milpPlan.Objective > out.Objective {
			out.Effort = milpPlan.Effort
			out.Objective = milpPlan.Objective
			out.Relaxed = milpPlan.Relaxed
		}
	}
	out.Runtime = now().Sub(start)
	return out, nil
}

// maxEffort is the PWL domain: a cell cannot absorb more than the full flow.
func (cfg Config) maxEffort() float64 { return math.Min(cfg.K*float64(cfg.T), cfg.K*4) }

// sampleUtilities samples each cell's robust utility U_v(c) = g_v(c)·(1 −
// β·ν_v(c)) at cfg.Segments+1 evenly spaced PWL breakpoints over [0,
// maxEffort] — both factors depend on the same scalar c, so the product is
// a function of c alone and one PWL curve per cell represents it. The whole
// region is sampled in one query.
func sampleUtilities(region *Region, model CellModel, cfg Config) ([]milp.PWL, error) {
	n := region.NumCells()
	maxEffort := cfg.maxEffort()
	bp := cfg.Segments + 1
	cells := make([]int, n*bp)
	efforts := make([]float64, n*bp)
	for i := 0; i < n; i++ {
		for k := 0; k < bp; k++ {
			cells[i*bp+k] = region.Cells[i]
			efforts[i*bp+k] = maxEffort * float64(k) / float64(cfg.Segments)
		}
	}
	g := make([]float64, n*bp)
	nu := make([]float64, n*bp)
	model.Eval(cells, efforts, g, nu)
	pwls := make([]milp.PWL, n)
	ys := make([]float64, bp)
	for i := 0; i < n; i++ {
		for k := range ys {
			j := i*bp + k
			ys[k] = g[j] - cfg.Beta*g[j]*nu[j]
		}
		f, err := milp.NewPWL(efforts[i*bp:(i+1)*bp], ys)
		if err != nil {
			return nil, fmt.Errorf("plan: cell %d PWL: %w", region.Cells[i], err)
		}
		pwls[i] = f
	}
	return pwls, nil
}

// Auto mode refines with problem P only below both caps: past ~2,600 edge
// variables (T·n·5) the simplex relaxation is slow, and past 220 SOS2
// binaries a budgeted dive cannot reach a leaf.
const (
	autoMaxEdges    = 2600
	autoMaxBinaries = 220
)

// autoRefines reports whether Auto mode builds and solves problem P,
// checking both caps from the sampled utilities before anything is built.
func autoRefines(T int, pwls []milp.PWL) bool {
	if T*len(pwls)*5 > autoMaxEdges {
		return false
	}
	binaries := 0
	for _, f := range pwls {
		binaries += f.NumBinaries()
	}
	return binaries <= autoMaxBinaries
}

// problemP is problem P of Section VI over one region: unit flow from (post,
// 0) to (post, T) on the time-unrolled graph, each cell's effort, and its
// lambda-encoded sampled utility.
type problemP struct {
	lp *lp.Problem
	// in[t][i] and out[t][i] list the edge variables entering and leaving
	// node (i, t).
	in, out [][][]int
	// effort[i] is the variable c_i = K · Σ_{t=1..T} inflow(i, t).
	effort []int
	// segments[i] are cell i's SOS2 segment binaries (none when its sampled
	// utility is concave).
	segments [][]int
}

// buildP assembles problem P: edge variables between consecutive layers,
// flow conservation, the effort variables and one PWL encoding per cell.
func buildP(region *Region, cfg Config, pwls []milp.PWL) (*problemP, error) {
	n := region.NumCells()
	P := &problemP{
		lp:       lp.NewProblem(),
		in:       make([][][]int, cfg.T+1),
		out:      make([][][]int, cfg.T+1),
		effort:   make([]int, n),
		segments: make([][]int, n),
	}
	p := P.lp
	for t := range P.in {
		P.in[t] = make([][]int, n)
		P.out[t] = make([][]int, n)
	}
	const post = 0 // region.Cells[0] is the post

	// Edge variables between consecutive layers, self-loop first. Layer 0
	// only has the post occupied, so only its outgoing edges exist.
	for t := 0; t < cfg.T; t++ {
		for i := 0; i < n; i++ {
			if t == 0 && i != post {
				continue
			}
			for _, j := range append([]int{i}, region.Neighbors[i]...) {
				v := p.AddVariable(0, 0, 1)
				P.out[t][i] = append(P.out[t][i], v)
				P.in[t+1][j] = append(P.in[t+1][j], v)
			}
		}
	}
	// Flow conservation: for t = 1..T−1, inflow(i,t) = outflow(i,t).
	for t := 1; t < cfg.T; t++ {
		for i := 0; i < n; i++ {
			in, out := P.in[t][i], P.out[t][i]
			if len(in) == 0 && len(out) == 0 {
				continue
			}
			idx := append(append([]int{}, in...), out...)
			coef := append(filled(len(in), 1), filled(len(out), -1)...)
			if err := p.AddConstraint(idx, coef, lp.EQ, 0); err != nil {
				return nil, err
			}
		}
	}
	// Source: outflow(post, 0) = 1. Sink: inflow(post, T) = 1.
	for _, edges := range [][]int{P.out[0][post], P.in[cfg.T][post]} {
		if err := p.AddConstraint(edges, filled(len(edges), 1), lp.EQ, 1); err != nil {
			return nil, err
		}
	}
	// Effort variables: c_i − K · Σ_{t=1..T} inflow(i, t) = 0.
	maxEffort := cfg.maxEffort()
	for i := 0; i < n; i++ {
		P.effort[i] = p.AddVariable(0, 0, maxEffort)
		idx := []int{P.effort[i]}
		for t := 1; t <= cfg.T; t++ {
			idx = append(idx, P.in[t][i]...)
		}
		coef := filled(len(idx), -cfg.K)
		coef[0] = 1
		if err := p.AddConstraint(idx, coef, lp.EQ, 0); err != nil {
			return nil, err
		}
	}
	// PWL utility per cell via the lambda encoding.
	for i := 0; i < n; i++ {
		_, bins, err := pwls[i].AddToProblem(p, P.effort[i])
		if err != nil {
			return nil, err
		}
		P.segments[i] = bins
	}
	return P, nil
}

// solveMILPPath builds problem P and solves it: the simplex relaxation, then
// branch and bound over the segment binaries when any utility is
// non-concave.
func solveMILPPath(region *Region, cfg Config, pwls []milp.PWL, exactObj func([]float64) float64) (*Plan, error) {
	P, err := buildP(region, cfg, pwls)
	if err != nil {
		return nil, err
	}
	var binaries []int
	for _, bins := range P.segments {
		binaries = append(binaries, bins...)
	}
	extract := func(X []float64) []float64 {
		eff := make([]float64, len(P.effort))
		for i, v := range P.effort {
			eff[i] = X[v]
		}
		return eff
	}

	// Stage 1: simplex relaxation — feasible, and exact when every sampled
	// utility is concave.
	relax, err := lp.Solve(P.lp)
	if err != nil {
		return nil, fmt.Errorf("plan: relaxation: %w", err)
	}
	if relax.Status != lp.Optimal {
		return nil, fmt.Errorf("plan: relaxation status %v", relax.Status)
	}
	out := &Plan{
		Region:    region,
		Effort:    extract(relax.X),
		Objective: exactObj(extract(relax.X)),
		Binaries:  len(binaries),
		Relaxed:   true,
	}

	// Stage 2: branch-and-bound refinement when the utilities are
	// non-concave. The search dives to an incumbent first, so even its
	// 150-node budget yields an adjacency-feasible solution. The budget
	// counts nodes, not wall time, so a plan never depends on machine load.
	if len(binaries) > 0 {
		res, err := milp.Solve(P.lp, binaries, 150)
		if err == nil && (res.Status == lp.Optimal || res.Status == lp.IterLimit) && res.X != nil {
			eff := extract(res.X)
			if obj := exactObj(eff); obj > out.Objective {
				out.Effort = eff
				out.Objective = obj
				out.Relaxed = false
			}
			out.Nodes = res.Nodes
		} else if err != nil && !errors.Is(err, milp.ErrNoIncumbent) {
			return nil, fmt.Errorf("plan: MILP refinement: %w", err)
		}
	}
	return out, nil
}

// filled returns k copies of v.
func filled(k int, v float64) []float64 {
	o := make([]float64, k)
	for i := range o {
		o[i] = v
	}
	return o
}

// Evaluate computes the exact (non-PWL) robust utility of an effort
// allocation under the model: Σ_v g_v(c_v)·(1 − β·ν_v(c_v)).
func Evaluate(region *Region, model CellModel, effort []float64, beta float64) float64 {
	n := region.NumCells()
	g := make([]float64, n)
	nu := make([]float64, n)
	model.Eval(region.Cells, effort[:n], g, nu)
	var u float64
	for i := range g {
		u += g[i] - beta*g[i]*nu[i]
	}
	return u
}

// TotalEffort sums the planned effort (should equal K·T within tolerance).
func (p *Plan) TotalEffort() float64 {
	var s float64
	for _, e := range p.Effort {
		s += e
	}
	return s
}
