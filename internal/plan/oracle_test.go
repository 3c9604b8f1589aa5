package plan

import (
	"fmt"
	"math"
	"testing"

	"paws/internal/lp"
	"paws/internal/milp"
	"paws/internal/rng"
)

// powerModel gives cell v the detection curve g_v(c) = h_v·(c/cmax)^p_v,
// convex for p_v > 1 and so non-concave once sampled at three or more
// breakpoints, with an uncertainty that fades as effort grows.
type powerModel struct {
	cmax    float64
	h, p, u map[int]float64
}

func (m powerModel) Eval(cells []int, efforts []float64, g, nu []float64) {
	for i, cell := range cells {
		x := min(efforts[i]/m.cmax, 1)
		g[i] = m.h[cell] * math.Pow(x, m.p[cell])
		nu[i] = m.u[cell] * (1 - x/2)
	}
}

// oracleTol is the oracle's tolerance: relative for objectives, absolute
// for flows and efforts.
const oracleTol = 1e-6

// TestSolverOracle checks problem P and every solver against brute force
// on small random regions with non-concave utilities: pinning one segment
// per non-concave cell turns P into an LP, so the best pinned LP is the
// MILP optimum branch and bound must find.
func TestSolverOracle(t *testing.T) {
	park := planPark(t)
	for seed := int64(1); seed <= 8; seed++ {
		r := rng.New(seed)
		region, err := NewRegion(park, r.Intn(park.Grid.NumCells()), 2, 2+r.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{T: 2 + r.Intn(3), K: float64(1 + r.Intn(2)), Segments: 2 + r.Intn(2)}
		model := powerModel{cmax: cfg.maxEffort(), h: map[int]float64{}, p: map[int]float64{}, u: map[int]float64{}}
		for i, c := range region.Cells {
			model.h[c] = 0.2 + 0.8*r.Float64()
			model.p[c] = 0.5 + 2.5*r.Float64()
			if i == region.NumCells()-1 {
				model.p[c] = 2 + r.Float64() // at least one non-concave cell
			}
			model.u[c] = r.Float64()
		}
		for _, beta := range []float64{0, 0.9} {
			cfg.Beta = beta
			name := fmt.Sprintf("seed %d β %v (%d cells, T %d, K %v, %d segments)",
				seed, beta, region.NumCells(), cfg.T, cfg.K, cfg.Segments)
			checkOracle(t, name, region, model, cfg)
		}
	}
}

func checkOracle(t *testing.T, name string, region *Region, model CellModel, cfg Config) {
	t.Helper()
	pwls, err := sampleUtilities(region, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	P, err := buildP(region, cfg, pwls)
	if err != nil {
		t.Fatal(err)
	}
	var binaries []int
	var pinned [][]int // segment binaries of each non-concave cell
	for _, segs := range P.segments {
		binaries = append(binaries, segs...)
		if len(segs) > 0 {
			pinned = append(pinned, segs)
		}
	}
	if len(pinned) == 0 {
		t.Fatalf("%s: no non-concave cell", name)
	}

	// Brute force: every choice of one segment per non-concave cell.
	n := P.lp.NumVariables()
	lo0, hi0 := make([]float64, n), make([]float64, n)
	for j := range lo0 {
		lo0[j], hi0[j] = P.lp.Bounds(j)
	}
	best := math.Inf(-1)
	choice := make([]int, len(pinned))
	for {
		lo, hi := append([]float64(nil), lo0...), append([]float64(nil), hi0...)
		for c, segs := range pinned {
			for s, z := range segs {
				v := 0.0
				if s == choice[c] {
					v = 1
				}
				lo[z], hi[z] = v, v
			}
		}
		sol, err := lp.Solve(P.lp.WithBounds(lo, hi))
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status == lp.Optimal && sol.Obj > best {
			best = sol.Obj
		}
		c := 0
		for ; c < len(choice); c++ {
			if choice[c]++; choice[c] < len(pinned[c]) {
				break
			}
			choice[c] = 0
		}
		if c == len(choice) {
			break
		}
	}

	res, err := milp.Solve(P.lp, binaries, 1<<20)
	if err != nil || res.Status != lp.Optimal {
		t.Fatalf("%s: MILP status %v, err %v", name, res.Status, err)
	}
	if math.Abs(res.Obj-best) > oracleTol*math.Abs(best)+1e-9 {
		t.Errorf("%s: MILP objective %v, best pinned LP %v", name, res.Obj, best)
	}

	relax, err := lp.Solve(P.lp)
	if err != nil || relax.Status != lp.Optimal {
		t.Fatalf("%s: relaxation status %v, err %v", name, relax.Status, err)
	}
	if relax.Obj < res.Obj-1e-9 {
		t.Errorf("%s: relaxation %v below the MILP objective %v", name, relax.Obj, res.Obj)
	}
	for _, X := range [][]float64{relax.X, res.X} {
		checkFlow(t, name, P, cfg, X)
	}

	for _, solver := range []SolverKind{SolverAuto, SolverFrankWolfe, SolverMILP} {
		scfg := cfg
		scfg.Solver = solver
		plan, err := Solve(region, model, scfg)
		if err != nil {
			t.Fatalf("%s solver %d: %v", name, solver, err)
		}
		if solver == SolverFrankWolfe && relax.Obj < plan.Objective-1e-9 {
			t.Errorf("%s: relaxation %v below the Frank-Wolfe objective %v", name, relax.Obj, plan.Objective)
		}
		want := cfg.K * float64(cfg.T)
		if got := plan.TotalEffort(); math.Abs(got-want) > oracleTol {
			t.Errorf("%s solver %d: total effort %v, want %v", name, solver, got, want)
		}
		for i, e := range plan.Effort {
			if e < -oracleTol || e > cfg.maxEffort()+oracleTol {
				t.Errorf("%s solver %d: cell %d effort %v outside [0, %v]", name, solver, i, e, cfg.maxEffort())
			}
		}
	}
}

// checkFlow asserts that X routes one unit of flow from (post, 0) to (post,
// T), conserved at every node of layers 1..T−1, and that each effort
// variable is K times its cell's inflow.
func checkFlow(t *testing.T, name string, P *problemP, cfg Config, X []float64) {
	t.Helper()
	sum := func(vars []int) float64 {
		var s float64
		for _, v := range vars {
			s += X[v]
		}
		return s
	}
	if src, sink := sum(P.out[0][0]), sum(P.in[cfg.T][0]); math.Abs(src-1) > oracleTol || math.Abs(sink-1) > oracleTol {
		t.Errorf("%s: source flow %v, sink flow %v, want 1", name, src, sink)
	}
	for tt := 1; tt < cfg.T; tt++ {
		for i := range P.in[tt] {
			if in, out := sum(P.in[tt][i]), sum(P.out[tt][i]); math.Abs(in-out) > oracleTol {
				t.Errorf("%s: node (%d, %d) inflow %v, outflow %v", name, i, tt, in, out)
			}
		}
	}
	for i, v := range P.effort {
		var in float64
		for tt := 1; tt <= cfg.T; tt++ {
			in += sum(P.in[tt][i])
		}
		if math.Abs(X[v]-cfg.K*in) > oracleTol {
			t.Errorf("%s: cell %d effort %v, K·inflow %v", name, i, X[v], cfg.K*in)
		}
	}
}
