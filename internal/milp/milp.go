// Package milp implements a branch-and-bound mixed-integer solver on top of
// the bounded-variable simplex in internal/lp, plus the piecewise-linear
// (PWL) encodings the patrol planner needs to express black-box machine
// learning predictions inside problem (P) of Section VI.
//
// The solver handles maximization problems with binary/integer variables,
// using best-bound node selection, most-fractional branching, and an
// LP-guided rounding dive that supplies early incumbents. Concave PWL
// functions under maximization need no integer variables at all; the
// non-concave case uses the lambda method with segment-activation binaries.
package milp

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"paws/internal/lp"
)

const (
	// relGap stops the search once (bound−incumbent)/|incumbent| falls
	// below it.
	relGap = 1e-6
	// intTol is the integrality tolerance.
	intTol = 1e-6
)

// Result is the outcome of a MILP solve.
type Result struct {
	Status lp.Status
	X      []float64
	Obj    float64
	// Bound is the best remaining upper bound (== Obj at proven optimality).
	Bound float64
	// Nodes is the number of explored B&B nodes.
	Nodes int
	// Gap is the final relative optimality gap.
	Gap float64
}

// ErrNoIncumbent is returned when the search ends without any feasible
// integer solution.
var ErrNoIncumbent = errors.New("milp: no feasible integer solution found")

// node is one branch-and-bound subproblem: the bound vectors it solves p
// under. A child shares its parent's vectors except the one its branch
// tightens, which it copies.
type node struct {
	lo, hi []float64
	bound  float64 // parent LP bound
}

// Solve maximizes the problem with the listed variables required integral,
// exploring at most maxNodes branch-and-bound nodes.
func Solve(p *lp.Problem, intVars []int, maxNodes int) (Result, error) {
	for _, j := range intVars {
		if j < 0 || j >= p.NumVariables() {
			return Result{}, fmt.Errorf("milp: integer variable %d out of range", j)
		}
	}

	root := &node{lo: make([]float64, p.NumVariables()), hi: make([]float64, p.NumVariables()), bound: math.Inf(1)}
	for j := range root.lo {
		root.lo[j], root.hi[j] = p.Bounds(j)
	}
	res := Result{Status: lp.Infeasible, Obj: math.Inf(-1), Bound: math.Inf(1)}
	var best []float64
	bestObj := math.Inf(-1)
	haveIncumbent := false

	// Node selection: depth-first dives until the first incumbent is found
	// (children are pushed so the LP-suggested branch is explored first),
	// then best-bound to close the gap. Pure best-bound can exhaust the node
	// budget without ever reaching an integral leaf on instances with many
	// SOS2 binaries.
	open := []*node{root}
	for len(open) > 0 {
		if res.Nodes >= maxNodes {
			res.Status = lp.IterLimit
			break
		}
		var nd *node
		if !haveIncumbent {
			nd = open[len(open)-1]
			open = open[:len(open)-1]
		} else {
			bi := 0
			for i := 1; i < len(open); i++ {
				if open[i].bound > open[bi].bound {
					bi = i
				}
			}
			nd = open[bi]
			open[bi] = open[len(open)-1]
			open = open[:len(open)-1]
		}

		if haveIncumbent && nd.bound <= bestObj+math.Abs(bestObj)*relGap {
			continue
		}
		res.Nodes++
		sol, err := lp.Solve(p.WithBounds(nd.lo, nd.hi))
		if err != nil {
			return res, err
		}
		switch sol.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			return Result{Status: lp.Unbounded, Nodes: res.Nodes}, nil
		case lp.IterLimit:
			continue // treat as prunable; conservative
		}
		if haveIncumbent && sol.Obj <= bestObj+math.Abs(bestObj)*relGap {
			continue
		}
		// Find the most fractional integer variable; ties go to the first
		// in intVars order, so branching never depends on map order.
		branch := -1
		bestFrac := intTol
		for _, j := range intVars {
			f := frac(sol.X[j])
			if f > bestFrac {
				bestFrac = f
				branch = j
			}
		}
		if branch < 0 {
			// Integral: new incumbent.
			if sol.Obj > bestObj {
				bestObj = sol.Obj
				best = append([]float64(nil), sol.X...)
				haveIncumbent = true
			}
			continue
		}
		v := sol.X[branch]
		down := &node{lo: nd.lo, hi: slices.Clone(nd.hi), bound: sol.Obj}
		down.hi[branch] = math.Min(down.hi[branch], math.Floor(v))
		up := &node{lo: slices.Clone(nd.lo), hi: nd.hi, bound: sol.Obj}
		up.lo[branch] = math.Max(up.lo[branch], math.Ceil(v))
		// Push so the LP-suggested side is popped first during DFS dives.
		if v-math.Floor(v) >= 0.5 {
			open = append(open, down, up)
		} else {
			open = append(open, up, down)
		}
	}

	if !haveIncumbent {
		if res.Status != lp.IterLimit {
			res.Status = lp.Infeasible
		}
		return res, ErrNoIncumbent
	}
	res.X = best
	res.Obj = bestObj
	// Remaining bound.
	remBound := bestObj
	for _, nd := range open {
		if nd.bound > remBound {
			remBound = nd.bound
		}
	}
	res.Bound = remBound
	if bestObj != 0 {
		res.Gap = (remBound - bestObj) / math.Abs(bestObj)
	} else {
		res.Gap = remBound - bestObj
	}
	if res.Status != lp.IterLimit {
		res.Status = lp.Optimal
	}
	return res, nil
}

func frac(v float64) float64 {
	f := v - math.Floor(v)
	return math.Min(f, 1-f)
}

// PWL describes a piecewise-linear function through breakpoints (Xs, Ys),
// with Xs strictly increasing.
type PWL struct {
	Xs, Ys []float64
}

// NewPWL validates and constructs a PWL function.
func NewPWL(xs, ys []float64) (PWL, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return PWL{}, fmt.Errorf("milp: PWL needs ≥2 matched breakpoints, got %d/%d", len(xs), len(ys))
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return PWL{}, fmt.Errorf("milp: PWL breakpoints must be strictly increasing at %d", i)
		}
	}
	return PWL{Xs: append([]float64(nil), xs...), Ys: append([]float64(nil), ys...)}, nil
}

// Eval linearly interpolates the PWL at x (clamped to the breakpoint range).
func (f PWL) Eval(x float64) float64 {
	xs, ys := f.Xs, f.Ys
	if x <= xs[0] {
		return ys[0]
	}
	if x >= xs[len(xs)-1] {
		return ys[len(ys)-1]
	}
	i := sort.SearchFloat64s(xs, x)
	if xs[i] == x {
		return ys[i]
	}
	t := (x - xs[i-1]) / (xs[i] - xs[i-1])
	return ys[i-1]*(1-t) + ys[i]*t
}

// NumBinaries returns the number of segment binaries AddToProblem adds for
// f: none when f is concave, since maximizing it then needs no adjacency
// constraint, else one per segment.
func (f PWL) NumBinaries() int {
	if f.IsConcave(1e-9) {
		return 0
	}
	return len(f.Xs) - 1
}

// IsConcave reports whether the PWL has non-increasing slopes (within tol),
// in which case maximizing it needs no binaries.
func (f PWL) IsConcave(tol float64) bool {
	prev := math.Inf(1)
	for i := 1; i < len(f.Xs); i++ {
		s := (f.Ys[i] - f.Ys[i-1]) / (f.Xs[i] - f.Xs[i-1])
		if s > prev+tol {
			return false
		}
		prev = s
	}
	return true
}

// AddToProblem encodes y = f(x) into the problem with the lambda method:
//
//	x = Σ λ_k·Xs_k,  y = Σ λ_k·Ys_k,  Σ λ_k = 1,  λ ≥ 0,
//
// with y entering the objective with coefficient 1, so the problem
// maximizes f. Unless f is concave, NumBinaries segment-activation binaries
// z_s with Σ z_s = 1 and λ_k ≤ z_{k-1} + z_k enforce SOS2 adjacency. It
// returns the y variable index and the binary variable indices (empty for
// the concave case).
func (f PWL) AddToProblem(p *lp.Problem, xVar int) (yVar int, binaries []int, err error) {
	k := len(f.Xs)
	lambdas := make([]int, k)
	ones := make([]float64, k)
	for i := range lambdas {
		lambdas[i] = p.AddVariable(0, 0, 1)
		ones[i] = 1
	}
	yVar = p.AddVariable(1, slices.Min(f.Ys), slices.Max(f.Ys))
	// Σ λ = 1.
	if err := p.AddConstraint(lambdas, ones, lp.EQ, 1); err != nil {
		return 0, nil, err
	}
	// x − Σ λ Xs = 0 and y − Σ λ Ys = 0.
	for _, row := range []struct {
		v  int
		bs []float64
	}{{xVar, f.Xs}, {yVar, f.Ys}} {
		coef := []float64{1}
		for _, b := range row.bs {
			coef = append(coef, -b)
		}
		if err := p.AddConstraint(append([]int{row.v}, lambdas...), coef, lp.EQ, 0); err != nil {
			return 0, nil, err
		}
	}
	segs := f.NumBinaries()
	if segs == 0 {
		return yVar, nil, nil
	}
	// Segment binaries: z_s for segments s = 0..k−2, Σ z = 1.
	zs := make([]int, segs)
	for s := range zs {
		zs[s] = p.AddVariable(0, 0, 1)
	}
	if err := p.AddConstraint(zs, ones[:segs], lp.EQ, 1); err != nil {
		return 0, nil, err
	}
	// λ_k ≤ z_{k−1} + z_k (boundary cases use the single adjacent segment).
	for i := 0; i < k; i++ {
		idx, coef := []int{lambdas[i]}, []float64{1}
		if i > 0 {
			idx, coef = append(idx, zs[i-1]), append(coef, -1)
		}
		if i < segs {
			idx, coef = append(idx, zs[i]), append(coef, -1)
		}
		if err := p.AddConstraint(idx, coef, lp.LE, 0); err != nil {
			return 0, nil, err
		}
	}
	return yVar, zs, nil
}
