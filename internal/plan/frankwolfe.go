package plan

import (
	"math"

	"paws/internal/milp"
)

// This file implements the scalable relaxation solver for the patrol
// planning problem: Frank-Wolfe (conditional gradient) over the path
// polytope of the time-unrolled graph.
//
// The LP relaxation of problem (P) with lambda-encoded PWL utilities is
// exactly the maximization of the upper concave envelope (hull) of each
// cell's sampled utility over the flow polytope. Frank-Wolfe exploits the
// structure directly: the linear maximization oracle over unit s→t flows on
// a layered DAG is a longest-path dynamic program, O(T·E) per iteration, so
// instances that choke a general simplex solve in milliseconds. The
// resulting mixed strategy (a convex combination of timed patrol paths) is
// feasible by construction.
type fwProblem struct {
	region *Region
	T      int
	K      float64
	// hull[i] is the concave envelope of cell i's sampled utility.
	hull []concaveHull
	// maxEffort caps the PWL domain; beyond it marginal utility is zero.
	maxEffort float64
}

// concaveHull is an upper concave envelope of PWL breakpoints, stored as
// breakpoints with decreasing slopes.
type concaveHull struct {
	xs, ys []float64
}

// newConcaveHull computes the upper concave envelope of (xs, ys) with xs
// strictly increasing, via a monotone-chain scan.
func newConcaveHull(xs, ys []float64) concaveHull {
	n := len(xs)
	keep := make([]int, 0, n)
	for i := 0; i < n; i++ {
		for len(keep) >= 2 {
			a, b := keep[len(keep)-2], keep[len(keep)-1]
			// Remove b if it lies on or below chord a→i.
			t := (xs[b] - xs[a]) / (xs[i] - xs[a])
			chord := ys[a] + t*(ys[i]-ys[a])
			if ys[b] <= chord+1e-15 {
				keep = keep[:len(keep)-1]
			} else {
				break
			}
		}
		keep = append(keep, i)
	}
	h := concaveHull{}
	for _, i := range keep {
		h.xs = append(h.xs, xs[i])
		h.ys = append(h.ys, ys[i])
	}
	return h
}

// eval interpolates the hull at x, extending flat beyond the last breakpoint
// and returning the first value below the first breakpoint.
func (h concaveHull) eval(x float64) float64 {
	if x <= h.xs[0] {
		return h.ys[0]
	}
	last := len(h.xs) - 1
	if x >= h.xs[last] {
		return h.ys[last]
	}
	for i := 1; i <= last; i++ {
		if x <= h.xs[i] {
			t := (x - h.xs[i-1]) / (h.xs[i] - h.xs[i-1])
			return h.ys[i-1] + t*(h.ys[i]-h.ys[i-1])
		}
	}
	return h.ys[last]
}

// slope returns the right derivative of the hull at x (0 beyond the domain).
func (h concaveHull) slope(x float64) float64 {
	last := len(h.xs) - 1
	if x >= h.xs[last] {
		return 0
	}
	if x < h.xs[0] {
		x = h.xs[0]
	}
	for i := 1; i <= last; i++ {
		if x < h.xs[i] {
			return (h.ys[i] - h.ys[i-1]) / (h.xs[i] - h.xs[i-1])
		}
	}
	return 0
}

// bestPath runs the longest-path DP over the time-unrolled DAG with node
// weights w (reward collected on every visit at layers 1..T), returning the
// per-cell visit counts of the optimal path.
func (f *fwProblem) bestPath(w []float64) []float64 {
	n := f.region.NumCells()
	T := f.T
	negInf := math.Inf(-1)
	// score[v] at current layer; parent pointers per layer for backtrack.
	score := make([]float64, n)
	next := make([]float64, n)
	parents := make([][]int32, T+1)
	for t := range parents {
		parents[t] = make([]int32, n)
	}
	for v := range score {
		score[v] = negInf
	}
	score[0] = 0 // post at layer 0
	for t := 1; t <= T; t++ {
		for v := 0; v < n; v++ {
			next[v] = negInf
			parents[t][v] = -1
		}
		for u := 0; u < n; u++ {
			if score[u] == negInf {
				continue
			}
			// Self-loop.
			if s := score[u] + w[u]; s > next[u] {
				next[u] = s
				parents[t][u] = int32(u)
			}
			for _, v := range f.region.Neighbors[u] {
				if s := score[u] + w[v]; s > next[v] {
					next[v] = s
					parents[t][v] = int32(u)
				}
			}
		}
		score, next = next, score
	}
	// Backtrack from the post at layer T.
	visits := make([]float64, n)
	cur := 0
	if score[0] == negInf {
		return visits // unreachable (degenerate regions); zero plan
	}
	for t := T; t >= 1; t-- {
		visits[cur]++
		cur = int(parents[t][cur])
		if cur < 0 {
			break
		}
	}
	return visits
}

// solveFrankWolfe maximizes Σ hull_i(c_i) over the flow polytope with
// c_i = K·visits_i. Returns the effort vector. iters controls convergence
// (the objective is concave; classic 2/(k+2) steps give O(1/k) gap).
func (f *fwProblem) solveFrankWolfe(iters int) []float64 {
	n := f.region.NumCells()
	c := make([]float64, n)
	// Initialize from the zero-gradient-agnostic greedy path (all weights
	// equal), i.e. any feasible patrol.
	w := make([]float64, n)
	for i := range w {
		w[i] = f.hull[i].slope(0)
	}
	visits := f.bestPath(w)
	for i := range c {
		c[i] = f.K * visits[i]
	}
	d := make([]float64, n)
	for k := 1; k < iters; k++ {
		for i := range w {
			w[i] = f.K * f.hull[i].slope(c[i])
		}
		visits = f.bestPath(w)
		for i := range d {
			d[i] = f.K * visits[i]
		}
		gamma := f.lineSearch(c, d)
		if gamma <= 1e-12 {
			break // the oracle direction no longer improves: converged
		}
		for i := range c {
			c[i] = (1-gamma)*c[i] + gamma*d[i]
		}
	}
	return c
}

// lineSearch maximizes the concave objective along the segment c→d by
// ternary search (the objective is piecewise-linear concave in γ, so 60
// halvings localize the maximizer to machine precision).
func (f *fwProblem) lineSearch(c, d []float64) float64 {
	obj := func(gamma float64) float64 {
		var s float64
		for i := range c {
			s += f.hull[i].eval((1-gamma)*c[i] + gamma*d[i])
		}
		return s
	}
	lo, hi := 0.0, 1.0
	for it := 0; it < 60; it++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if obj(m1) < obj(m2) {
			lo = m1
		} else {
			hi = m2
		}
	}
	gamma := (lo + hi) / 2
	if obj(gamma) <= obj(0)+1e-12 {
		return 0
	}
	return gamma
}

// buildFW constructs the Frank-Wolfe problem over the concave hulls of the
// sampled utilities.
func buildFW(region *Region, cfg Config, maxEffort float64, pwls []milp.PWL) *fwProblem {
	f := &fwProblem{region: region, T: cfg.T, K: cfg.K, maxEffort: maxEffort}
	f.hull = make([]concaveHull, len(pwls))
	for i, p := range pwls {
		f.hull[i] = newConcaveHull(p.Xs, p.Ys)
	}
	return f
}
