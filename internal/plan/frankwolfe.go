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
	// hull[i] is the concave envelope of cell i's sampled utility; beyond
	// its last breakpoint marginal utility is zero.
	hull []concaveHull
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

// bestPath is the linear maximization oracle: the per-cell visit counts of
// the closed walk that collects the most node weight w (longestWalk), or
// all zeros when no walk returns to the post.
func (f *fwProblem) bestPath(w []float64) []float64 {
	visits := make([]float64, f.region.NumCells())
	if walk := longestWalk(f.region, w, f.T); walk != nil {
		for _, c := range walk[1:] {
			visits[c]++
		}
	}
	return visits
}

// longestWalk runs the longest-path DP over the time-unrolled DAG: T moves
// from the post, each a self-loop or a region adjacency, collecting w[v] on
// every visit at layers 1..T. It returns the region-local cells of the best
// walk that ends at the post, layer by layer (T+1 entries), or nil when no
// walk returns to the post.
func longestWalk(region *Region, w []float64, T int) []int {
	n := region.NumCells()
	negInf := math.Inf(-1)
	// score[v] at the current layer; parent[t*n+v] for the backtrack.
	score := make([]float64, n)
	next := make([]float64, n)
	parent := make([]int32, (T+1)*n)
	for v := range score {
		score[v] = negInf
	}
	score[0] = 0 // post at layer 0
	for t := 1; t <= T; t++ {
		par := parent[t*n : (t+1)*n]
		for v := 0; v < n; v++ {
			next[v] = negInf
			par[v] = -1
		}
		for u := 0; u < n; u++ {
			if score[u] == negInf {
				continue
			}
			// Self-loop.
			if s := score[u] + w[u]; s > next[u] {
				next[u] = s
				par[u] = int32(u)
			}
			for _, v := range region.Neighbors[u] {
				if s := score[u] + w[v]; s > next[v] {
					next[v] = s
					par[v] = int32(u)
				}
			}
		}
		score, next = next, score
	}
	if score[0] == negInf {
		return nil
	}
	// Backtrack from the post at layer T.
	cells := make([]int, T+1)
	for t := T; t >= 1; t-- {
		cells[t-1] = int(parent[t*n+cells[t]])
	}
	return cells
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
func buildFW(region *Region, cfg Config, pwls []milp.PWL) *fwProblem {
	f := &fwProblem{region: region, T: cfg.T, K: cfg.K}
	f.hull = make([]concaveHull, len(pwls))
	for i, p := range pwls {
		f.hull[i] = newConcaveHull(p.Xs, p.Ys)
	}
	return f
}
