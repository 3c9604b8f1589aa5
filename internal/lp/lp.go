// Package lp implements a bounded-variable revised-simplex linear-program
// solver. It is the optimization substrate beneath the patrol-planning MILP
// (problem P in Section VI of the paper), standing in for the commercial
// solver the authors used.
//
// Problems are stated as
//
//	maximize    cᵀx
//	subject to  a_iᵀx {≤,=,≥} b_i
//	            lo ≤ x ≤ hi        (lo finite; hi may be +Inf)
//
// Problems are stored by column: each variable keeps its objective
// coefficient, bounds and constraint entries (in row order), which is the
// form the simplex prices and pivots in, so a solve reads the caller's
// columns directly. WithBounds gives branch and bound a view of one problem
// under tightened bounds without copying its constraints.
//
// The implementation is a two-phase primal simplex with an explicit dense
// basis inverse, Dantzig pricing with a Bland anti-cycling fallback, and
// periodic refactorization.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Op is a constraint relation.
type Op int

const (
	// LE is a_iᵀx ≤ b_i.
	LE Op = iota
	// EQ is a_iᵀx = b_i.
	EQ
	// GE is a_iᵀx ≥ b_i.
	GE
)

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective is unbounded above.
	Unbounded
	// IterLimit means the iteration cap was reached.
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// ErrBadModel is returned for structurally invalid problems.
var ErrBadModel = errors.New("lp: invalid model")

// entry is one nonzero of a column: its row and coefficient.
type entry struct {
	row int
	val float64
}

// Problem is a linear program under construction, stored by column.
type Problem struct {
	obj  []float64
	lo   []float64
	hi   []float64
	cols [][]entry // cols[j] holds variable j's nonzeros in row order
	ops  []Op
	rhs  []float64
}

// NewProblem returns an empty maximization problem.
func NewProblem() *Problem { return &Problem{} }

// AddVariable appends a variable with the given objective coefficient and
// bounds, returning its index. The lower bound must be finite.
func (p *Problem) AddVariable(obj, lo, hi float64) int {
	p.obj = append(p.obj, obj)
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	p.cols = append(p.cols, nil)
	return len(p.obj) - 1
}

// NumVariables returns the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.obj) }

// Bounds returns the bounds of variable j.
func (p *Problem) Bounds(j int) (lo, hi float64) { return p.lo[j], p.hi[j] }

// WithBounds returns p with the variable bounds lo and hi (one entry per
// variable) in place of its own. The result shares p's objective and
// constraints and uses lo and hi without copying them, so neither problem
// may gain variables or constraints afterwards.
func (p *Problem) WithBounds(lo, hi []float64) *Problem {
	if len(lo) != len(p.obj) || len(hi) != len(p.obj) {
		panic(fmt.Sprintf("lp: WithBounds got %d/%d bounds for %d variables", len(lo), len(hi), len(p.obj)))
	}
	q := *p
	q.lo, q.hi = lo, hi
	return &q
}

// AddConstraint appends the constraint Σ coef[k]·x[idx[k]] op rhs.
// Duplicate indices are accumulated in idx order; only the listed
// variables' columns are touched.
func (p *Problem) AddConstraint(idx []int, coef []float64, op Op, rhs float64) error {
	if len(idx) != len(coef) {
		return fmt.Errorf("%w: %d indices vs %d coefficients", ErrBadModel, len(idx), len(coef))
	}
	for _, j := range idx {
		if j < 0 || j >= len(p.obj) {
			return fmt.Errorf("%w: variable %d out of range", ErrBadModel, j)
		}
	}
	i := len(p.rhs)
	for k, j := range idx {
		if c := p.cols[j]; len(c) > 0 && c[len(c)-1].row == i {
			c[len(c)-1].val += coef[k]
		} else {
			p.cols[j] = append(c, entry{i, coef[k]})
		}
	}
	// Coefficients that cancel to zero leave no entry.
	for _, j := range idx {
		if c := p.cols[j]; len(c) > 0 && c[len(c)-1].row == i && c[len(c)-1].val == 0 {
			p.cols[j] = c[:len(c)-1]
		}
	}
	p.ops = append(p.ops, op)
	p.rhs = append(p.rhs, rhs)
	return nil
}

// Solution is the result of a solve.
type Solution struct {
	Status Status
	// X holds the values of the original (caller-added) variables.
	X []float64
	// Obj is the objective value cᵀX.
	Obj float64
	// Iterations is the total simplex iterations used.
	Iterations int
}

const (
	feasTol  = 1e-7
	optTol   = 1e-7
	pivotTol = 1e-9
	// maxIter caps the simplex iterations of one Solve, both phases
	// together; a solve that reaches it reports IterLimit.
	maxIter = 50000
)

// Solve runs the two-phase simplex.
func Solve(p *Problem) (Solution, error) {
	n0 := len(p.obj)
	if n0 == 0 {
		return Solution{Status: Optimal, X: nil, Obj: 0}, nil
	}
	for j, lo := range p.lo {
		if math.IsInf(lo, -1) || math.IsNaN(lo) {
			return Solution{}, fmt.Errorf("%w: variable %d has non-finite lower bound", ErrBadModel, j)
		}
		if p.hi[j] < lo {
			return Solution{Status: Infeasible}, nil
		}
	}
	s := newSimplex(p)
	sol := s.run()
	if sol.Status == Optimal || sol.Status == IterLimit {
		sol.X = append([]float64(nil), s.x[:n0]...)
		for j, c := range p.obj {
			sol.Obj += c * sol.X[j]
		}
	}
	return sol, nil
}

// simplex is the working state: the problem in computational standard form
// (equality rows with slack columns appended, then artificial columns).
type simplex struct {
	m, n int // constraints, structural+slack columns (artificials beyond n)
	cols [][]entry
	lo   []float64
	hi   []float64
	obj  []float64 // structural objective; slack and artificial columns cost 0
	rhs  []float64

	basis   []int // basis[i] = column basic in row i
	inBasis []int // inBasis[j] = row index or -1
	atUpper []bool
	x       []float64
	binv    [][]float64

	iters int
}

func newSimplex(p *Problem) *simplex {
	m := len(p.rhs)
	s := &simplex{m: m, obj: p.obj, rhs: p.rhs}
	// Structural columns are p's own, read-only; slack and artificial
	// columns are appended after them.
	n0 := len(p.obj)
	s.cols = make([][]entry, n0, n0+m)
	copy(s.cols, p.cols)
	s.lo = append([]float64(nil), p.lo...)
	s.hi = append([]float64(nil), p.hi...)
	// Slack columns.
	for i, op := range p.ops {
		switch op {
		case LE:
			s.addColumn(entry{i, 1})
		case GE:
			s.addColumn(entry{i, -1})
		}
	}
	s.n = len(s.cols)
	return s
}

// addColumn appends a column with the single nonzero e and bounds [0, +Inf).
func (s *simplex) addColumn(e entry) int {
	s.cols = append(s.cols, []entry{e})
	s.lo = append(s.lo, 0)
	s.hi = append(s.hi, math.Inf(1))
	return len(s.cols) - 1
}

// run executes phase 1 then phase 2.
func (s *simplex) run() Solution {
	// Initial nonbasic values: at lower bound (finite by construction).
	s.x = append([]float64(nil), s.lo...)
	s.atUpper = make([]bool, s.n)
	// Residuals decide artificial signs.
	resid := make([]float64, s.m)
	copy(resid, s.rhs)
	for j := 0; j < s.n; j++ {
		if s.x[j] == 0 {
			continue
		}
		for _, e := range s.cols[j] {
			resid[e.row] -= e.val * s.x[j]
		}
	}
	// Artificial columns form the initial basis. Each artificial carries the
	// sign of its row's residual, so the initial basis matrix is diag(sign)
	// and its inverse is the same diagonal.
	s.basis = make([]int, s.m)
	phase1Obj := make([]float64, s.n, s.n+s.m)
	s.binv = make([][]float64, s.m)
	for i := 0; i < s.m; i++ {
		sign := 1.0
		if resid[i] < 0 {
			sign = -1
		}
		s.basis[i] = s.addColumn(entry{i, sign})
		phase1Obj = append(phase1Obj, -1) // maximize −Σ artificials
		s.x = append(s.x, math.Abs(resid[i]))
		s.atUpper = append(s.atUpper, false)
		s.binv[i] = make([]float64, s.m)
		s.binv[i][i] = sign
	}
	s.inBasis = make([]int, len(s.cols))
	for j := range s.inBasis {
		s.inBasis[j] = -1
	}
	for i, j := range s.basis {
		s.inBasis[j] = i
	}

	// Phase 1.
	st := s.iterate(phase1Obj, true)
	if st == IterLimit {
		return Solution{Status: IterLimit, Iterations: s.iters}
	}
	var infeas float64
	for i := 0; i < s.m; i++ {
		if s.basis[i] >= s.n { // artificial basic
			infeas += s.x[s.basis[i]]
		}
	}
	if infeas > 1e-6 {
		return Solution{Status: Infeasible, Iterations: s.iters}
	}
	// Pin artificials to zero for phase 2.
	for j := s.n; j < len(s.cols); j++ {
		s.hi[j] = 0
	}
	// Phase 2 objective over all columns (artificials at 0).
	obj2 := make([]float64, len(s.cols))
	copy(obj2, s.obj)
	st = s.iterate(obj2, false)
	return Solution{Status: st, Iterations: s.iters}
}

// iterate runs primal simplex iterations with the given objective until
// optimality, unboundedness, or the iteration cap. Degenerate stalls (long
// runs of zero-step pivots, common on flow polytopes) trigger a temporary
// switch to Bland's rule, which guarantees escape from any cycle.
func (s *simplex) iterate(obj []float64, phase1 bool) Status {
	nAll := len(s.cols)
	sinceRefactor := 0
	consecDegen := 0
	for {
		if s.iters >= maxIter {
			return IterLimit
		}
		s.iters++
		sinceRefactor++
		if sinceRefactor > 100 {
			if err := s.refactorize(); err != nil {
				return IterLimit
			}
			sinceRefactor = 0
		}
		useBland := consecDegen > 40

		// y = c_B B⁻¹.
		y := make([]float64, s.m)
		for i := 0; i < s.m; i++ {
			cb := obj[s.basis[i]]
			if cb == 0 {
				continue
			}
			for k := 0; k < s.m; k++ {
				y[k] += cb * s.binv[i][k]
			}
		}
		// Pricing.
		enter := -1
		var enterDir float64 // +1 entering increases, −1 decreases
		best := 0.0
		for j := 0; j < nAll; j++ {
			if s.inBasis[j] >= 0 {
				continue
			}
			if s.lo[j] == s.hi[j] {
				continue // fixed
			}
			d := obj[j]
			for _, e := range s.cols[j] {
				d -= y[e.row] * e.val
			}
			var score float64
			var dir float64
			if !s.atUpper[j] && d > optTol {
				score, dir = d, 1
			} else if s.atUpper[j] && d < -optTol {
				score, dir = -d, -1
			} else {
				continue
			}
			if useBland {
				enter, enterDir = j, dir
				break
			}
			if score > best {
				best = score
				enter, enterDir = j, dir
			}
		}
		if enter < 0 {
			return Optimal
		}

		// w = B⁻¹ A_enter.
		w := make([]float64, s.m)
		for _, e := range s.cols[enter] {
			for i := 0; i < s.m; i++ {
				if v := s.binv[i][e.row]; v != 0 {
					w[i] += v * e.val
				}
			}
		}

		// Ratio test: x_enter moves by enterDir·t, basic x_Bi -= enterDir·w_i·t.
		// Ties at the minimum ratio are broken toward the largest pivot
		// magnitude (Harris-style), which suppresses degenerate stalls.
		tMax := s.hi[enter] - s.lo[enter] // bound-flip distance
		leave := -1
		leaveToUpper := false
		bestPiv := 0.0
		for i := 0; i < s.m; i++ {
			delta := -enterDir * w[i]
			if math.Abs(delta) < pivotTol {
				continue
			}
			bj := s.basis[i]
			var t float64
			var toUpper bool
			if delta > 0 {
				if math.IsInf(s.hi[bj], 1) {
					continue
				}
				t = (s.hi[bj] - s.x[bj]) / delta
				toUpper = true
			} else {
				t = (s.lo[bj] - s.x[bj]) / delta
				toUpper = false
			}
			if t < -feasTol {
				t = 0
			}
			piv := math.Abs(delta)
			better := t < tMax-1e-9 ||
				(t < tMax+1e-9 && leave >= 0 && piv > bestPiv)
			if better {
				tMax = t
				leave = i
				leaveToUpper = toUpper
				bestPiv = piv
			}
		}
		if math.IsInf(tMax, 1) {
			if phase1 {
				// Phase-1 objective is bounded; numerical trouble.
				return IterLimit
			}
			return Unbounded
		}
		if tMax < 0 {
			tMax = 0
		}
		if tMax > 1e-9 {
			consecDegen = 0
		} else {
			consecDegen++
		}

		// Apply the step.
		s.x[enter] += enterDir * tMax
		for i := 0; i < s.m; i++ {
			s.x[s.basis[i]] -= enterDir * w[i] * tMax
		}
		if leave < 0 {
			// Bound flip: entering variable moved to its opposite bound.
			s.atUpper[enter] = enterDir > 0
			continue
		}
		// Pivot: entering replaces the leaving basic variable.
		out := s.basis[leave]
		s.x[out] = s.lo[out]
		s.atUpper[out] = false
		if leaveToUpper {
			s.x[out] = s.hi[out]
			s.atUpper[out] = true
		}
		s.basis[leave] = enter
		s.inBasis[out] = -1
		s.inBasis[enter] = leave
		// Elementary update of B⁻¹.
		piv := w[leave]
		if math.Abs(piv) < pivotTol {
			if err := s.refactorize(); err != nil {
				return IterLimit
			}
			continue
		}
		inv := 1 / piv
		rowL := s.binv[leave]
		for k := 0; k < s.m; k++ {
			rowL[k] *= inv
		}
		for i := 0; i < s.m; i++ {
			if i == leave || w[i] == 0 {
				continue
			}
			f := w[i]
			ri := s.binv[i]
			for k := 0; k < s.m; k++ {
				ri[k] -= f * rowL[k]
			}
		}
	}
}

// refactorize rebuilds B⁻¹ from the basis columns by Gauss-Jordan and
// recomputes basic variable values from the nonbasic ones.
func (s *simplex) refactorize() error {
	m := s.m
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, 2*m)
	}
	for i, j := range s.basis {
		for _, e := range s.cols[j] {
			a[e.row][i] = e.val
		}
	}
	for i := 0; i < m; i++ {
		a[i][m+i] = 1
	}
	for c := 0; c < m; c++ {
		// Partial pivot.
		p := c
		for i := c + 1; i < m; i++ {
			if math.Abs(a[i][c]) > math.Abs(a[p][c]) {
				p = i
			}
		}
		if math.Abs(a[p][c]) < 1e-12 {
			return errors.New("lp: singular basis")
		}
		a[c], a[p] = a[p], a[c]
		inv := 1 / a[c][c]
		for k := c; k < 2*m; k++ {
			a[c][k] *= inv
		}
		for i := 0; i < m; i++ {
			if i == c || a[i][c] == 0 {
				continue
			}
			f := a[i][c]
			for k := c; k < 2*m; k++ {
				a[i][k] -= f * a[c][k]
			}
		}
	}
	// binv maps: column j basic in row i means B column i is A_{basis[i]};
	// the inverse rows correspond to basis positions.
	for i := 0; i < m; i++ {
		for k := 0; k < m; k++ {
			s.binv[i][k] = a[i][m+k]
		}
	}
	// Recompute basic values: x_B = B⁻¹ (b − N x_N).
	resid := make([]float64, m)
	copy(resid, s.rhs)
	for j := 0; j < len(s.cols); j++ {
		if s.inBasis[j] >= 0 || s.x[j] == 0 {
			continue
		}
		for _, e := range s.cols[j] {
			resid[e.row] -= e.val * s.x[j]
		}
	}
	for i := 0; i < m; i++ {
		var v float64
		for k := 0; k < m; k++ {
			v += s.binv[i][k] * resid[k]
		}
		s.x[s.basis[i]] = v
	}
	return nil
}
