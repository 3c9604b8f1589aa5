package lp

import (
	"math"
	"testing"
	"testing/quick"

	"paws/internal/rng"
)

func solveOK(t *testing.T, p *Problem) Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	return sol
}

func TestSimpleLP(t *testing.T) {
	// max 3x + 2y s.t. x + y ≤ 4, x + 3y ≤ 6, x,y ≥ 0 → x=4, y=0, obj 12.
	p := NewProblem()
	x := p.AddVariable(3, 0, math.Inf(1))
	y := p.AddVariable(2, 0, math.Inf(1))
	if err := p.AddConstraint([]int{x, y}, []float64{1, 1}, LE, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]int{x, y}, []float64{1, 3}, LE, 6); err != nil {
		t.Fatal(err)
	}
	sol := solveOK(t, p)
	if math.Abs(sol.Obj-12) > 1e-6 {
		t.Fatalf("obj = %v want 12", sol.Obj)
	}
	if math.Abs(sol.X[x]-4) > 1e-6 || math.Abs(sol.X[y]) > 1e-6 {
		t.Fatalf("X = %v", sol.X)
	}
}

func TestInteriorOptimum(t *testing.T) {
	// max x + y s.t. 2x + y ≤ 4, x + 2y ≤ 4 → x=y=4/3, obj 8/3.
	p := NewProblem()
	x := p.AddVariable(1, 0, math.Inf(1))
	y := p.AddVariable(1, 0, math.Inf(1))
	p.AddConstraint([]int{x, y}, []float64{2, 1}, LE, 4)
	p.AddConstraint([]int{x, y}, []float64{1, 2}, LE, 4)
	sol := solveOK(t, p)
	if math.Abs(sol.Obj-8.0/3) > 1e-6 {
		t.Fatalf("obj = %v want %v", sol.Obj, 8.0/3)
	}
}

func TestEqualityAndGE(t *testing.T) {
	// max x + 2y s.t. x + y = 3, y ≥ 1, x ≥ 0, y ≤ 2 → y=2, x=1, obj 5.
	p := NewProblem()
	x := p.AddVariable(1, 0, math.Inf(1))
	y := p.AddVariable(2, 0, 2)
	p.AddConstraint([]int{x, y}, []float64{1, 1}, EQ, 3)
	p.AddConstraint([]int{y}, []float64{1}, GE, 1)
	sol := solveOK(t, p)
	if math.Abs(sol.Obj-5) > 1e-6 {
		t.Fatalf("obj = %v want 5", sol.Obj)
	}
}

func TestUpperBoundsRespected(t *testing.T) {
	// max x s.t. x ≤ 10 via variable bound only.
	p := NewProblem()
	x := p.AddVariable(1, 0, 7.5)
	_ = x
	sol := solveOK(t, p)
	if math.Abs(sol.Obj-7.5) > 1e-9 {
		t.Fatalf("obj = %v want 7.5", sol.Obj)
	}
}

func TestNonzeroLowerBounds(t *testing.T) {
	// min x + y (max −x−y) with x ≥ 2, y ≥ 3, x+y ≥ 6 → obj −6 at (3,3) or (2,4)…
	p := NewProblem()
	x := p.AddVariable(-1, 2, math.Inf(1))
	y := p.AddVariable(-1, 3, math.Inf(1))
	p.AddConstraint([]int{x, y}, []float64{1, 1}, GE, 6)
	sol := solveOK(t, p)
	if math.Abs(sol.Obj+6) > 1e-6 {
		t.Fatalf("obj = %v want -6", sol.Obj)
	}
	if sol.X[x] < 2-1e-9 || sol.X[y] < 3-1e-9 {
		t.Fatalf("bounds violated: %v", sol.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(1, 0, math.Inf(1))
	p.AddConstraint([]int{x}, []float64{1}, LE, 1)
	p.AddConstraint([]int{x}, []float64{1}, GE, 2)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v want infeasible", sol.Status)
	}
}

func TestInfeasibleBounds(t *testing.T) {
	p := NewProblem()
	p.AddVariable(1, 5, 2) // lo > hi
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(1, 0, math.Inf(1))
	y := p.AddVariable(0, 0, math.Inf(1))
	p.AddConstraint([]int{x, y}, []float64{1, -1}, LE, 1)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v want unbounded", sol.Status)
	}
}

func TestEmptyProblem(t *testing.T) {
	sol, err := Solve(NewProblem())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Obj != 0 {
		t.Fatalf("empty problem: %+v", sol)
	}
}

func TestRejectsInfiniteLowerBound(t *testing.T) {
	p := NewProblem()
	p.AddVariable(1, math.Inf(-1), 0)
	if _, err := Solve(p); err == nil {
		t.Fatal("expected error for -inf lower bound")
	}
}

func TestAddConstraintValidation(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(1, 0, 1)
	if err := p.AddConstraint([]int{x}, []float64{1, 2}, LE, 1); err == nil {
		t.Fatal("expected mismatch error")
	}
	if err := p.AddConstraint([]int{99}, []float64{1}, LE, 1); err == nil {
		t.Fatal("expected out-of-range error")
	}
	// Duplicate indices accumulate.
	if err := p.AddConstraint([]int{x, x}, []float64{1, 1}, LE, 4); err != nil {
		t.Fatal(err)
	}
	sol := solveOK(t, p)
	// 2x ≤ 4 with x ≤ 1 bound → x = 1.
	if math.Abs(sol.X[x]-1) > 1e-9 {
		t.Fatalf("X = %v", sol.X)
	}
}

func TestWithBoundsIndependence(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(1, 0, 10)
	p.AddConstraint([]int{x}, []float64{1}, LE, 5)
	q := p.WithBounds([]float64{0}, []float64{1})
	solP := solveOK(t, p)
	solQ := solveOK(t, q)
	if math.Abs(solP.Obj-5) > 1e-6 || math.Abs(solQ.Obj-1) > 1e-6 {
		t.Fatalf("bounds view not independent: %v, %v", solP.Obj, solQ.Obj)
	}
	if lo, hi := p.Bounds(x); lo != 0 || hi != 10 {
		t.Fatalf("WithBounds changed the original's bounds to [%v, %v]", lo, hi)
	}
}

func TestDegenerateLP(t *testing.T) {
	// Highly degenerate: many redundant constraints through the optimum.
	p := NewProblem()
	x := p.AddVariable(1, 0, math.Inf(1))
	y := p.AddVariable(1, 0, math.Inf(1))
	for i := 0; i < 10; i++ {
		p.AddConstraint([]int{x, y}, []float64{1, 1 + float64(i)*1e-9}, LE, 2)
	}
	sol := solveOK(t, p)
	if math.Abs(sol.Obj-2) > 1e-5 {
		t.Fatalf("obj = %v want 2", sol.Obj)
	}
}

// TestTransportationProblem exercises equality-heavy structure like the
// patrol-flow constraints.
func TestTransportationProblem(t *testing.T) {
	// 2 sources (supply 3, 4), 3 sinks (demand 2, 2, 3).
	// Cost matrix (maximize −cost): c = [[1,2,3],[2,1,2]].
	cost := [][]float64{{1, 2, 3}, {2, 1, 2}}
	supply := []float64{3, 4}
	demand := []float64{2, 2, 3}
	p := NewProblem()
	vars := make([][]int, 2)
	for i := 0; i < 2; i++ {
		vars[i] = make([]int, 3)
		for j := 0; j < 3; j++ {
			vars[i][j] = p.AddVariable(-cost[i][j], 0, math.Inf(1))
		}
	}
	for i := 0; i < 2; i++ {
		p.AddConstraint(vars[i], []float64{1, 1, 1}, EQ, supply[i])
	}
	for j := 0; j < 3; j++ {
		p.AddConstraint([]int{vars[0][j], vars[1][j]}, []float64{1, 1}, EQ, demand[j])
	}
	sol := solveOK(t, p)
	// Optimal: x00=2, x02=1, x11=2, x12=2 → cost 2+3+2+4=11.
	if math.Abs(sol.Obj+11) > 1e-6 {
		t.Fatalf("obj = %v want -11", sol.Obj)
	}
	// Flow conservation must hold exactly.
	for i := 0; i < 2; i++ {
		var s float64
		for j := 0; j < 3; j++ {
			s += sol.X[vars[i][j]]
		}
		if math.Abs(s-supply[i]) > 1e-6 {
			t.Fatalf("supply %d violated: %v", i, s)
		}
	}
}

// TestRandomLPsFeasibleBounded property: for random LPs with box bounds and
// ≤ constraints with nonnegative coefficients and rhs, the solution must be
// feasible and optimal ≥ 0 (x=0 is always feasible).
func TestRandomLPsFeasibleBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(6)
		m := 1 + r.Intn(6)
		p := NewProblem()
		for j := 0; j < n; j++ {
			p.AddVariable(r.Float64()*2-0.5, 0, 1+r.Float64()*4)
		}
		rowsIdx := make([][]int, m)
		rowsCoef := make([][]float64, m)
		rowsRHS := make([]float64, m)
		for i := 0; i < m; i++ {
			var idx []int
			var coef []float64
			for j := 0; j < n; j++ {
				if r.Bernoulli(0.7) {
					idx = append(idx, j)
					coef = append(coef, r.Float64())
				}
			}
			if len(idx) == 0 {
				idx = append(idx, 0)
				coef = append(coef, 1)
			}
			rhs := r.Float64() * 3
			p.AddConstraint(idx, coef, LE, rhs)
			rowsIdx[i], rowsCoef[i], rowsRHS[i] = idx, coef, rhs
		}
		sol, err := Solve(p)
		if err != nil || sol.Status != Optimal {
			return false
		}
		// Check feasibility.
		for i := 0; i < m; i++ {
			var s float64
			for k, j := range rowsIdx[i] {
				s += rowsCoef[i][k] * sol.X[j]
			}
			if s > rowsRHS[i]+1e-6 {
				return false
			}
		}
		for j := 0; j < n; j++ {
			lo, hi := p.Bounds(j)
			if sol.X[j] < lo-1e-6 || sol.X[j] > hi+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStatusString(t *testing.T) {
	for _, s := range []Status{Optimal, Infeasible, Unbounded, IterLimit, Status(99)} {
		if s.String() == "" {
			t.Fatal("empty status string")
		}
	}
}
