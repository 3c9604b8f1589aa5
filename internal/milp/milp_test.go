package milp

import (
	"math"
	"testing"

	"paws/internal/lp"
)

func TestKnapsack(t *testing.T) {
	// max 10a + 13b + 7c s.t. 3a + 4b + 2c ≤ 6, binary → a=0,b=1,c=1 (20).
	p := lp.NewProblem()
	a := p.AddVariable(10, 0, 1)
	b := p.AddVariable(13, 0, 1)
	c := p.AddVariable(7, 0, 1)
	p.AddConstraint([]int{a, b, c}, []float64{3, 4, 2}, lp.LE, 6)
	res, err := Solve(p, []int{a, b, c}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.Optimal {
		t.Fatalf("status %v", res.Status)
	}
	if math.Abs(res.Obj-20) > 1e-6 {
		t.Fatalf("obj = %v want 20", res.Obj)
	}
	for _, j := range []int{a, b, c} {
		if frac(res.X[j]) > 1e-6 {
			t.Fatalf("non-integral solution: %v", res.X)
		}
	}
}

func TestIntegerVsRelaxation(t *testing.T) {
	// max x s.t. 2x ≤ 3, x integer → x=1 (relaxation 1.5).
	p := lp.NewProblem()
	x := p.AddVariable(1, 0, 10)
	p.AddConstraint([]int{x}, []float64{2}, lp.LE, 3)
	res, err := Solve(p, []int{x}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Obj-1) > 1e-6 {
		t.Fatalf("obj = %v want 1", res.Obj)
	}
}

func TestInfeasibleMILP(t *testing.T) {
	p := lp.NewProblem()
	x := p.AddVariable(1, 0, 1)
	p.AddConstraint([]int{x}, []float64{2}, lp.GE, 1) // x ≥ 0.5
	p.AddConstraint([]int{x}, []float64{2}, lp.LE, 1.5)
	// 0.5 ≤ x ≤ 0.75 has no integer point.
	_, err := Solve(p, []int{x}, 10000)
	if err != ErrNoIncumbent {
		t.Fatalf("expected ErrNoIncumbent, got %v", err)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// max 2x + y, x binary, y ≤ 1.5 continuous, x + y ≤ 2 → x=1, y=1.
	p := lp.NewProblem()
	x := p.AddVariable(2, 0, 1)
	y := p.AddVariable(1, 0, 1.5)
	p.AddConstraint([]int{x, y}, []float64{1, 1}, lp.LE, 2)
	res, err := Solve(p, []int{x}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Obj-3) > 1e-6 {
		t.Fatalf("obj = %v want 3", res.Obj)
	}
}

func TestIntVarOutOfRange(t *testing.T) {
	p := lp.NewProblem()
	p.AddVariable(1, 0, 1)
	if _, err := Solve(p, []int{5}, 10000); err == nil {
		t.Fatal("expected range error")
	}
}

func TestNodeLimitReported(t *testing.T) {
	// A problem with enough binaries that 1 node cannot close the gap.
	p := lp.NewProblem()
	var vars []int
	for i := 0; i < 12; i++ {
		vars = append(vars, p.AddVariable(1+0.1*float64(i%3), 0, 1))
	}
	coef := make([]float64, len(vars))
	for i := range coef {
		coef[i] = 1 + 0.37*float64(i%5)
	}
	p.AddConstraint(vars, coef, lp.LE, 7.3)
	res, err := Solve(p, vars, 1)
	if err == ErrNoIncumbent {
		return // acceptable: no incumbent in 1 node
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.IterLimit && res.Gap < 0 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestNewPWLValidation(t *testing.T) {
	if _, err := NewPWL([]float64{0}, []float64{0}); err == nil {
		t.Fatal("expected too-few-points error")
	}
	if _, err := NewPWL([]float64{0, 1}, []float64{0}); err == nil {
		t.Fatal("expected mismatch error")
	}
	if _, err := NewPWL([]float64{0, 0}, []float64{0, 1}); err == nil {
		t.Fatal("expected non-increasing error")
	}
	if _, err := NewPWL([]float64{0, 1}, []float64{0, 1}); err != nil {
		t.Fatal(err)
	}
}

func TestPWLEval(t *testing.T) {
	f, err := NewPWL([]float64{0, 1, 3}, []float64{0, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 1}, {1, 2}, {2, 1.5}, {3, 1}, {5, 1},
	}
	for _, c := range cases {
		if got := f.Eval(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Eval(%v) = %v want %v", c.x, got, c.want)
		}
	}
}

func TestPWLIsConcave(t *testing.T) {
	conc, _ := NewPWL([]float64{0, 1, 2}, []float64{0, 1, 1.5})
	if !conc.IsConcave(1e-9) {
		t.Fatal("should be concave")
	}
	nonc, _ := NewPWL([]float64{0, 1, 2}, []float64{0, 0.1, 2})
	if nonc.IsConcave(1e-9) {
		t.Fatal("should not be concave")
	}
}

func TestPWLConcaveMaximizationNoBinaries(t *testing.T) {
	// max f(x), f concave with peak at x=2 (f = min(x, 4-x) shape).
	p := lp.NewProblem()
	x := p.AddVariable(0, 0, 4)
	f, _ := NewPWL([]float64{0, 2, 4}, []float64{0, 2, 0})
	yv, bins, err := f.AddToProblem(p, x)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 0 || f.NumBinaries() != 0 {
		t.Fatalf("concave maximization should not need binaries, got %d (NumBinaries %d)", len(bins), f.NumBinaries())
	}
	res, err := Solve(p, nil, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Obj-2) > 1e-6 || math.Abs(res.X[yv]-2) > 1e-6 {
		t.Fatalf("obj = %v, y = %v, want 2", res.Obj, res.X[yv])
	}
	if math.Abs(res.X[x]-2) > 1e-6 {
		t.Fatalf("x = %v want 2", res.X[x])
	}
}

func TestPWLNonConcaveNeedsBinaries(t *testing.T) {
	// f has a dip: without SOS2 adjacency the LP would "cheat" by mixing
	// non-adjacent breakpoints. Constrain x = 1 where true f(1) = 0.1 but the
	// relaxation could claim (f(0)+f(2))/2 = 1.
	p := lp.NewProblem()
	x := p.AddVariable(0, 0, 2)
	p.AddConstraint([]int{x}, []float64{1}, lp.EQ, 1)
	f, _ := NewPWL([]float64{0, 1, 2}, []float64{0, 0.1, 2})
	yv, bins, err := f.AddToProblem(p, x)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) == 0 || len(bins) != f.NumBinaries() {
		t.Fatalf("non-concave function must get one binary per segment, got %d (NumBinaries %d)", len(bins), f.NumBinaries())
	}
	res, err := Solve(p, bins, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[yv]-0.1) > 1e-6 {
		t.Fatalf("y = %v want 0.1 (SOS2 adjacency enforced)", res.X[yv])
	}
}

func TestPWLSumOfTwoFunctions(t *testing.T) {
	// Two PWL objectives over a shared budget: max f(x1) + f(x2),
	// x1 + x2 ≤ 3, f concave sqrt-like → split the budget.
	p := lp.NewProblem()
	x1 := p.AddVariable(0, 0, 3)
	x2 := p.AddVariable(0, 0, 3)
	p.AddConstraint([]int{x1, x2}, []float64{1, 1}, lp.LE, 3)
	xs := []float64{0, 1, 2, 3}
	ys := []float64{0, 1, 1.4, 1.7}
	f, _ := NewPWL(xs, ys)
	if _, _, err := f.AddToProblem(p, x1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.AddToProblem(p, x2); err != nil {
		t.Fatal(err)
	}
	res, err := Solve(p, nil, 10000)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: x1 = 2, x2 = 1 (or symmetric) → 1.4 + 1 = 2.4.
	if math.Abs(res.Obj-2.4) > 1e-6 {
		t.Fatalf("obj = %v want 2.4", res.Obj)
	}
}
