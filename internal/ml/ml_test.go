package ml

import (
	"math"
	"testing"

	"paws/internal/rng"
)

func TestCheckXY(t *testing.T) {
	if err := CheckXY(nil, nil); err != ErrNoData {
		t.Fatal("expected ErrNoData")
	}
	if err := CheckXY([][]float64{{1}}, []int{0, 1}); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if err := CheckXY([][]float64{{1}, {1, 2}}, []int{0, 1}); err == nil {
		t.Fatal("expected ragged row error")
	}
	if err := CheckXY([][]float64{{1}}, []int{2}); err == nil {
		t.Fatal("expected non-binary label error")
	}
	if err := CheckXY([][]float64{{1}, {2}}, []int{0, 1}); err != nil {
		t.Fatalf("valid data rejected: %v", err)
	}
}

func TestStandardizer(t *testing.T) {
	X := [][]float64{{1, 10, 5}, {3, 20, 5}, {5, 30, 5}}
	s, err := FitStandardizer(X)
	if err != nil {
		t.Fatal(err)
	}
	Z := s.TransformAll(X)
	// Column means ≈ 0, variance ≈ 1 for non-constant columns.
	for j := 0; j < 2; j++ {
		var mean, varr float64
		for i := range Z {
			mean += Z[i][j]
		}
		mean /= 3
		for i := range Z {
			d := Z[i][j] - mean
			varr += d * d
		}
		varr /= 3
		if math.Abs(mean) > 1e-12 || math.Abs(varr-1) > 1e-9 {
			t.Fatalf("column %d: mean %v var %v", j, mean, varr)
		}
	}
	// Constant column: centered, not NaN.
	for i := range Z {
		if Z[i][2] != 0 {
			t.Fatalf("constant column should map to 0, got %v", Z[i][2])
		}
	}
	if _, err := FitStandardizer(nil); err == nil {
		t.Fatal("expected error on empty input")
	}
}

func TestKFold(t *testing.T) {
	r := rng.New(1)
	folds := KFold(10, 3, r)
	if len(folds) != 3 {
		t.Fatalf("folds = %d want 3", len(folds))
	}
	seen := map[int]int{}
	for _, f := range folds {
		for _, i := range f {
			seen[i]++
		}
	}
	if len(seen) != 10 {
		t.Fatalf("folds must cover all indices, got %d", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d appears %d times", i, c)
		}
	}
	// k > n clamps.
	folds = KFold(2, 5, r)
	if len(folds) != 2 {
		t.Fatalf("k>n should clamp to n, got %d folds", len(folds))
	}
	// k <= 0 clamps to 1.
	folds = KFold(4, 0, r)
	if len(folds) != 1 {
		t.Fatal("k<=0 should clamp to 1")
	}
}

func TestTrainIndices(t *testing.T) {
	tr := TrainIndices(5, []int{1, 3})
	want := []int{0, 2, 4}
	if len(tr) != 3 {
		t.Fatalf("TrainIndices = %v", tr)
	}
	for i, v := range want {
		if tr[i] != v {
			t.Fatalf("TrainIndices = %v want %v", tr, want)
		}
	}
}

func TestSubset(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []int{0, 1, 0}
	sx, sy := Subset(X, y, []int{2, 0})
	if sx[0][0] != 3 || sx[1][0] != 1 || sy[0] != 0 || sy[1] != 0 {
		t.Fatal("Subset wrong")
	}
}

func TestClassCounts(t *testing.T) {
	neg, pos := ClassCounts([]int{0, 1, 1, 0, 1})
	if neg != 2 || pos != 3 {
		t.Fatalf("counts = %d,%d", neg, pos)
	}
}
