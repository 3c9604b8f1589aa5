package main

import (
	"math"
	"testing"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.median and statistics.quantiles(xs, n=4).
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 5}, 0, 3, 6},
		{[]float64{3.5, 1.25, 9, 2, 7}, 1.625, 3.5, 8},
		{[]float64{2, 2, 2}, 2, 2, 2},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); m != c.m || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: got q1 %v median %v q3 %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if xs := []float64{3, 1, 2}; median(xs) != 2 || xs[0] != 3 {
		t.Error("median must not reorder its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if q1, q3 := quartiles([]float64{4}); q1 != 4 || q3 != 4 {
		t.Errorf("quartiles of one value: %v %v", q1, q3)
	}
}
