package ml

import (
	"math"
	"slices"
	"sort"
	"testing"

	"paws/internal/rng"
)

// TestTrainSetOrder checks each feature's order against a stable comparison
// sort by value: ascending, ties (±0 among them) in ascending row order.
func TestTrainSetOrder(t *testing.T) {
	r := rng.New(3)
	discrete := []float64{-math.MaxFloat64, -2, -1e-300, math.Copysign(0, -1), 0, 5e-324, 0.5, 2, math.MaxFloat64}
	X := make([][]float64, 500)
	for i := range X {
		X[i] = []float64{
			discrete[r.Intn(len(discrete))],
			r.NormFloat64(),
			float64(r.Intn(3)),
			7,
		}
	}
	order := NewTrainSet(X, make([]int, len(X))).Order()
	if len(order) != len(X[0]) {
		t.Fatalf("%d orders for %d features", len(order), len(X[0]))
	}
	for f, got := range order {
		want := make([]int32, len(X))
		for i := range want {
			want[i] = int32(i)
		}
		sort.SliceStable(want, func(a, b int) bool { return X[want[a]][f] < X[want[b]][f] })
		if !slices.Equal(got, want) {
			t.Fatalf("feature %d: order %v, want %v", f, got[:10], want[:10])
		}
	}
}
