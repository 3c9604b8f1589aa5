package gp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"paws/internal/mat/exptest"
	"paws/internal/ml"
	"paws/internal/rng"
	"paws/internal/stats"
)

// wideData draws m rows of k features with a logistic label on a few of
// them, so a fitted GP has both confident and uncertain regions.
func wideData(m, k int, seed int64) ([][]float64, []int) {
	r := rng.New(seed)
	X := make([][]float64, m)
	y := make([]int, m)
	for i := range X {
		row := make([]float64, k)
		for j := range row {
			row[j] = r.Normal(float64(j%3), 1+float64(j%4)/2)
		}
		X[i] = row
		if r.Bernoulli(stats.Logistic(1.5*row[0] - row[1%k] + 0.5*row[k-1] - 1)) {
			y[i] = 1
		}
	}
	return X, y
}

// outputDigest hashes the bits of a batch's probabilities, then its
// variances.
func outputDigest(ps, vs []float64) string {
	sum := sha256.New()
	var buf [8]byte
	for _, s := range [][]float64{ps, vs} {
		for _, v := range s {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			sum.Write(buf[:])
		}
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// TestPredictFlatPinned pins every output bit of PredictWithVarianceFlat
// for one fixed 22-feature GP (150 training rows) and 200 fixed queries:
// six full 32-query panels and a short last one. The digest was recorded
// before the panel kernels replaced the per-query loops, so any change to
// the summation order of the distances, the means, the forward
// substitution or v·v shows here, and so does an exp kernel that rounds
// unlike math.Exp. math.Exp's bits depend on which path of its amd64
// algorithm it takes, so there is one digest per path (the plain one
// recorded under GODEBUG=cpu.fma=off, before the exp kernel), and the
// test asks exptest which path math.Exp takes here: exactly one applies.
func TestPredictFlatPinned(t *testing.T) {
	want := "d29fbb58ecd026c836ebddd532cf5dfa8c1ec2b9e11378c3fd4b9e603d18b1eb"
	if exptest.MathExpFused(t) {
		want = "1b37e649293211408382f8cbba84a4fd88777f7846d50e24ef91bbf6a7637f7f"
	}
	X, y := wideData(400, 22, 21)
	g := New(Config{MaxTrain: 150, Seed: 5})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if g.TrainSize() != 150 {
		t.Fatalf("train size %d, want 150", g.TrainSize())
	}
	Q, _ := wideData(200, 22, 22)
	ps, vs := g.PredictWithVarianceFlat(ml.MatrixFromRows(Q))
	if got := outputDigest(ps, vs); got != want {
		t.Errorf("PredictWithVarianceFlat digest = %s, want %s", got, want)
	}
}
