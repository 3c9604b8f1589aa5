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

// fitDigest hashes the bits of a fitted GP's length scale, its Laplace
// mode f̂ and the row-major factor of B = I + W^{1/2} K W^{1/2}, upper
// zeros included: the state Fit leaves that predictions and saved models
// read.
func fitDigest(g *GP) string {
	sum := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		sum.Write(buf[:])
	}
	put(g.ls)
	for _, v := range g.fhat {
		put(v)
	}
	r, c := g.chB.L().Dims()
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			put(g.chB.L().At(i, j))
		}
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// duplicated returns the m rows of wideData(m, k, seed) with each of the
// last m/2 replaced by a copy of one of the first m/2, label included, as
// a balanced bag's bootstrap repeats its positives: every copy sits at
// distance zero from its original.
func duplicated(m, k int, seed int64) ([][]float64, []int) {
	X, y := wideData(m, k, seed)
	r := rng.New(seed + 1)
	for i := m / 2; i < m; i++ {
		j := r.Intn(m / 2)
		X[i] = append([]float64(nil), X[j]...)
		y[i] = y[j]
	}
	return X, y
}

// TestFitPinned pins every bit of the state Fit leaves for fits of
// several shapes: fewer training rows than one 32-wide panel; an odd and
// an even number of row pairs, so the median length scale is one order
// statistic or the mean of two; exact duplicate rows, whose zero
// distances tie; rows that are mostly one point, where the median
// distance is zero and the length scale falls back to 1; and more than
// 632 rows, where the median runs over every second pair of a row. The
// digests were recorded with the row-form factorization and the sorted
// median heuristic, one per path of math.Exp (see TestPredictFlatPinned).
func TestFitPinned(t *testing.T) {
	fused := exptest.MathExpFused(t)
	same := func(m, k int, seed int64) func() ([][]float64, []int) {
		return func() ([][]float64, []int) {
			X, y := wideData(m, k, seed)
			for i := 3; i < m; i++ {
				X[i] = X[0]
			}
			return X, y
		}
	}
	for _, c := range []struct {
		name        string
		data        func() ([][]float64, []int)
		n           int
		plain, fmad string
	}{
		{"n=20", func() ([][]float64, []int) { return wideData(20, 5, 31) }, 20,
			"8a929d2adf224ebb4382b66a69c8dd66699e30f6785f43be8fa2e9e1a87fbe9c",
			"99ff7d6510326b19242d25430223be83b0725d6cd510019b56cca8b6e84906fb"},
		{"n=50 odd pairs", func() ([][]float64, []int) { return wideData(50, 7, 32) }, 50,
			"8a083f6be6a3f3171ac5138e5d6857771c956bbde51ee14dd6287dc8d84ac0aa",
			"f449bb0e60134c06028aad9b18e69a3e5a9ec9fe4c63edf00356df7dd36a21eb"},
		{"n=120 even pairs", func() ([][]float64, []int) { return wideData(120, 12, 33) }, 120,
			"9ef7c2b969b6a8bf5a1f210ad3bf8b2f753da93e9d5ebca2aad14a64f7bc4cff",
			"7f35b8dc118cec3d10dab728cb44822c15a70345627a144f184dcf423bb0d6c3"},
		{"n=90 duplicates", func() ([][]float64, []int) { return duplicated(90, 9, 34) }, 90,
			"e3904297d023a4b73854512383448d73baf46b68375949576efa6b3409df2e99",
			"7d6c5a187db4ea0ca5d72ebfed21c4a499b0efcafbfa9e9edb30f967aad67922"},
		{"n=40 one point", same(40, 3, 35), 40,
			"4d5600df2d0b16a64327fd375ca98cfbf2489214c58e8de971ee9534683a0da0",
			"0348ff050f91e41da494902351d5e1eae0f1a7ffa1115644c1d79560d0927c75"},
		{"n=640 strided", func() ([][]float64, []int) { return wideData(640, 4, 36) }, 640,
			"6315d9afb6ad2c1bb38316ec3220d8deeadd9d322d26358eb7a29d3056df4363",
			"57958735248b4f23e39598c34ea0708f889ac7e5052aad2da4b9c3bdede46274"},
	} {
		X, y := c.data()
		g := New(Config{MaxTrain: c.n, Seed: 1})
		if err := g.Fit(X, y); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if g.TrainSize() != c.n {
			t.Fatalf("%s: train size %d, want %d", c.name, g.TrainSize(), c.n)
		}
		want := c.plain
		if fused {
			want = c.fmad
		}
		if got := fitDigest(g); got != want {
			t.Errorf("%s: fit digest = %s, want %s (ls %v)", c.name, got, want, g.ls)
		}
	}
}
