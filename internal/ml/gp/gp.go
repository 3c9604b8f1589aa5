// Package gp implements a binary Gaussian-process classifier with an RBF
// kernel and the Laplace approximation to the posterior (Rasmussen &
// Williams, "Gaussian Processes for Machine Learning", Algorithms 3.1/3.2).
//
// Unlike the tree and SVM learners, the GP exposes an intrinsic predictive
// variance driven by the density of training data around the query point —
// the uncertainty signal the paper exploits for robust patrol planning
// (Sections IV–VI). Training cost is O(n³), so the PAWS pipeline always bags
// GPs over capped subsamples (Config.MaxTrain).
package gp

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"

	"paws/internal/mat"
	"paws/internal/ml"
	"paws/internal/rng"
	"paws/internal/stats"
)

// Config controls the GP classifier.
type Config struct {
	// MaxTrain caps the training subsample size (default 200). The subsample
	// keeps every positive when possible — the imbalance-aware choice.
	MaxTrain int
	// Seed drives subsampling.
	Seed int64
}

// The kernel and the Laplace fit run with one parameter set. The RBF
// length scale is not among them: Fit resolves it from the data by the
// median heuristic.
const (
	// signalVar is the kernel signal variance σ_f².
	signalVar = 1.0
	// jitter is the diagonal stabilizer added to the kernel.
	jitter = 1e-6
	// maxNewton caps Laplace mode-finding iterations.
	maxNewton = 30
)

// GP is a fitted Gaussian-process classifier.
type GP struct {
	cfg Config
	std *ml.Standardizer

	xf ml.Matrix // standardized training subsample, flat row-major
	ls float64   // resolved length scale

	// Laplace state (R&W notation).
	fhat  []float64 // posterior mode
	grad  []float64 // ∇ log p(y|f̂)
	wSqrt []float64 // W^{1/2} diagonal
	chB   *mat.Cholesky

	// oddsInflation is how much the class-balanced subsample inflated the
	// odds relative to the full training set; predictions divide it back
	// out (the standard undersampling prior correction), so probabilities
	// stay calibrated to the true base rate.
	oddsInflation float64

	fitted bool
}

// New creates an untrained GP classifier.
func New(cfg Config) *GP {
	if cfg.MaxTrain <= 0 {
		cfg.MaxTrain = 200
	}
	return &GP{cfg: cfg}
}

// kernel is the RBF kernel on standardized inputs, pointwise; Fit forms
// the same values a panel at a time (see kernelMatrix).
func (g *GP) kernel(a, b []float64) float64 {
	b = b[:len(a)] // hoist the bounds check out of the distance loop
	var d2 float64
	for j := range a {
		d := a[j] - b[j]
		d2 += d * d
	}
	return signalVar * math.Exp(-d2/(2*g.ls*g.ls))
}

// Fit subsamples, standardizes, resolves the length scale, and runs Newton
// iterations to the Laplace mode.
//
// The kernel matrix K and the length scale come from one pass over the
// training pairs (kernelMatrix). The Newton steps share one buffer for
// B = I + W^{1/2} K W^{1/2} and one Cholesky, whose storage each step's
// factorization reuses; the factor at the mode is the one the GP keeps.
// Every float equals the one the pointwise kernel and the row-form
// factorization would give.
func (g *GP) Fit(X [][]float64, y []int) error {
	if err := ml.CheckXY(X, y); err != nil {
		return err
	}
	idx := subsample(y, g.cfg.MaxTrain, rng.New(g.cfg.Seed))
	sx, sy := ml.Subset(X, y, idx)
	g.oddsInflation = oddsInflation(y, sy)
	std, err := ml.FitStandardizer(sx)
	if err != nil {
		return err
	}
	g.std = std
	g.xf = ml.MatrixFromRows(std.TransformAll(sx))
	var K *mat.Dense
	K, g.ls = kernelMatrix(g.xf)

	// Newton iterations for the posterior mode (R&W Algorithm 3.1).
	n := g.xf.Rows
	B := mat.NewDense(n, n)
	chB := new(mat.Cholesky)
	f := make([]float64, n)
	prevObj := math.Inf(-1)
	for iter := 0; iter < maxNewton; iter++ {
		st, err := newtonAt(K, B, chB, f, sy)
		if err != nil {
			return err
		}
		// b = W f + grad;  a = b − W^{1/2} B⁻¹ W^{1/2} K b;  f = K a.
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			b[i] = st.w[i]*f[i] + st.grad[i]
		}
		kb := K.MulVec(b)
		rhs := make([]float64, n)
		for i := 0; i < n; i++ {
			rhs[i] = st.wsq[i] * kb[i]
		}
		sol := chB.SolveVec(rhs)
		a := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = b[i] - st.wsq[i]*sol[i]
		}
		f = K.MulVec(a)
		// Objective: log p(y|f) − ½ aᵀf (monotone under Newton; used for
		// convergence detection).
		obj := -0.5 * mat.Dot(a, f)
		for i := 0; i < n; i++ {
			yi := 2*float64(sy[i]) - 1
			obj += -math.Log1p(math.Exp(-yi * f[i]))
		}
		if math.Abs(obj-prevObj) < 1e-8*(1+math.Abs(obj)) {
			break
		}
		prevObj = obj
	}
	// Final state at the mode.
	st, err := newtonAt(K, B, chB, f, sy)
	if err != nil {
		return err
	}
	g.fhat = f
	g.grad = st.grad
	g.wSqrt = st.wsq
	g.chB = chB
	g.fitted = true
	return nil
}

// kernelMatrix returns the n×n kernel matrix of X's rows, jitter on its
// diagonal, and the length scale the median heuristic resolves, from one
// pass over the pairs:
//
//  1. mat.SqDistPanel fills the matrix with squared distances, 32 columns
//     at a time, the training rows serving as their own queries. Each
//     sums (x_j − x_i)² in feature order, the bits of the pointwise
//     kernel's (x_i − x_j)², since a difference and its negation round
//     alike; so the matrix is symmetric bit for bit.
//  2. lengthScale takes the median heuristic from the entries above the
//     diagonal.
//  3. mat.ExpPanel maps every entry d² to exp(−d²/(2·ls²)) in place, with
//     weight 0 and scale 1, the whole matrix viewed as rows of 32; that is
//     the kernel's signalVar·math.Exp(−d²/(2·ls²)), as signalVar is 1, and
//     the diagonal then gains the jitter.
func kernelMatrix(X ml.Matrix) (*mat.Dense, float64) {
	const pw = mat.PanelWidth
	n, k := X.Rows, X.Cols
	K := make([]float64, n*n)
	buf := getScratch(n*pw + k*pw + 7)
	defer putScratch(buf)
	work := mat.AlignedPanel(buf, n*pw+k*pw)
	panel, ztBuf := work[:n*pw], work[n*pw:]
	for c0 := 0; c0 < n; c0 += pw {
		w := min(pw, n-c0)
		P, zt := panel[:n*w], ztBuf[:k*w]
		for q := 0; q < w; q++ {
			for j, v := range X.Row(c0 + q) {
				zt[j*w+q] = v
			}
		}
		mat.SqDistPanel(P, X.Data, zt, n, k, w)
		for i := 0; i < n; i++ {
			copy(K[i*n+c0:i*n+c0+w], P[i*w:(i+1)*w])
		}
	}
	ls := lengthScale(K, n)

	rows, tail := n*n/pw, n*n%pw
	weight := make([]float64, rows+1)
	scale := make([]float64, rows+1)
	for i := range scale {
		scale[i] = 1
	}
	var sums [pw]float64
	denom := 2 * ls * ls
	mat.ExpPanel(K[:rows*pw], rows, pw, denom, weight[:rows], scale[:rows], sums[:])
	if tail > 0 {
		mat.ExpPanel(K[rows*pw:], 1, tail, denom, weight[:1], scale[:1], sums[:tail])
	}
	for i := 0; i < n; i++ {
		K[i*n+i] += jitter
	}
	return mat.NewDenseData(n, n, K), ls
}

// newtonState is the Laplace approximation's state at a latent vector f,
// with the logistic likelihood: for y ∈ {0,1}, grad = ∇ log p = y − σ(f),
// and W = σ(1−σ) (floored at 1e-10) with its square root wsq.
type newtonState struct {
	grad, w, wsq []float64
}

// newtonAt computes the Newton state at f for labels y, and factors
// B = I + W^{1/2} K W^{1/2} into chB. It writes only B's lower triangle,
// the part the factorization reads, each entry as (W^{1/2}_i·K_ij)·W^{1/2}_j.
func newtonAt(K, B *mat.Dense, chB *mat.Cholesky, f []float64, y []int) (newtonState, error) {
	n := len(f)
	st := newtonState{grad: make([]float64, n), w: make([]float64, n), wsq: make([]float64, n)}
	for i := 0; i < n; i++ {
		p := stats.Logistic(f[i])
		st.grad[i] = float64(y[i]) - p
		st.w[i] = math.Max(p*(1-p), 1e-10)
		st.wsq[i] = math.Sqrt(st.w[i])
	}
	for i := 0; i < n; i++ {
		wi, krow, brow := st.wsq[i], K.Row(i)[:i+1], B.Row(i)[:i+1]
		for j, kij := range krow {
			brow[j] = wi * kij * st.wsq[j]
		}
		brow[i] += 1
	}
	return st, chB.FactorizeJitter(B, 1e-10, 8)
}

// latent returns the predictive latent mean and variance at x (R&W
// Algorithm 3.2).
func (g *GP) latent(x []float64) (mean, variance float64) {
	z := g.std.Transform(x)
	n := g.xf.Rows
	ks := make([]float64, n)
	for i := 0; i < n; i++ {
		ks[i] = g.kernel(z, g.xf.Row(i))
	}
	mean = mat.Dot(ks, g.grad)
	// v = L \ (W^{1/2} k*); Var = k** − vᵀv.
	rhs := make([]float64, n)
	for i := 0; i < n; i++ {
		rhs[i] = g.wSqrt[i] * ks[i]
	}
	v := g.chB.SolveLower(rhs)
	variance = signalVar + jitter - mat.Dot(v, v)
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// PredictProba returns the class probability using the probit
// approximation to the logistic-Gaussian integral:
// σ(μ/√(1+πσ²/8)).
func (g *GP) PredictProba(x []float64) float64 {
	p, _ := g.PredictWithVariance(x)
	return p
}

// PredictWithVariance returns the class probability and the latent
// predictive variance — the model-intrinsic uncertainty used by GPB-iW.
func (g *GP) PredictWithVariance(x []float64) (float64, float64) {
	if !g.fitted {
		panic(ml.ErrNotFitted)
	}
	mean, variance := g.latent(x)
	p := stats.Logistic(mean / math.Sqrt(1+math.Pi*variance/8))
	return correctOdds(p, g.oddsInflation), variance
}

// PredictProbaFlat returns the class probability for every row of a flat
// matrix.
func (g *GP) PredictProbaFlat(X ml.Matrix) []float64 {
	p, _ := g.PredictWithVarianceFlat(X)
	return p
}

// PredictWithVarianceFlat scores a whole flat matrix at once — the columnar
// hot path of the repo. It works through the query rows in panels of
// mat.PanelWidth (32); a panel of w queries goes through five passes:
//
//  1. its queries are standardized and stored feature-major in zt (k rows
//     of w values);
//  2. mat.SqDistPanel fills the n×w panel K with their squared distances to
//     the n training rows, so row i holds training point i's distance to
//     each query;
//  3. mat.ExpPanel maps every entry d² to the kernel value
//     e = signalVar·exp(−d²/denom), adds e·grad[i] into query q's latent
//     mean, row by row, and scales row i by W^{1/2}_i in place, turning K
//     into the right-hand sides;
//  4. mat.Cholesky.SolveLowerPanel solves L·V = K in place, one column per
//     query, and adds each solved row's squares into the query's v·v for
//     the variance as it goes.
//
// Every sum runs in the pointwise path's index order (features, then
// training rows, ascending), and the exp kernel rounds as math.Exp does,
// so the returned floats match PredictWithVariance bit for bit. Full
// panels run mat's AVX2 kernels where the host has them, a short last
// panel its Go ones. The panel, zt and the per-query sums, about (n+k)·32
// floats, come from a pool and serve every panel of the call; the panel
// starts on a 64-byte boundary for the assembly kernels.
func (g *GP) PredictWithVarianceFlat(X ml.Matrix) ([]float64, []float64) {
	if !g.fitted {
		panic(ml.ErrNotFitted)
	}
	const pw = mat.PanelWidth
	m := X.Rows
	n := g.xf.Rows
	k := g.xf.Cols
	// One pooled scratch block serves the panel, zt, the standardization
	// buffer and the per-query sums: map sweeps call this method thousands
	// of times per second, and pooling keeps those calls allocation-free.
	// Every scratch entry is overwritten before it is read, so reuse cannot
	// change results.
	size := n*pw + k*pw + k + 2*pw
	buf := getScratch(size + 7)
	defer putScratch(buf)
	work := mat.AlignedPanel(buf, size)
	panel, work := work[:n*pw], work[n*pw:]
	ztBuf, work := work[:k*pw], work[k*pw:]
	z, work := work[:k], work[k:]
	meanBuf, vvBuf := work[:pw], work[pw:]
	denom := 2 * g.ls * g.ls
	ps := make([]float64, m)
	vs := make([]float64, m)
	for r0 := 0; r0 < m; r0 += pw {
		w := min(pw, m-r0)
		K, zt := panel[:n*w], ztBuf[:k*w]
		for q := 0; q < w; q++ {
			g.std.TransformInto(X.Row(r0+q), z)
			for j, v := range z {
				zt[j*w+q] = v
			}
		}
		mat.SqDistPanel(K, g.xf.Data, zt, n, k, w)
		means := meanBuf[:w]
		clear(means)
		// signalVar is 1, so each kernel value signalVar·exp(−d²/denom) is
		// the bare exp that ExpPanel computes.
		mat.ExpPanel(K, n, w, denom, g.grad, g.wSqrt, means)
		// v_q = L \ (W^{1/2} k*_q), solved in place for the whole panel,
		// and v_q·v_q.
		vv := vvBuf[:w]
		clear(vv)
		g.chB.SolveLowerPanel(K, w, vv)
		for q := 0; q < w; q++ {
			variance := signalVar + jitter - vv[q]
			if variance < 0 {
				variance = 0
			}
			p := stats.Logistic(means[q] / math.Sqrt(1+math.Pi*variance/8))
			ps[r0+q] = correctOdds(p, g.oddsInflation)
			vs[r0+q] = variance
		}
	}
	return ps, vs
}

// scratchPool recycles the flat batch path's scratch blocks. Buffers are
// handed out with stale contents; callers must overwrite before reading.
var scratchPool sync.Pool

func getScratch(n int) []float64 {
	if v := scratchPool.Get(); v != nil {
		s := *(v.(*[]float64))
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]float64, n)
}

func putScratch(s []float64) { scratchPool.Put(&s) }

// oddsInflation measures how the subsample shifted class odds versus the
// full set: (π_sub/(1−π_sub)) / (π_full/(1−π_full)). 1 when either set is
// single-class (no meaningful correction).
func oddsInflation(full, sub []int) float64 {
	fn, fp := ml.ClassCounts(full)
	sn, sp := ml.ClassCounts(sub)
	if fn == 0 || fp == 0 || sn == 0 || sp == 0 {
		return 1
	}
	return (float64(sp) / float64(sn)) / (float64(fp) / float64(fn))
}

// correctOdds divides the inflation back out of a predicted probability.
func correctOdds(p, inflation float64) float64 {
	if inflation == 1 || inflation <= 0 {
		return p
	}
	odds := p / (1 - p + 1e-12) / inflation
	return odds / (1 + odds)
}

// LatentAt exposes the latent mean/variance for diagnostics and tests.
func (g *GP) LatentAt(x []float64) (mean, variance float64) {
	if !g.fitted {
		panic(ml.ErrNotFitted)
	}
	return g.latent(x)
}

// TrainSize returns the size of the training subsample actually used.
func (g *GP) TrainSize() int { return g.xf.Rows }

// NumFeatures returns the feature-vector width the GP was fitted on.
func (g *GP) NumFeatures() int { return g.xf.Cols }

// LengthScale returns the resolved RBF length scale.
func (g *GP) LengthScale() float64 { return g.ls }

// subsample selects at most maxN indices. Positives are kept whole when they
// fit in half the budget; when they are abundant, the subsample is balanced
// half/half so no class ever disappears (an all-positive GP would be
// degenerate). Remaining budget is filled with random negatives.
func subsample(y []int, maxN int, r *rng.RNG) []int {
	n := len(y)
	if n <= maxN {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	var pos, neg []int
	for i, v := range y {
		if v == 1 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	if len(pos) == 0 || len(neg) == 0 {
		// Single-class data: plain subsample.
		return r.SampleWithoutReplacement(n, maxN)
	}
	posTake := len(pos)
	if posTake > maxN/2 {
		posTake = maxN / 2
	}
	negTake := maxN - posTake
	if negTake > len(neg) {
		negTake = len(neg)
		posTake = maxN - negTake
		if posTake > len(pos) {
			posTake = len(pos)
		}
	}
	idx := make([]int, 0, posTake+negTake)
	for _, j := range r.SampleWithoutReplacement(len(pos), posTake) {
		idx = append(idx, pos[j])
	}
	for _, j := range r.SampleWithoutReplacement(len(neg), negTake) {
		idx = append(idx, neg[j])
	}
	return idx
}

// lengthScale is the median heuristic: the median Euclidean distance over
// the pairs i < j of the n×n squared distances D (with n > 632, over every
// stride-th pair of a row, so that at most ~2e5 are taken), or 1 where
// that is at most 1e-9 or there is no pair.
func lengthScale(D []float64, n int) float64 {
	stride := 1
	for n*(n-1)/2/stride > 200000 {
		stride++
	}
	// Row i gives ⌈(n−1−i)/stride⌉ pairs, so this holds them all.
	d2 := make([]float64, 0, n*(n-1)/2/stride+n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j += stride {
			d2 = append(d2, D[i*n+j])
		}
	}
	if len(d2) == 0 {
		return 1
	}
	m := medianSqrt(d2)
	if m <= 1e-9 {
		return 1
	}
	return m
}

// medianSqrt returns stats.Percentile(√d2, 50), reordering d2: it selects
// the one or two middle order statistics of d2 and square-roots only
// those. The square root is monotone, so they are the middle order
// statistics of √d2 too, and stats.PercentileSorted interpolates between
// the two exactly as it does at the middle of the whole sorted set. The
// selection orders floats as slices.Sort does, NaN first.
func medianSqrt(d2 []float64) float64 {
	lo, hi := (len(d2)-1)/2, len(d2)/2
	selectNth(d2, lo)
	mid := []float64{math.Sqrt(d2[lo])}
	if hi > lo {
		// Everything past lo orders at or after d2[lo], so the next order
		// statistic is their minimum; slices.Min returns NaN if any is,
		// as the NaN-first order would.
		mid = append(mid, math.Sqrt(slices.Min(d2[hi:])))
	}
	return stats.PercentileSorted(mid, 50)
}

// selectNth reorders v so that v[k] holds what slices.Sort would put
// there, no element before it ordering after it and none after it before
// it, in cmp.Compare's order (NaN first, NaNs equal). It partitions three
// ways about a median-of-three pivot, so runs of equal values settle at
// once, and sorts what is left after 2·log₂ len(v) rounds.
func selectNth(v []float64, k int) {
	lo, hi := 0, len(v)
	for rounds := 2 * bits.Len(uint(len(v))); hi-lo > 1; rounds-- {
		if rounds == 0 {
			slices.Sort(v[lo:hi])
			return
		}
		p := median3(v[lo], v[lo+(hi-lo)/2], v[hi-1])
		// v[lo:lt] < p, v[lt:gt] == p, v[gt:hi] > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch c := cmp.Compare(v[i], p); {
			case c < 0:
				v[lt], v[i] = v[i], v[lt]
				lt++
				i++
			case c > 0:
				gt--
				v[i], v[gt] = v[gt], v[i]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

// median3 returns the middle one of a, b and c in cmp.Compare's order.
func median3(a, b, c float64) float64 {
	if cmp.Less(b, a) {
		a, b = b, a
	}
	// a ≤ b: the middle one is b, unless c comes before it, and then it
	// is the later of a and c.
	switch {
	case !cmp.Less(c, b):
		return b
	case cmp.Less(c, a):
		return a
	}
	return c
}
