package tree

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"paws/internal/ml"
	"paws/internal/rng"
	"paws/internal/stats"
)

// xorData is a dataset a linear model cannot fit but a depth-2 tree can.
func xorData(n int, seed int64) ([][]float64, []int) {
	r := rng.New(seed)
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		a, b := r.Float64(), r.Float64()
		X[i] = []float64{a, b}
		if (a > 0.5) != (b > 0.5) {
			y[i] = 1
		}
	}
	return X, y
}

func TestTreeFitsXOR(t *testing.T) {
	X, y := xorData(400, 1)
	tr := New(Config{MaxDepth: 6, MinLeaf: 3})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	Xt, yt := xorData(200, 2)
	scores := make([]float64, len(Xt))
	for i, x := range Xt {
		scores[i] = tr.PredictProba(x)
	}
	if auc := stats.AUC(yt, scores); auc < 0.9 {
		t.Fatalf("XOR AUC = %v want > 0.9", auc)
	}
}

func TestTreePureNodeIsLeaf(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []int{1, 1, 1}
	tr := New(Config{})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if tr.Depth() != 0 {
		t.Fatal("pure training set should give a stump")
	}
	if tr.PredictProba([]float64{10}) != 1 {
		t.Fatal("pure positive leaf should predict 1")
	}
}

func TestTreeMaxDepthRespected(t *testing.T) {
	X, y := xorData(500, 3)
	tr := New(Config{MaxDepth: 2})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if tr.Depth() > 2 {
		t.Fatalf("depth %d exceeds max 2", tr.Depth())
	}
}

func TestTreeMinLeafRespected(t *testing.T) {
	X, y := xorData(200, 4)
	tr := New(Config{MinLeaf: 30})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// With MinLeaf 30 and 200 points, at most ~6 leaves are possible.
	if tr.NumLeaves() > 7 {
		t.Fatalf("too many leaves (%d) for MinLeaf=30", tr.NumLeaves())
	}
}

func TestTreeProbabilitiesInRange(t *testing.T) {
	X, y := xorData(300, 5)
	tr := New(Config{MaxDepth: 4, MinLeaf: 10})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		p := tr.PredictProba(X[i])
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("probability %v out of range", p)
		}
	}
}

func TestTreeConstantFeatures(t *testing.T) {
	// All feature values identical → no split possible → root leaf.
	X := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	y := []int{0, 1, 0, 1}
	tr := New(Config{})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if tr.Depth() != 0 {
		t.Fatal("constant features should give a stump")
	}
	if tr.PredictProba([]float64{1, 1}) != 0.5 {
		t.Fatal("stump should predict base rate")
	}
}

func TestTreeErrors(t *testing.T) {
	tr := New(Config{})
	if err := tr.Fit(nil, nil); err == nil {
		t.Fatal("expected error on empty data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic predicting with unfitted tree")
		}
	}()
	tr.PredictProba([]float64{1})
}

func TestTreeFeatureDimPanic(t *testing.T) {
	X, y := xorData(50, 6)
	tr := New(Config{})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong feature count")
		}
	}()
	tr.PredictProba([]float64{1, 2, 3})
}

func TestTreeFeatureSubsamplingDeterministic(t *testing.T) {
	X, y := xorData(300, 7)
	t1 := New(Config{MaxFeatures: 1, Seed: 42})
	t2 := New(Config{MaxFeatures: 1, Seed: 42})
	if err := t1.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := t2.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if t1.PredictProba(X[i]) != t2.PredictProba(X[i]) {
			t.Fatal("same seed should give identical trees")
		}
	}
}

func TestTreeImbalancedData(t *testing.T) {
	// 1:50 imbalance; tree should still isolate the positive cluster.
	r := rng.New(8)
	var X [][]float64
	var y []int
	for i := 0; i < 500; i++ {
		X = append(X, []float64{r.Float64(), r.Float64()})
		y = append(y, 0)
	}
	for i := 0; i < 10; i++ {
		X = append(X, []float64{5 + r.Float64()*0.1, 5 + r.Float64()*0.1})
		y = append(y, 1)
	}
	tr := New(Config{MinLeaf: 1})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if p := tr.PredictProba([]float64{5.05, 5.05}); p < 0.9 {
		t.Fatalf("positive cluster prediction %v", p)
	}
	if p := tr.PredictProba([]float64{0.5, 0.5}); p > 0.1 {
		t.Fatalf("negative region prediction %v", p)
	}
}

// refGrow and refBestSplit are the split search before the per-class sort:
// one combined sort.Slice per candidate feature and appended child index
// lists. They are kept verbatim (renamed) as the reference the current
// search must reproduce bit for bit.
func (t *Tree) refGrow(X [][]float64, y []int, idx []int, depth int, r *rng.RNG) *node {
	pos := 0
	for _, i := range idx {
		pos += y[i]
	}
	n := len(idx)
	nd := &node{prob: float64(pos) / float64(n), n: n}
	if pos == 0 || pos == n || n < 2*t.cfg.MinLeaf ||
		(t.cfg.MaxDepth > 0 && depth >= t.cfg.MaxDepth) {
		nd.leaf = true
		return nd
	}
	feat, thr, ok := t.refBestSplit(X, y, idx, r)
	if !ok {
		nd.leaf = true
		return nd
	}
	var left, right []int
	for _, i := range idx {
		if X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < t.cfg.MinLeaf || len(right) < t.cfg.MinLeaf {
		nd.leaf = true
		return nd
	}
	nd.feature = feat
	nd.threshold = thr
	nd.left = t.refGrow(X, y, left, depth+1, r)
	nd.right = t.refGrow(X, y, right, depth+1, r)
	return nd
}

func (t *Tree) refBestSplit(X [][]float64, y []int, idx []int, r *rng.RNG) (feat int, thr float64, ok bool) {
	candidates := t.candidateFeatures(r)
	n := len(idx)
	bestGini := gini(countPos(y, idx), n) // must strictly improve on parent
	bestFeat, bestThr := -1, 0.0

	type sv struct {
		v float64
		y int
	}
	vals := make([]sv, n)
	for _, f := range candidates {
		for i, id := range idx {
			vals[i] = sv{X[id][f], y[id]}
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
		posLeft, nLeft := 0, 0
		posTotal := 0
		for _, v := range vals {
			posTotal += v.y
		}
		for i := 0; i < n-1; i++ {
			posLeft += vals[i].y
			nLeft++
			if vals[i].v == vals[i+1].v {
				continue // cannot split between equal values
			}
			if nLeft < t.cfg.MinLeaf || n-nLeft < t.cfg.MinLeaf {
				continue
			}
			gl := gini(posLeft, nLeft)
			gr := gini(posTotal-posLeft, n-nLeft)
			g := (float64(nLeft)*gl + float64(n-nLeft)*gr) / float64(n)
			if g < bestGini-1e-12 {
				bestGini = g
				bestFeat = f
				bestThr = (vals[i].v + vals[i+1].v) / 2
			}
		}
	}
	if bestFeat < 0 {
		return 0, 0, false
	}
	return bestFeat, bestThr, true
}

func countPos(y []int, idx []int) int {
	pos := 0
	for _, i := range idx {
		pos += y[i]
	}
	return pos
}

// rootSplit runs bestSplit on the root of a fit to the multiset idx of
// rows of X, drawing candidate features from r: the presorted lists of
// idx's distinct rows, each weighted by how often idx names it.
func rootSplit(t *Tree, X [][]float64, y []int, idx []int, r *rng.RNG) (feat int, thr float64, ok bool) {
	rows := make([]int32, len(X))
	counts := make([]int32, len(X))
	for i := range rows {
		rows[i] = int32(i)
	}
	for _, i := range idx {
		counts[i]++
	}
	g := new(grower)
	m, pos := g.load(t, ml.NewTrainSet(X, y), rows, counts)
	g.r = r
	return g.bestSplit(0, m, len(idx), pos)
}

// splitData draws m distinct rows of nFeat features and their labels,
// positive at a rate between 1:200 and 1:1 with at least one of each class.
// Feature 0 is constant. Every other feature draws either from {-2, -0, +0,
// 0.5}, so values tie within and across classes and the zeros differ only
// in sign, or from a continuous normal.
func splitData(r *rng.RNG, m, nFeat int) ([][]float64, []int) {
	discrete := []float64{-2, math.Copysign(0, -1), 0, 0.5}
	cont := make([]bool, nFeat)
	for f := 1; f < nFeat; f++ {
		cont[f] = r.Bernoulli(0.5)
	}
	rate := 1 / (1 + math.Exp(r.Float64()*math.Log(200)))
	X := make([][]float64, m)
	y := make([]int, m)
	for i := range X {
		X[i] = make([]float64, nFeat)
		X[i][0] = 3
		for f := 1; f < nFeat; f++ {
			if cont[f] {
				X[i][f] = r.NormFloat64()
			} else {
				X[i][f] = discrete[r.Intn(len(discrete))]
			}
		}
		if r.Bernoulli(rate) {
			y[i] = 1
		}
	}
	y[0], y[m-1] = 1, 0
	return X, y
}

// bootstrap returns n indices drawn with replacement from [0, m), so rows
// repeat as in a bagged tree's training sample.
func bootstrap(r *rng.RNG, m, n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = r.Intn(m)
	}
	return idx
}

func TestBestSplitMatchesReference(t *testing.T) {
	r := rng.New(20)
	nodes, splits := 0, 0
	for _, minLeaf := range []int{1, 2, 5} {
		for _, maxFeat := range []int{0, 3} {
			for trial := 0; trial < 400; trial++ {
				nFeat := 4 + r.Intn(4)
				m := 2 + r.Intn(300)
				X, y := splitData(r, m, nFeat)
				idx := bootstrap(r, m, 2+r.Intn(2*m))
				tr := New(Config{MinLeaf: minLeaf, MaxFeatures: maxFeat})
				tr.nFeat = nFeat
				seed := r.Int63()
				r1, r2 := rng.New(seed), rng.New(seed)
				f1, thr1, ok1 := rootSplit(tr, X, y, idx, r1)
				f2, thr2, ok2 := tr.refBestSplit(X, y, idx, r2)
				if f1 != f2 || math.Float64bits(thr1) != math.Float64bits(thr2) || ok1 != ok2 {
					t.Fatalf("minLeaf %d maxFeat %d trial %d: got (%d, %v, %v), reference (%d, %v, %v)",
						minLeaf, maxFeat, trial, f1, thr1, ok1, f2, thr2, ok2)
				}
				if r1.Int63() != r2.Int63() {
					t.Fatalf("minLeaf %d maxFeat %d trial %d: RNG streams diverged", minLeaf, maxFeat, trial)
				}
				nodes++
				if ok1 {
					splits++
				}
			}
		}
	}
	if nodes < 2000 || splits < nodes/2 {
		t.Fatalf("covered %d nodes, %d with a split", nodes, splits)
	}
}

func TestTreeMatchesReference(t *testing.T) {
	r := rng.New(21)
	base, by := splitData(r, 800, 7)
	b := bootstrap(r, len(base), 2000)
	X := make([][]float64, len(b))
	y := make([]int, len(b))
	for i, j := range b {
		X[i], y[i] = base[j], by[j]
	}
	cfg := Config{MinLeaf: 1, MaxFeatures: 3, Seed: 5}
	got := New(cfg)
	if err := got.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	want := New(cfg)
	want.nFeat = len(X[0])
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	want.root = want.refGrow(X, y, idx, 0, rng.New(cfg.Seed))
	if got.NumLeaves() < 20 {
		t.Fatalf("reference tree has only %d leaves", got.NumLeaves())
	}
	var walk func(path string, a, b *node)
	walk = func(path string, a, b *node) {
		if a.leaf != b.leaf || a.n != b.n || math.Float64bits(a.prob) != math.Float64bits(b.prob) ||
			a.feature != b.feature || math.Float64bits(a.threshold) != math.Float64bits(b.threshold) {
			t.Fatalf("node %q: got %+v, reference %+v", path, *a, *b)
		}
		if !a.leaf {
			walk(path+"L", a.left, b.left)
			walk(path+"R", a.right, b.right)
		}
	}
	walk("", got.root, want.root)
}

// drawBag draws a bag over positions [0, len(ys)) of a training set with
// labels ys, as package bagging does: a bootstrap of len(ys) draws, or a
// balanced bag of every positive class bootstrap-resampled plus as many
// negatives drawn without replacement.
func drawBag(r *rng.RNG, ys []int, balanced bool) []int {
	if !balanced {
		return bootstrap(r, len(ys), len(ys))
	}
	var pos, neg []int
	for j, v := range ys {
		if v == 1 {
			pos = append(pos, j)
		} else {
			neg = append(neg, j)
		}
	}
	half := min(len(pos), len(neg))
	bag := make([]int, 0, 2*half)
	for i := 0; i < half; i++ {
		bag = append(bag, pos[r.Intn(len(pos))])
	}
	for _, k := range r.SampleWithoutReplacement(len(neg), half) {
		bag = append(bag, neg[k])
	}
	return bag
}

// sameTree fails t unless a and b agree node for node, bit for bit.
func sameTree(t *testing.T, name string, a, b *node) {
	t.Helper()
	var walk func(path string, a, b *node)
	walk = func(path string, a, b *node) {
		if a.leaf != b.leaf || a.n != b.n || math.Float64bits(a.prob) != math.Float64bits(b.prob) ||
			a.feature != b.feature || math.Float64bits(a.threshold) != math.Float64bits(b.threshold) {
			t.Fatalf("%s node %q: counts fit %+v, materialized fit %+v", name, path, *a, *b)
		}
		if !a.leaf {
			walk(path+"L", a.left, b.left)
			walk(path+"R", a.right, b.right)
		}
	}
	walk("", a, b)
}

// TestFitCountsMatchesMaterializedBag fits trees from in-bag counts over a
// subset of a training set's rows, as a bagged member of an iWare-E rung
// does, and checks each against Fit on the bag materialized as a multiset
// of rows. Bags are bootstrap and balanced draws, so counts above one and
// zero counts both occur.
func TestFitCountsMatchesMaterializedBag(t *testing.T) {
	r := rng.New(22)
	trees, splits, zeros := 0, 0, 0
	for _, minLeaf := range []int{1, 2, 5} {
		for _, maxFeat := range []int{0, 3} {
			for trial := 0; trial < 40; trial++ {
				m := 2 + r.Intn(300)
				X, y := splitData(r, m, 4+r.Intn(4))
				// The rung's rows: a subset of the set, as the iWare-E filter
				// keeps, and never empty.
				var rows []int32
				var ys []int
				for i := range X {
					if i == 0 || r.Bernoulli(0.8) {
						rows = append(rows, int32(i))
						ys = append(ys, y[i])
					}
				}
				bag := drawBag(r, ys, trial%2 == 1)
				if len(bag) == 0 {
					continue // a balanced draw over one class
				}
				counts := make([]int32, len(rows))
				for _, j := range bag {
					counts[j]++
				}
				bx := make([][]float64, len(bag))
				by := make([]int, len(bag))
				for k, j := range bag {
					bx[k], by[k] = X[rows[j]], y[rows[j]]
				}
				for _, c := range counts {
					if c == 0 {
						zeros++
					}
				}
				cfg := Config{MinLeaf: minLeaf, MaxFeatures: maxFeat, Seed: r.Int63()}
				got, want := New(cfg), New(cfg)
				if err := got.FitCounts(ml.NewTrainSet(X, y), rows, counts); err != nil {
					t.Fatal(err)
				}
				if err := want.Fit(bx, by); err != nil {
					t.Fatal(err)
				}
				sameTree(t, fmt.Sprintf("minLeaf %d maxFeat %d trial %d", minLeaf, maxFeat, trial), got.root, want.root)
				trees++
				if !got.root.leaf {
					splits++
				}
			}
		}
	}
	if trees < 200 || splits < trees/2 || zeros == 0 {
		t.Fatalf("covered %d trees, %d with a split, %d zero counts", trees, splits, zeros)
	}
}
