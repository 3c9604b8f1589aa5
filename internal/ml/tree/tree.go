// Package tree implements CART binary classification trees with Gini
// impurity, depth/leaf-size controls and per-split feature subsampling.
// Bagged ensembles of these trees (package bagging) reproduce the paper's
// DTB weak learner, equivalent to a random forest (Section V-C).
package tree

import (
	"fmt"
	"sort"

	"paws/internal/ml"
	"paws/internal/rng"
)

// Config controls tree induction.
type Config struct {
	// MaxDepth limits tree depth (0 means unlimited).
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf (default 1).
	MinLeaf int
	// MaxFeatures is the number of features examined per split; 0 means all
	// (√k is the random-forest convention, set by the bagging layer).
	MaxFeatures int
	// Seed drives feature subsampling.
	Seed int64
}

// Tree is a fitted CART classifier.
type Tree struct {
	cfg   Config
	root  *node
	nFeat int
}

type node struct {
	// Leaf fields.
	leaf bool
	prob float64 // positive fraction of training samples in this leaf
	n    int
	// Internal fields.
	feature   int
	threshold float64
	left      *node
	right     *node
}

// New creates an untrained tree.
func New(cfg Config) *Tree {
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 1
	}
	return &Tree{cfg: cfg}
}

// Fit grows the tree on (X, y).
func (t *Tree) Fit(X [][]float64, y []int) error {
	if err := ml.CheckXY(X, y); err != nil {
		return err
	}
	t.nFeat = len(X[0])
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	r := rng.New(t.cfg.Seed)
	t.root = t.grow(X, y, idx, 0, r)
	return nil
}

// grow recursively builds the tree over the sample indices idx.
func (t *Tree) grow(X [][]float64, y []int, idx []int, depth int, r *rng.RNG) *node {
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
	feat, thr, ok := t.bestSplit(X, y, idx, r)
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
	nd.left = t.grow(X, y, left, depth+1, r)
	nd.right = t.grow(X, y, right, depth+1, r)
	return nd
}

// bestSplit searches candidate features for the split minimizing weighted
// Gini impurity. Features are subsampled when MaxFeatures is set.
func (t *Tree) bestSplit(X [][]float64, y []int, idx []int, r *rng.RNG) (feat int, thr float64, ok bool) {
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

func (t *Tree) candidateFeatures(r *rng.RNG) []int {
	k := t.cfg.MaxFeatures
	if k <= 0 || k >= t.nFeat {
		out := make([]int, t.nFeat)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return r.SampleWithoutReplacement(t.nFeat, k)
}

func countPos(y []int, idx []int) int {
	pos := 0
	for _, i := range idx {
		pos += y[i]
	}
	return pos
}

// gini returns the Gini impurity of a node with pos positives out of n.
func gini(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

// PredictProba returns the positive fraction of the leaf x falls into.
func (t *Tree) PredictProba(x []float64) float64 {
	if t.root == nil {
		panic(ml.ErrNotFitted)
	}
	if len(x) != t.nFeat {
		panic(fmt.Sprintf("tree: input has %d features, trained on %d", len(x), t.nFeat))
	}
	nd := t.root
	for !nd.leaf {
		if x[nd.feature] <= nd.threshold {
			nd = nd.left
		} else {
			nd = nd.right
		}
	}
	return nd.prob
}

// PredictProbaFlat scores every row of a flat matrix with one tree walk per
// row, iterating the backing array without per-row slice headers.
func (t *Tree) PredictProbaFlat(X ml.Matrix) []float64 {
	out := make([]float64, X.Rows)
	for i := range out {
		out[i] = t.PredictProba(X.Row(i))
	}
	return out
}

// NumFeatures returns the feature-vector width the tree was fitted on.
func (t *Tree) NumFeatures() int { return t.nFeat }

// Depth returns the maximum depth of the fitted tree (0 for a stump).
func (t *Tree) Depth() int { return depth(t.root) }

func depth(n *node) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depth(n.left), depth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// NumLeaves returns the number of leaves in the fitted tree.
func (t *Tree) NumLeaves() int { return leaves(t.root) }

func leaves(n *node) int {
	if n == nil {
		return 0
	}
	if n.leaf {
		return 1
	}
	return leaves(n.left) + leaves(n.right)
}
