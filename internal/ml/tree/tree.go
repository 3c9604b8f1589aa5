// Package tree implements CART binary classification trees with Gini
// impurity, depth/leaf-size controls and per-split feature subsampling.
// Bagged ensembles of these trees (package bagging) reproduce the paper's
// DTB weak learner, equivalent to a random forest (Section V-C).
//
// The split search sorts each candidate feature's node values per class
// with a typed sort and merge-walks the two classes in ascending order,
// scoring the boundary above each distinct value once every sample tied at
// it, of either class, is on the left. The chosen split therefore depends
// only on each class's values, not on sample order, and is bit-identical
// to one combined sorted scan: the same boundaries, counts, Gini arithmetic
// and (v + next) / 2 thresholds. Features must be finite.
package tree

import (
	"fmt"
	"slices"

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
	t.root = t.grow(X, y, idx, 0, r, make([]float64, len(X)))
	return nil
}

// grow recursively builds the tree over the sample indices idx, which it
// partitions in place. buf is bestSplit's scratch, shared by every node.
func (t *Tree) grow(X [][]float64, y []int, idx []int, depth int, r *rng.RNG, buf []float64) *node {
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
	feat, thr, ok := t.bestSplit(X, y, idx, pos, r, buf)
	if !ok {
		nd.leaf = true
		return nd
	}
	nLeft := 0
	for k, i := range idx {
		if X[i][feat] <= thr {
			idx[nLeft], idx[k] = i, idx[nLeft]
			nLeft++
		}
	}
	if nLeft < t.cfg.MinLeaf || n-nLeft < t.cfg.MinLeaf {
		nd.leaf = true
		return nd
	}
	nd.feature = feat
	nd.threshold = thr
	nd.left = t.grow(X, y, idx[:nLeft], depth+1, r, buf)
	nd.right = t.grow(X, y, idx[nLeft:], depth+1, r, buf)
	return nd
}

// bestSplit searches candidate features for the split minimizing weighted
// Gini impurity over the samples idx, pos of them positive, by the per-class
// merge walk the package doc describes. Features are subsampled when
// MaxFeatures is set. buf holds at least len(idx) values.
func (t *Tree) bestSplit(X [][]float64, y []int, idx []int, pos int, r *rng.RNG, buf []float64) (feat int, thr float64, ok bool) {
	candidates := t.candidateFeatures(r)
	n := len(idx)
	bestGini := gini(pos, n) // must strictly improve on parent
	bestFeat, bestThr := -1, 0.0

	posV, negV := buf[:pos], buf[pos:n]
	for _, f := range candidates {
		p, q := 0, 0
		for _, id := range idx {
			if y[id] == 1 {
				posV[p] = X[id][f]
				p++
			} else {
				negV[q] = X[id][f]
				q++
			}
		}
		slices.Sort(posV)
		slices.Sort(negV)
		// i and j count each class's samples left of the boundary above v.
		// v may come from either class: only ±0 tie with different bits,
		// and (±0 + next) / 2 is the same either way.
		i, j := 0, 0
		v := lowest(posV, 0, negV, 0)
		for {
			for i < len(posV) && posV[i] == v {
				i++
			}
			for j < len(negV) && negV[j] == v {
				j++
			}
			nLeft := i + j
			if nLeft == n || n-nLeft < t.cfg.MinLeaf {
				break
			}
			next := lowest(posV, i, negV, j)
			if nLeft >= t.cfg.MinLeaf {
				gl := gini(i, nLeft)
				gr := gini(pos-i, n-nLeft)
				g := (float64(nLeft)*gl + float64(n-nLeft)*gr) / float64(n)
				if g < bestGini-1e-12 {
					bestGini = g
					bestFeat = f
					bestThr = (v + next) / 2
				}
			}
			v = next
		}
	}
	if bestFeat < 0 {
		return 0, 0, false
	}
	return bestFeat, bestThr, true
}

// lowest returns the smaller of the sorted slices' next values a[i] and
// b[j], skipping an exhausted slice; one of them must have values left.
func lowest(a []float64, i int, b []float64, j int) float64 {
	if j == len(b) || (i < len(a) && a[i] < b[j]) {
		return a[i]
	}
	return b[j]
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
