// Package tree implements CART binary classification trees with Gini
// impurity, depth/leaf-size controls and per-split feature subsampling.
// Bagged ensembles of these trees (package bagging) reproduce the paper's
// DTB weak learner, equivalent to a random forest (Section V-C).
//
// Induction is presorted. Each feature's rows are sorted once per training
// set (ml.TrainSet.Order), and a fit keeps one list per feature of its
// distinct in-bag rows in that order, each row weighted by its in-bag count.
// A node owns the same [lo, hi) segment of every list. The split search
// scans each candidate feature's segment once, ascending, and scores the
// boundary above each distinct value with the weighted counts of the rows
// left of it. A split stable-partitions every list's segment, so both
// children's segments stay sorted. The weighted counts are the integer
// counts of the materialized bag, and the rest is unchanged: the same
// boundaries, Gini arithmetic, (v + next) / 2 thresholds, RNG draws and
// left-first recursion. So a fit from counts is bit-identical to one sorted
// scan per node of the materialized bag. Rows tied at a value may hold ±0
// in either order, and (±0 + next) / 2 is the same either way. Features
// must be finite.
package tree

import (
	"fmt"
	"sync"

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

// Fit grows the tree on (X, y), each row counted once. It sorts X for this
// fit alone; an ensemble's members share one sort through FitCounts.
func (t *Tree) Fit(X [][]float64, y []int) error {
	if err := ml.CheckXY(X, y); err != nil {
		return err
	}
	rows := make([]int32, len(X))
	counts := make([]int32, len(X))
	for i := range rows {
		rows[i], counts[i] = int32(i), 1
	}
	return t.FitCounts(ml.NewTrainSet(X, y), rows, counts)
}

// FitCounts grows the tree on the multiset in which row rows[j] of d
// appears counts[j] times; a zero count leaves the row out. The tree equals
// Fit on that multiset materialized, node for node and bit for bit. Fits of
// one d, from any goroutines, share its sort.
func (t *Tree) FitCounts(d *ml.TrainSet, rows, counts []int32) error {
	if len(rows) != len(counts) {
		return fmt.Errorf("tree: %d rows but %d counts", len(rows), len(counts))
	}
	n := 0
	for j, c := range counts {
		if c < 0 {
			return fmt.Errorf("tree: row %d has in-bag count %d", rows[j], c)
		}
		n += int(c)
	}
	if n == 0 {
		return ml.ErrNoData
	}
	t.nFeat = len(d.X[0])
	g := scratchPool.Get().(*grower)
	m, pos := g.load(t, d, rows, counts)
	t.root = g.grow(0, m, n, pos, 0)
	g.release(rows)
	return nil
}

// scratchPool recycles growers between fits, so concurrent fits each hold
// one set of list buffers instead of allocating one per tree.
var scratchPool = sync.Pool{New: func() any { return new(grower) }}

// grower holds one fit's state. Between fits w and goLeft are all zero.
type grower struct {
	t *Tree
	X [][]float64
	y []int
	r *rng.RNG
	// w[r] is row r's in-bag count, 0 when the row is out of the bag.
	w []int32
	// goLeft[r] is 1 while row r is on the left of the split being made.
	goLeft []uint8
	// lists[f] holds the in-bag rows in ascending order of feature f; a
	// node owns the same [lo, hi) segment of every list.
	lists [][]int32
	// tmp holds one segment's right-going rows while it is partitioned.
	tmp []int32
	// backing stores the lists, and one spare slot (sortedLists).
	backing []int32
}

// load readies g to grow t on FitCounts' multiset: m distinct rows, pos
// of the samples positive.
func (g *grower) load(t *Tree, d *ml.TrainSet, rows, counts []int32) (m, pos int) {
	g.t, g.X, g.y, g.r = t, d.X, d.Y, rng.New(t.cfg.Seed)
	if len(g.w) < len(d.X) {
		g.w = make([]int32, len(d.X))
		g.goLeft = make([]uint8, len(d.X))
	}
	for j, c := range counts {
		if g.w[rows[j]] == 0 && c > 0 {
			m++
		}
		g.w[rows[j]] += c
		pos += int(c) * d.Y[rows[j]]
	}
	g.sortedLists(d.Order(), m)
	return m, pos
}

// release zeroes the counts FitCounts set and returns g to the pool.
func (g *grower) release(rows []int32) {
	for _, r := range rows {
		g.w[r] = 0
	}
	g.t, g.X, g.y, g.r = nil, nil, nil, nil
	scratchPool.Put(g)
}

// sortedLists filters each feature's sorted order of every row down to the
// m in-bag rows. The filter writes every row and advances past the in-bag
// ones only, since a branch on the count would be mispredicted often; a
// list's first slot and one spare take the writes past the list before it.
func (g *grower) sortedLists(order [][]int32, m int) {
	if len(g.backing) < len(order)*m+1 {
		g.backing = make([]int32, len(order)*m+1)
	}
	if len(g.tmp) < m {
		g.tmp = make([]int32, m)
	}
	g.lists = g.lists[:0]
	for f, o := range order {
		l, k := g.backing[f*m:(f+1)*m+1], 0
		for _, r := range o {
			l[k] = r
			k += int(min(g.w[r], 1))
		}
		g.lists = append(g.lists, l[:m:m])
	}
}

// stops reports whether a node of n samples, pos of them positive, at this
// depth is a leaf without a split search.
func (g *grower) stops(n, pos, depth int) bool {
	cfg := g.t.cfg
	return pos == 0 || pos == n || n < 2*cfg.MinLeaf ||
		(cfg.MaxDepth > 0 && depth >= cfg.MaxDepth)
}

// grow builds the subtree of the node owning segment [lo, hi) of every
// list: n samples by weight, pos of them positive.
func (g *grower) grow(lo, hi, n, pos, depth int) *node {
	nd := &node{prob: float64(pos) / float64(n), n: n}
	if g.stops(n, pos, depth) {
		nd.leaf = true
		return nd
	}
	feat, thr, ok := g.bestSplit(lo, hi, n, pos)
	if !ok {
		nd.leaf = true
		return nd
	}
	// The left child is the prefix of feat's segment at or below thr. It
	// can hold more than the scored boundary: (v + next) / 2 may round up
	// to next.
	list := g.lists[feat]
	mid, nLeft, posLeft := lo, 0, 0
	for ; mid < hi && g.X[list[mid]][feat] <= thr; mid++ {
		c := int(g.w[list[mid]])
		nLeft += c
		posLeft += c * g.y[list[mid]]
	}
	minLeaf := g.t.cfg.MinLeaf
	if nLeft < minLeaf || n-nLeft < minLeaf {
		nd.leaf = true
		return nd
	}
	// A child that stops never reads its segments, so two of them need no
	// partition.
	if !g.stops(nLeft, posLeft, depth+1) || !g.stops(n-nLeft, pos-posLeft, depth+1) {
		g.partition(lo, mid, hi, feat)
	}
	nd.feature = feat
	nd.threshold = thr
	nd.left = g.grow(lo, mid, nLeft, posLeft, depth+1)
	nd.right = g.grow(mid, hi, n-nLeft, pos-posLeft, depth+1)
	return nd
}

// partition stable-partitions segment [lo, hi) of every list so the rows
// of feat's prefix [lo, mid) come first. feat's own list already has them
// first. Each row is written to both sides and only its own side's cursor
// moves, since a branch on the side would be mispredicted half the time.
func (g *grower) partition(lo, mid, hi, feat int) {
	left := g.lists[feat][lo:mid]
	for _, r := range left {
		g.goLeft[r] = 1
	}
	for f, l := range g.lists {
		if f == feat {
			continue
		}
		seg, k, j := l[lo:hi], 0, 0
		for _, r := range seg {
			b := int(g.goLeft[r])
			seg[k], g.tmp[j] = r, r
			k += b
			j += 1 - b
		}
		copy(seg[k:], g.tmp[:j])
	}
	for _, r := range left {
		g.goLeft[r] = 0
	}
}

// bestSplit searches candidate features for the split minimizing weighted
// Gini impurity over the node owning [lo, hi), n samples by weight with pos
// positive, by the ascending scan the package doc describes. Features are
// subsampled when MaxFeatures is set.
func (g *grower) bestSplit(lo, hi, n, pos int) (feat int, thr float64, ok bool) {
	candidates := g.t.candidateFeatures(g.r)
	minLeaf := g.t.cfg.MinLeaf
	bestGini := gini(pos, n) // must strictly improve on parent
	bestFeat, bestThr := -1, 0.0
	for _, f := range candidates {
		seg := g.lists[f][lo:hi]
		// nLeft and posLeft weigh the rows left of the boundary above v.
		nLeft, posLeft := 0, 0
		v := g.X[seg[0]][f]
		for k, r := range seg[:len(seg)-1] {
			c := int(g.w[r])
			nLeft += c
			posLeft += c * g.y[r]
			next := g.X[seg[k+1]][f]
			if next == v {
				continue
			}
			if n-nLeft < minLeaf {
				break
			}
			if nLeft >= minLeaf {
				gl := gini(posLeft, nLeft)
				gr := gini(pos-posLeft, n-nLeft)
				score := (float64(nLeft)*gl + float64(n-nLeft)*gr) / float64(n)
				if score < bestGini-1e-12 {
					bestGini = score
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
