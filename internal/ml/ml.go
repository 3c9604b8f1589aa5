// Package ml defines the model interfaces and shared utilities of the PAWS
// predictive layer. There are two interfaces: Classifier, a binary
// probabilistic classifier, and UncertaintyClassifier, one that also
// quantifies per-prediction uncertainty. Each predicts in two forms:
// pointwise on one feature vector, and batched on a flat row-major Matrix.
// A batched method returns exactly the floats its pointwise twin returns
// row by row — the flat layout is a storage change, never an arithmetic
// one. Matrix is the only batch format: a caller holding [][]float64
// converts once with MatrixFromRows. Training stays on [][]float64.
//
// The package also holds feature standardization, cross-validation folds
// and TrainSet, the training matrix whose rows an ensemble's fits share.
// Concrete learners live in the subpackages tree, svm, gp and bagging.
package ml

import (
	"errors"
	"fmt"
	"math"

	"paws/internal/rng"
)

// ErrNotFitted is returned when predicting with an untrained model.
var ErrNotFitted = errors.New("ml: model is not fitted")

// ErrNoData is returned when fitting on an empty dataset.
var ErrNoData = errors.New("ml: empty training set")

// Classifier is a binary probabilistic classifier. PredictProba returns the
// estimated probability of the positive class.
type Classifier interface {
	Fit(X [][]float64, y []int) error
	PredictProba(x []float64) float64
	// PredictProbaFlat returns PredictProba for every row of X.
	PredictProbaFlat(X Matrix) []float64
	// NumFeatures returns the feature-vector width the model was fitted on
	// (0 before Fit).
	NumFeatures() int
}

// UncertaintyClassifier additionally quantifies per-prediction uncertainty.
// For Gaussian processes the variance is intrinsic to the model; for bagged
// ensembles it is a heuristic (Section V-C of the paper).
type UncertaintyClassifier interface {
	Classifier
	PredictWithVariance(x []float64) (p, variance float64)
	// PredictWithVarianceFlat returns PredictWithVariance for every row of X
	// as parallel probability and variance slices.
	PredictWithVarianceFlat(X Matrix) (p, variance []float64)
}

// Factory builds a fresh, untrained classifier. Ensembles and
// cross-validation use factories so every member starts from scratch with an
// independent seed.
type Factory func(seed int64) Classifier

// CommonWidth returns the feature width every classifier in cs was fitted
// on: the check an ensemble decoded from a model file runs over its members.
// It fails when cs is empty, holds a nil, or the widths disagree.
func CommonWidth(cs []Classifier) (int, error) {
	if len(cs) == 0 {
		return 0, errors.New("ml: no classifiers")
	}
	for i, c := range cs {
		if c == nil {
			return 0, fmt.Errorf("ml: classifier %d is nil", i)
		}
		if w, w0 := c.NumFeatures(), cs[0].NumFeatures(); w != w0 {
			return 0, fmt.Errorf("ml: classifier %d is %d features wide, classifier 0 is %d", i, w, w0)
		}
	}
	return cs[0].NumFeatures(), nil
}

// CheckXY validates a training set shape.
func CheckXY(X [][]float64, y []int) error {
	if len(X) == 0 {
		return ErrNoData
	}
	if len(X) != len(y) {
		return fmt.Errorf("ml: %d rows but %d labels", len(X), len(y))
	}
	w := len(X[0])
	for i, row := range X {
		if len(row) != w {
			return fmt.Errorf("ml: row %d has %d features, want %d", i, len(row), w)
		}
	}
	for i, v := range y {
		if v != 0 && v != 1 {
			return fmt.Errorf("ml: label %d at row %d is not binary", v, i)
		}
	}
	return nil
}

// Standardizer centers and scales features to zero mean and unit variance.
// Constant features are left centered with unit divisor.
type Standardizer struct {
	Mean  []float64
	Scale []float64
}

// FitStandardizer computes per-feature moments from X.
func FitStandardizer(X [][]float64) (*Standardizer, error) {
	if len(X) == 0 {
		return nil, ErrNoData
	}
	k := len(X[0])
	s := &Standardizer{Mean: make([]float64, k), Scale: make([]float64, k)}
	for _, row := range X {
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	n := float64(len(X))
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range X {
		for j, v := range row {
			d := v - s.Mean[j]
			s.Scale[j] += d * d
		}
	}
	for j := range s.Scale {
		s.Scale[j] = math.Sqrt(s.Scale[j] / n)
		if s.Scale[j] < 1e-12 {
			s.Scale[j] = 1
		}
	}
	return s, nil
}

// Transform returns the standardized copy of x.
func (s *Standardizer) Transform(x []float64) []float64 {
	out := make([]float64, len(x))
	s.TransformInto(x, out)
	return out
}

// TransformInto standardizes x into dst, which must have the same length —
// the allocation-free variant batch predictors use for their scratch buffer.
func (s *Standardizer) TransformInto(x, dst []float64) {
	for j, v := range x {
		dst[j] = (v - s.Mean[j]) / s.Scale[j]
	}
}

// TransformAll standardizes every row of X into a new matrix.
func (s *Standardizer) TransformAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = s.Transform(row)
	}
	return out
}

// KFold splits indices 0..n-1 into k shuffled folds of near-equal size.
// It returns, for each fold, the held-out (validation) indices.
func KFold(n, k int, r *rng.RNG) [][]int {
	if k <= 0 {
		k = 1
	}
	if k > n {
		k = n
	}
	perm := r.Perm(n)
	folds := make([][]int, k)
	for i, idx := range perm {
		f := i % k
		folds[f] = append(folds[f], idx)
	}
	return folds
}

// TrainIndices returns all indices not in the given validation fold.
func TrainIndices(n int, fold []int) []int {
	in := make([]bool, n)
	for _, i := range fold {
		in[i] = true
	}
	out := make([]int, 0, n-len(fold))
	for i := 0; i < n; i++ {
		if !in[i] {
			out = append(out, i)
		}
	}
	return out
}

// Subset gathers rows of X and y at the given indices.
func Subset(X [][]float64, y []int, idx []int) ([][]float64, []int) {
	sx := make([][]float64, len(idx))
	sy := make([]int, len(idx))
	for i, j := range idx {
		sx[i] = X[j]
		sy[i] = y[j]
	}
	return sx, sy
}

// ClassCounts returns the number of negative and positive labels.
func ClassCounts(y []int) (neg, pos int) {
	for _, v := range y {
		if v == 1 {
			pos++
		} else {
			neg++
		}
	}
	return neg, pos
}
