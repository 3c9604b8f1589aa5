// Package svm implements a linear support-vector machine trained with the
// Pegasos primal subgradient method, calibrated to probabilities with Platt
// scaling. Bagged ensembles of these models reproduce the paper's SVB weak
// learner (Table II).
package svm

import (
	"math"

	"paws/internal/mat"
	"paws/internal/ml"
	"paws/internal/rng"
	"paws/internal/stats"
)

// Config controls training.
type Config struct {
	// Seed drives sampling order.
	Seed int64
}

// Training runs with one parameter set.
const (
	// lambda is the L2 regularization strength.
	lambda = 1e-3
	// epochs is the number of passes over the data.
	epochs = 12
)

// SVM is a linear classifier with Platt-calibrated probabilities.
type SVM struct {
	cfg    Config
	std    *ml.Standardizer
	w      []float64
	b      float64
	plattA float64
	plattB float64
	fitted bool
}

// New creates an untrained SVM.
func New(cfg Config) *SVM { return &SVM{cfg: cfg} }

// Fit trains with Pegasos and then fits the Platt sigmoid on the training
// margins. The hinge loss of each class is weighted by the inverse of its
// share of the data, which keeps the SVM from collapsing to the majority
// class under heavy imbalance.
func (s *SVM) Fit(X [][]float64, y []int) error {
	if err := ml.CheckXY(X, y); err != nil {
		return err
	}
	std, err := ml.FitStandardizer(X)
	if err != nil {
		return err
	}
	s.std = std
	Z := std.TransformAll(X)
	k := len(Z[0])
	s.w = make([]float64, k)
	s.b = 0

	neg, pos := ml.ClassCounts(y)
	wPos, wNeg := 1.0, 1.0
	if pos > 0 && neg > 0 {
		wPos = float64(neg+pos) / (2 * float64(pos))
		wNeg = float64(neg+pos) / (2 * float64(neg))
	}

	r := rng.New(s.cfg.Seed)
	t := 0
	for epoch := 0; epoch < epochs; epoch++ {
		for _, i := range r.Perm(len(Z)) {
			t++
			eta := 1 / (lambda * float64(t))
			yi := 2*float64(y[i]) - 1
			cw := wNeg
			if y[i] == 1 {
				cw = wPos
			}
			margin := yi * (mat.Dot(s.w, Z[i]) + s.b)
			// Regularization shrink.
			scale := 1 - eta*lambda
			if scale < 0 {
				scale = 0
			}
			for j := range s.w {
				s.w[j] *= scale
			}
			if margin < 1 {
				step := eta * cw * yi
				for j := range s.w {
					s.w[j] += step * Z[i][j]
				}
				s.b += step
			}
		}
	}
	s.fitPlatt(Z, y)
	s.fitted = true
	return nil
}

// decision returns the raw margin for standardized input z.
func (s *SVM) decision(z []float64) float64 { return mat.Dot(s.w, z) + s.b }

// fitPlatt fits P(y=1|m) = σ(A·m + B) by Newton iterations on the
// regularized log loss (Platt 1999, with the Lin-Weng target smoothing).
func (s *SVM) fitPlatt(Z [][]float64, y []int) {
	n := len(Z)
	margins := make([]float64, n)
	for i, z := range Z {
		margins[i] = s.decision(z)
	}
	neg, pos := ml.ClassCounts(y)
	tPos := (float64(pos) + 1) / (float64(pos) + 2)
	tNeg := 1 / (float64(neg) + 2)
	targets := make([]float64, n)
	for i, v := range y {
		if v == 1 {
			targets[i] = tPos
		} else {
			targets[i] = tNeg
		}
	}
	a, b := 1.0, 0.0
	for iter := 0; iter < 50; iter++ {
		var g1, g2, h11, h12, h22 float64
		for i := 0; i < n; i++ {
			p := stats.Logistic(a*margins[i] + b)
			d := p - targets[i]
			w := p * (1 - p)
			g1 += d * margins[i]
			g2 += d
			h11 += w * margins[i] * margins[i]
			h12 += w * margins[i]
			h22 += w
		}
		h11 += 1e-9
		h22 += 1e-9
		det := h11*h22 - h12*h12
		if math.Abs(det) < 1e-18 {
			break
		}
		da := (h22*g1 - h12*g2) / det
		db := (h11*g2 - h12*g1) / det
		a -= da
		b -= db
		if math.Abs(da)+math.Abs(db) < 1e-10 {
			break
		}
	}
	s.plattA, s.plattB = a, b
}

// PredictProba returns the Platt-calibrated positive probability.
func (s *SVM) PredictProba(x []float64) float64 {
	if !s.fitted {
		panic(ml.ErrNotFitted)
	}
	z := s.std.Transform(x)
	return stats.Logistic(s.plattA*s.decision(z) + s.plattB)
}

// PredictProbaFlat scores every row of a flat matrix, reusing one
// standardization buffer across the batch instead of allocating per point.
func (s *SVM) PredictProbaFlat(X ml.Matrix) []float64 {
	if !s.fitted {
		panic(ml.ErrNotFitted)
	}
	out := make([]float64, X.Rows)
	if X.Rows == 0 {
		return out
	}
	z := make([]float64, X.Cols)
	for i := 0; i < X.Rows; i++ {
		s.std.TransformInto(X.Row(i), z)
		out[i] = stats.Logistic(s.plattA*s.decision(z) + s.plattB)
	}
	return out
}

// Decision returns the raw (uncalibrated) margin for x.
func (s *SVM) Decision(x []float64) float64 {
	if !s.fitted {
		panic(ml.ErrNotFitted)
	}
	return s.decision(s.std.Transform(x))
}

// Weights returns the learned weight vector (standardized space).
func (s *SVM) Weights() []float64 { return s.w }

// NumFeatures returns the feature-vector width the SVM was fitted on.
func (s *SVM) NumFeatures() int { return len(s.w) }
