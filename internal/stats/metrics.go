// Package stats provides the statistical substrate for the PAWS pipeline:
// AUC, the mean, percentiles, Pearson correlation, the logistic function,
// bootstrap confidence intervals, and the chi-squared independence test
// used to evaluate field-test results.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// AUC computes the area under the ROC curve for binary labels (0/1) and
// real-valued scores. Ties in score are handled by the midrank convention.
// It returns 0.5 when either class is empty (an undefined AUC), matching the
// convention used when reporting degenerate folds.
func AUC(labels []int, scores []float64) float64 {
	if len(labels) != len(scores) {
		panic(fmt.Sprintf("stats: AUC length mismatch %d vs %d", len(labels), len(scores)))
	}
	n := len(labels)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })

	// Midranks with tie handling.
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && scores[idx[j+1]] == scores[idx[i]] {
			j++
		}
		r := float64(i+j)/2 + 1 // average of 1-based ranks i+1..j+1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = r
		}
		i = j + 1
	}
	var nPos, nNeg int
	var rankSum float64
	for i, y := range labels {
		if y == 1 {
			nPos++
			rankSum += ranks[i]
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	u := rankSum - float64(nPos)*float64(nPos+1)/2
	return u / (float64(nPos) * float64(nNeg))
}

// Pearson computes the Pearson correlation coefficient between x and y.
// It returns 0 if either series has zero variance.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: Pearson length mismatch %d vs %d", len(x), len(y)))
	}
	n := float64(len(x))
	if n == 0 {
		return 0
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Mean returns the arithmetic mean of v (0 for empty input).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Percentile returns the p-th percentile (p in [0,100]) of v using linear
// interpolation between closest ranks. v is not modified.
func Percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sorted := make([]float64, len(v))
	copy(sorted, v)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// PercentileSorted is Percentile for an already ascending-sorted slice.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Logistic is the standard logistic function 1/(1+exp(-x)).
func Logistic(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
