package stats

import (
	"errors"
	"math"
)

// ErrDegenerateTable is returned by ChiSquaredTest when a contingency table
// has a zero row or column sum, making the test undefined.
var ErrDegenerateTable = errors.New("stats: contingency table has zero marginal")

// ChiSquared holds the result of a Pearson chi-squared independence test.
type ChiSquared struct {
	Statistic float64 // Pearson X² statistic
	DF        int     // degrees of freedom (r-1)(c-1)
	PValue    float64 // upper-tail probability
}

// ChiSquaredTest runs Pearson's chi-squared test of independence on an r×c
// contingency table of observed counts.
func ChiSquaredTest(table [][]float64) (ChiSquared, error) {
	r := len(table)
	if r == 0 {
		return ChiSquared{}, ErrDegenerateTable
	}
	c := len(table[0])
	rowSum := make([]float64, r)
	colSum := make([]float64, c)
	var total float64
	for i, row := range table {
		if len(row) != c {
			return ChiSquared{}, errors.New("stats: ragged contingency table")
		}
		for j, v := range row {
			rowSum[i] += v
			colSum[j] += v
			total += v
		}
	}
	if total == 0 {
		return ChiSquared{}, ErrDegenerateTable
	}
	for _, v := range rowSum {
		if v == 0 {
			return ChiSquared{}, ErrDegenerateTable
		}
	}
	for _, v := range colSum {
		if v == 0 {
			return ChiSquared{}, ErrDegenerateTable
		}
	}
	var x2 float64
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			exp := rowSum[i] * colSum[j] / total
			d := table[i][j] - exp
			x2 += d * d / exp
		}
	}
	df := (r - 1) * (c - 1)
	return ChiSquared{Statistic: x2, DF: df, PValue: ChiSquaredSF(x2, float64(df))}, nil
}

// ChiSquaredSF returns the survival function P(X² > x) for a chi-squared
// distribution with k degrees of freedom, via the regularized upper
// incomplete gamma function Q(k/2, x/2).
func ChiSquaredSF(x, k float64) float64 {
	if x <= 0 {
		return 1
	}
	return GammaQ(k/2, x/2)
}

// GammaQ returns the regularized upper incomplete gamma function Q(a, x).
func GammaQ(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - gammaPSeries(a, x)
	}
	return gammaQContinued(a, x)
}

// gammaPSeries evaluates P(a,x) by its power series (valid for x < a+1).
func gammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for n := 0; n < 500; n++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-15 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaQContinued evaluates Q(a,x) by Lentz's continued fraction (x ≥ a+1).
func gammaQContinued(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}
