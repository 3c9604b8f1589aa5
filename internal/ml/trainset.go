package ml

import (
	"math"
	"sync"
)

// TrainSet is a training matrix that several fits share: an ensemble fits
// each member, or each ladder rung, on some of its rows named by index
// rather than on a copy of them. Fits that grow trees read every feature's
// sorted row order, and all of them share one sort: the first call to Order
// sorts, and every later call, from any goroutine, reads that result. A
// TrainSet whose fits never call Order never sorts.
type TrainSet struct {
	X [][]float64
	Y []int

	once  sync.Once
	order [][]int32
}

// NewTrainSet wraps (X, y), which the caller has checked with CheckXY and
// must not modify while fits read it.
func NewTrainSet(X [][]float64, y []int) *TrainSet { return &TrainSet{X: X, Y: y} }

// Order returns, for each feature f, every row index of X in ascending order
// of X[row][f], ties in ascending row order (-0 and +0 tie). Values must be
// finite. The slices are shared and must not be modified.
func (s *TrainSet) Order() [][]int32 {
	s.once.Do(s.sort)
	return s.order
}

// sort fills order with one least-significant-digit radix sort per feature,
// a byte per pass, over keys that order as the values do. Each pass is
// stable and the first starts from ascending row order, so tied rows keep
// it.
func (s *TrainSet) sort() {
	n, nFeat := len(s.X), len(s.X[0])
	backing := make([]int32, nFeat*n)
	keys, keys2, rows2 := make([]uint64, n), make([]uint64, n), make([]int32, n)
	s.order = make([][]int32, nFeat)
	for f := range s.order {
		rows := backing[f*n : (f+1)*n]
		for i, x := range s.X {
			keys[i], rows[i] = sortKey(x[f]), int32(i)
		}
		k, r, k2, r2 := keys, rows, keys2, rows2
		for shift := 0; shift < 64; shift += 8 {
			var start [256]int
			for _, key := range k {
				start[byte(key>>shift)]++
			}
			if start[byte(k[0]>>shift)] == n {
				continue // every key has this byte, so the pass moves no row
			}
			sum := 0
			for d, c := range start {
				start[d], sum = sum, sum+c
			}
			for i, key := range k {
				d := byte(key >> shift)
				k2[start[d]], r2[start[d]] = key, r[i]
				start[d]++
			}
			k, r, k2, r2 = k2, r2, k, r
		}
		copy(rows, r)
		s.order[f] = rows
	}
}

// sortKey maps a finite value to a key whose unsigned order is the value's
// order, with one key for -0 and +0.
func sortKey(v float64) uint64 {
	if v == 0 {
		return 1 << 63
	}
	b := math.Float64bits(v)
	if b>>63 == 1 {
		return ^b
	}
	return b | 1<<63
}
