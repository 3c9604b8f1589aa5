// Package bagging implements bootstrap-aggregated ensembles, including the
// balanced bagging variant that undersamples the majority (negative) class —
// the paper's remedy for SWS's 1:200 class imbalance (Section V-A, citing
// imbalanced-learn) — and two uncertainty heuristics for bagged ensembles:
// the between-member prediction variance and the infinitesimal-jackknife
// estimator of Wager, Hastie & Efron used in Section V-C.
package bagging

import (
	"context"
	"fmt"
	"sync/atomic"

	"paws/internal/ml"
	"paws/internal/par"
	"paws/internal/rng"
)

// Config controls the ensemble.
type Config struct {
	// Members is the number of bagged learners.
	Members int
	// Balanced undersamples negatives so each bag has an equal number of
	// negatives and positives.
	Balanced bool
	// Seed drives all resampling.
	Seed int64
	// Workers bounds the goroutines used to fit members and to fan batch
	// predictions out across members (par.Workers semantics: 1 is
	// sequential, ≤ 0 means GOMAXPROCS). Bags and member seeds are derived
	// before fan-out, so results are identical for any worker count.
	Workers int
}

// Ensemble is a fitted bagging classifier.
type Ensemble struct {
	cfg  Config
	base ml.Factory
	// progress, when non-nil, observes member-fit completion (OnMemberFit).
	// Kept off Config so the gob-encoded state never sees a func field.
	progress func(done, total int)
	members  []ml.Classifier
	// inBag[b][i] counts how many times training row i entered bag b
	// (needed by the infinitesimal jackknife).
	inBag  [][]int32
	nTrain int
	// oddsInflation records how balanced bags shifted class odds relative to
	// the full training set; member predictions divide it back out so the
	// ensemble stays calibrated to the true base rate (the standard
	// undersampling prior correction).
	oddsInflation float64
}

// New creates an untrained ensemble over the given base factory.
func New(base ml.Factory, cfg Config) *Ensemble {
	if cfg.Members <= 0 {
		cfg.Members = 10
	}
	return &Ensemble{cfg: cfg, base: base}
}

// OnMemberFit registers a callback invoked after each member fit with
// (members fitted so far, ensemble size). It may be called concurrently
// from worker goroutines; it never affects the fitted state and does not
// survive persistence. A nil callback disables reporting.
func (e *Ensemble) OnMemberFit(fn func(done, total int)) { e.progress = fn }

// Fit trains all members on bootstrap resamples of (X, y).
func (e *Ensemble) Fit(X [][]float64, y []int) error {
	return e.FitCtx(context.Background(), X, y)
}

// FitCtx is Fit under a context: member fits already in flight when ctx is
// canceled run to completion, no new member starts, and ctx.Err() is
// returned (see par.ForEachErrCtx).
func (e *Ensemble) FitCtx(ctx context.Context, X [][]float64, y []int) error {
	if err := ml.CheckXY(X, y); err != nil {
		return err
	}
	rows := make([]int32, len(X))
	for i := range rows {
		rows[i] = int32(i)
	}
	return e.FitRows(ctx, ml.NewTrainSet(X, y), rows)
}

// countFitter is a member that fits from its in-bag counts over rows of a
// shared training set, without a copy of its bag (tree.Tree is one).
type countFitter interface {
	FitCounts(d *ml.TrainSet, rows, counts []int32) error
}

// FitRows is FitCtx on the training set made of rows rows[0], rows[1], … of
// d, in that order: bags and in-bag counts index rows. Members that can fit
// from counts (countFitter) read d in place and share its sort; any other
// member fits on a copy of its bag.
func (e *Ensemble) FitRows(ctx context.Context, d *ml.TrainSet, rows []int32) error {
	if e.base == nil {
		return ErrNoFactory
	}
	if len(rows) == 0 {
		return ml.ErrNoData
	}
	r := rng.New(e.cfg.Seed)
	e.nTrain = len(rows)
	e.members = make([]ml.Classifier, 0, e.cfg.Members)
	e.inBag = make([][]int32, 0, e.cfg.Members)
	e.oddsInflation = 1
	var posIdx, negIdx []int32
	for i, row := range rows {
		if d.Y[row] == 1 {
			posIdx = append(posIdx, int32(i))
		} else {
			negIdx = append(negIdx, int32(i))
		}
	}
	if e.cfg.Balanced && len(posIdx) > 0 && len(negIdx) > 0 {
		// Balanced bags are ~1:1, so the odds inflation is 1/(true odds).
		e.oddsInflation = float64(len(negIdx)) / float64(len(posIdx))
	}
	// Draw every bag and member seed sequentially before fan-out: the parent
	// stream is consumed in exactly the historical order (bag b, then seed
	// b), so member b trains on the same data with the same seed no matter
	// how many workers run.
	bags := make([][]int32, e.cfg.Members)
	seeds := make([]int64, e.cfg.Members)
	for b := range bags {
		bags[b] = e.sampleBag(posIdx, negIdx, len(rows), r)
		seeds[b] = r.Int63()
	}
	members := make([]ml.Classifier, e.cfg.Members)
	inBag := make([][]int32, e.cfg.Members)
	var fitted atomic.Int64
	err := par.ForEachErrCtx(ctx, e.cfg.Workers, e.cfg.Members, func(b int) error {
		counts := make([]int32, len(rows))
		for _, i := range bags[b] {
			counts[i]++
		}
		m := e.base(seeds[b])
		var err error
		if cf, ok := m.(countFitter); ok {
			err = cf.FitCounts(d, rows, counts)
		} else {
			bag := make([]int, len(bags[b]))
			for k, i := range bags[b] {
				bag[k] = int(rows[i])
			}
			err = m.Fit(ml.Subset(d.X, d.Y, bag))
		}
		if err != nil {
			return fmt.Errorf("bagging: member %d: %w", b, err)
		}
		members[b] = m
		inBag[b] = counts
		if e.progress != nil {
			e.progress(int(fitted.Add(1)), e.cfg.Members)
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.members = members
	e.inBag = inBag
	// The hook's job is done; drop it so a long-lived fitted ensemble never
	// pins whatever the callback closed over (e.g. an async train job's
	// event stream).
	e.progress = nil
	return nil
}

// sampleBag draws one bootstrap bag of n draws from n rows. In balanced
// mode, each bag gets as many positives as there are, bootstrap-resampled,
// plus an equal number of negatives sampled without replacement — the
// imbalanced-learn BalancedBagging construction.
func (e *Ensemble) sampleBag(posIdx, negIdx []int32, n int, r *rng.RNG) []int32 {
	if e.cfg.Balanced && len(posIdx) > 0 && len(negIdx) > 0 {
		nPos := len(posIdx)
		idx := make([]int32, 0, 2*nPos)
		for i := 0; i < nPos; i++ {
			idx = append(idx, posIdx[r.Intn(nPos)])
		}
		for _, j := range r.SampleWithoutReplacement(len(negIdx), nPos) {
			idx = append(idx, negIdx[j])
		}
		return idx
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(r.Intn(n))
	}
	return idx
}

// NumFeatures returns the feature-vector width the members were fitted on.
func (e *Ensemble) NumFeatures() int {
	if len(e.members) == 0 {
		return 0
	}
	return e.members[0].NumFeatures()
}

// calibrate divides the balanced-sampling odds inflation out of a member
// probability (identity for plain bagging).
func (e *Ensemble) calibrate(p float64) float64 {
	if e.oddsInflation == 1 {
		return p
	}
	odds := p / (1 - p + 1e-12) / e.oddsInflation
	return odds / (1 + odds)
}

// PredictProba returns the mean calibrated member probability, summed then
// divided. This sum mean feeds Table II's evaluation scorer and iWare-E's
// cross-validated weight fit; serving reads PredictWithVariance's running
// mean, which can differ in the last bit. Neither can replace the other
// without moving pinned outputs (Table II's AUCs, the campaign goldens).
func (e *Ensemble) PredictProba(x []float64) float64 {
	if len(e.members) == 0 {
		panic(ml.ErrNotFitted)
	}
	var s float64
	for _, m := range e.members {
		s += e.calibrate(m.PredictProba(x))
	}
	return s / float64(len(e.members))
}

// PredictProbaFlat returns the mean calibrated member probability for every
// row of X. Members are scored concurrently (Config.Workers), each over the
// whole matrix; the aggregation always sums in member order, so the output
// matches pointwise PredictProba exactly.
func (e *Ensemble) PredictProbaFlat(X ml.Matrix) []float64 {
	if len(e.members) == 0 {
		panic(ml.ErrNotFitted)
	}
	memberPreds := par.Map(e.cfg.Workers, len(e.members), func(b int) []float64 {
		return e.members[b].PredictProbaFlat(X)
	})
	out := make([]float64, X.Rows)
	for v := range out {
		var s float64
		for _, preds := range memberPreds {
			s += e.calibrate(preds[v])
		}
		out[v] = s / float64(len(e.members))
	}
	return out
}

// MemberPredictions returns every member's calibrated probability for x.
func (e *Ensemble) MemberPredictions(x []float64) []float64 {
	out := make([]float64, len(e.members))
	for i, m := range e.members {
		out[i] = e.calibrate(m.PredictProba(x))
	}
	return out
}

// PredictWithVariance returns the ensemble mean — a running (Welford) mean,
// the serving path's probability — and an uncertainty score. If the members expose intrinsic variances (Gaussian processes), it returns
// the mean of member variances plus the between-member variance of means
// (the law of total variance); otherwise it returns the between-member
// prediction variance — the random-forest heuristic of Section V-C.
func (e *Ensemble) PredictWithVariance(x []float64) (p, variance float64) {
	if len(e.members) == 0 {
		panic(ml.ErrNotFitted)
	}
	n := float64(len(e.members))
	var mean, m2, intrinsic float64
	hasIntrinsic := false
	for i, m := range e.members {
		var pi, vi float64
		if um, ok := m.(ml.UncertaintyClassifier); ok {
			pi, vi = um.PredictWithVariance(x)
			hasIntrinsic = true
			intrinsic += vi
		} else {
			pi = m.PredictProba(x)
		}
		pi = e.calibrate(pi)
		// Welford update for between-member variance.
		delta := pi - mean
		mean += delta / float64(i+1)
		m2 += delta * (pi - mean)
	}
	between := m2 / n
	if hasIntrinsic {
		return mean, intrinsic/n + between
	}
	return mean, between
}

// PredictWithVarianceFlat returns PredictWithVariance for every row of X.
// Members predict concurrently over the whole matrix; the per-row Welford
// recursion then runs in member order, reproducing the pointwise floats bit
// for bit.
func (e *Ensemble) PredictWithVarianceFlat(X ml.Matrix) ([]float64, []float64) {
	if len(e.members) == 0 {
		panic(ml.ErrNotFitted)
	}
	// v is nil for a member without intrinsic variance.
	type memberOut struct{ p, v []float64 }
	outs := par.Map(e.cfg.Workers, len(e.members), func(b int) memberOut {
		if um, ok := e.members[b].(ml.UncertaintyClassifier); ok {
			p, v := um.PredictWithVarianceFlat(X)
			return memberOut{p, v}
		}
		return memberOut{p: e.members[b].PredictProbaFlat(X)}
	})
	n := float64(len(e.members))
	ps := make([]float64, X.Rows)
	vs := make([]float64, X.Rows)
	for row := range ps {
		var mean, m2, intrinsic float64
		hasIntrinsic := false
		for i, mo := range outs {
			pi := mo.p[row]
			if mo.v != nil {
				hasIntrinsic = true
				intrinsic += mo.v[row]
			}
			pi = e.calibrate(pi)
			delta := pi - mean
			mean += delta / float64(i+1)
			m2 += delta * (pi - mean)
		}
		between := m2 / n
		ps[row] = mean
		if hasIntrinsic {
			vs[row] = intrinsic/n + between
		} else {
			vs[row] = between
		}
	}
	return ps, vs
}

// JackknifeVariance returns the infinitesimal-jackknife variance estimate of
// the bagged prediction at x (Wager, Hastie & Efron 2014):
//
//	V_IJ = Σ_i Cov_b(N_{b,i}, p_b)²
//
// where N_{b,i} is the number of times training point i appears in bag b and
// p_b is member b's prediction. Requires Fit to have been called.
func (e *Ensemble) JackknifeVariance(x []float64) float64 {
	if len(e.members) == 0 {
		panic(ml.ErrNotFitted)
	}
	b := len(e.members)
	preds := e.MemberPredictions(x)
	var meanP float64
	for _, p := range preds {
		meanP += p
	}
	meanP /= float64(b)
	// Mean in-bag count per training point.
	meanN := make([]float64, e.nTrain)
	for _, counts := range e.inBag {
		for i, c := range counts {
			meanN[i] += float64(c)
		}
	}
	for i := range meanN {
		meanN[i] /= float64(b)
	}
	var v float64
	for i := 0; i < e.nTrain; i++ {
		var cov float64
		for bi, counts := range e.inBag {
			cov += (float64(counts[i]) - meanN[i]) * (preds[bi] - meanP)
		}
		cov /= float64(b)
		v += cov * cov
	}
	return v
}
