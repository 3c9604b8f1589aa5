// Package iware implements the imperfect-observation-aware ensemble
// (iWare-E) of Gholami et al. with the three enhancements introduced by the
// paper (Section IV):
//
//  1. Thresholds θ_i are chosen by patrol-effort percentile so each weak
//     learner trains on a consistent amount of data (the caller supplies the
//     ladder, typically via dataset.EffortPercentileThresholds).
//  2. Classifier weights are optimized by k-fold cross-validation minimizing
//     the log loss of the qualified-weighted ensemble prediction, instead of
//     equal weighting.
//  3. Weak learners may be Gaussian-process ensembles, in which case the
//     model exposes an effort-conditioned predictive variance ν(x, c) used
//     downstream for robust patrol planning.
//
// Construction: weak learner C_i trains on the subset D_i that keeps every
// positive example but only negatives recorded under patrol effort > θ_i —
// low-effort negatives are unreliable (the snare may simply not have been
// found). At prediction time for a planned effort c, exactly the classifiers
// with θ_i ≤ c are qualified: their filtered training distributions are
// consistent with what patrolling at effort c can observe. The ensemble
// output is the weight-normalized average over qualified classifiers, which
// makes the prediction a monotone step function of effort — the g_v(c)
// consumed by the patrol planner.
package iware

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"paws/internal/ml"
	"paws/internal/ml/bagging"
	"paws/internal/par"
	"paws/internal/rng"
	"paws/internal/stats"
)

// ErrNoThresholds is returned when Config.Thresholds is empty.
var ErrNoThresholds = errors.New("iware: no thresholds provided")

// Config controls the ensemble.
type Config struct {
	// Thresholds is the ascending effort ladder θ_1 ≤ … ≤ θ_I. The first
	// threshold should be 0 so at least one classifier is always qualified.
	Thresholds []float64
	// WeakLearner builds one untrained weak learner per threshold: a bagging
	// ensemble, which fits on its rung's rows of the training set every rung
	// shares.
	WeakLearner func(seed int64) *bagging.Ensemble
	// CVFolds enables weight optimization with this many folds (0 or 1
	// disables optimization and uses uniform weights — the iWare-E baseline
	// of Gholami et al.).
	CVFolds int
	// Seed drives fold assignment and weak-learner seeds.
	Seed int64
	// Workers bounds the goroutines used to fit ladder slices and CV folds
	// and to fan batch predictions out across classifiers (par.Workers
	// semantics: 1 is sequential, ≤ 0 means GOMAXPROCS). Seeds are derived
	// before fan-out, so results are identical for any worker count.
	Workers int
	// Progress, when non-nil, is invoked after each weak-learner fit of the
	// final ladder refit with (fitted so far, ladder size). It may be
	// called concurrently from worker goroutines and must not affect the
	// computation; it is excluded from the persisted model state.
	Progress func(done, total int)
}

// Model is a fitted iWare-E ensemble.
type Model struct {
	cfg         Config
	thresholds  []float64
	classifiers []ml.Classifier
	weights     []float64
}

// Fit trains the ensemble on features X, labels y and per-point patrol
// efforts (the efforts are used for filtering and qualification only; they
// are never model inputs). Cancellation is observed between weak-learner
// fits (both the CV weight-optimization tasks and the final ladder refit):
// in-flight fits drain, no new fit starts, and ctx.Err() is returned.
func Fit(ctx context.Context, X [][]float64, y []int, efforts []float64, cfg Config) (*Model, error) {
	if len(cfg.Thresholds) == 0 {
		return nil, ErrNoThresholds
	}
	if cfg.WeakLearner == nil {
		return nil, errors.New("iware: nil weak learner factory")
	}
	if err := ml.CheckXY(X, y); err != nil {
		return nil, err
	}
	if len(efforts) != len(X) {
		return nil, fmt.Errorf("iware: %d efforts for %d rows", len(efforts), len(X))
	}
	thresholds := append([]float64(nil), cfg.Thresholds...)
	sort.Float64s(thresholds)
	m := &Model{cfg: cfg, thresholds: thresholds}
	// Every weak learner, CV folds included, fits on rows of this one set,
	// so tree members share one sort of X.
	d := ml.NewTrainSet(X, y)

	// Optimize weights by cross-validation before the final refit.
	if cfg.CVFolds > 1 {
		w, err := optimizeWeights(ctx, d, efforts, thresholds, cfg)
		if err != nil {
			return nil, err
		}
		m.weights = w
	} else {
		m.weights = uniformWeights(len(thresholds))
	}

	// Final refit of every weak learner on the full (filtered) training
	// data. Ladder slices are independent, so they fit concurrently; seeds
	// are drained from the stream in ladder order first, which keeps the
	// result identical to a sequential run.
	seeds := par.SeedsFrom(rng.New(cfg.Seed), len(thresholds))
	m.classifiers = make([]ml.Classifier, len(thresholds))
	var fitted atomic.Int64
	err := par.ForEachErrCtx(ctx, cfg.Workers, len(thresholds), func(i int) error {
		th := thresholds[i]
		c := cfg.WeakLearner(seeds[i])
		// An empty slice fails (ml.ErrNoData); a single-class one goes to
		// the learner as is.
		if err := c.FitRows(ctx, d, filterIndices(y, efforts, th)); err != nil {
			return fmt.Errorf("iware: classifier %d (θ=%.3f): %w", i, th, err)
		}
		m.classifiers[i] = c
		if cfg.Progress != nil {
			cfg.Progress(int(fitted.Add(1)), len(thresholds))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The hook's job is done; drop it so a long-lived fitted model never
	// pins whatever the callback closed over (e.g. an async train job's
	// event stream). It is excluded from persistence anyway.
	m.cfg.Progress = nil
	return m, nil
}

// filterIndices implements the iWare-E data filter: keep all positives, and
// keep negatives only when their patrol effort exceeds the threshold.
// Discarding only negatives is the key imbalance-aware insight of iWare-E.
func filterIndices(y []int, efforts []float64, threshold float64) []int32 {
	var idx []int32
	for i := range y {
		if y[i] == 1 || efforts[i] > threshold {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// Thresholds returns the sorted threshold ladder.
func (m *Model) Thresholds() []float64 { return m.thresholds }

// Weights returns the classifier weights (simplex).
func (m *Model) Weights() []float64 { return m.weights }

// Classifiers exposes the fitted weak learners (for diagnostics).
func (m *Model) Classifiers() []ml.Classifier { return m.classifiers }

// NumFeatures returns the feature-vector width the ladder was fitted on.
func (m *Model) NumFeatures() int { return m.classifiers[0].NumFeatures() }

// QualifiedRungs returns the number of leading rungs qualified for a planned
// effort c — those with θ_i ≤ c, the prefix a prediction at c combines. At
// least one rung is always qualified so predictions remain defined at c = 0.
func (m *Model) QualifiedRungs(c float64) int {
	n := sort.SearchFloat64s(m.thresholds, math.Nextafter(c, math.Inf(1)))
	if n == 0 {
		n = 1
	}
	return n
}

// PredictForEffort returns the ensemble probability that patrolling cell x
// with effort c yields a detected attack: the weight-normalized average of
// the qualified classifiers.
func (m *Model) PredictForEffort(x []float64, c float64) float64 {
	n := m.QualifiedRungs(c)
	var num, den float64
	for i := 0; i < n; i++ {
		w := m.weights[i]
		if w <= 0 {
			continue
		}
		num += w * m.classifiers[i].PredictProba(x)
		den += w
	}
	if den == 0 {
		// All qualified weights zero: fall back to uniform over qualified.
		for i := 0; i < n; i++ {
			num += m.classifiers[i].PredictProba(x)
		}
		return num / float64(n)
	}
	return num / den
}

// PredictWithVarianceForEffort returns the ensemble probability and the
// aggregated uncertainty: the weight-normalized average of the qualified
// classifiers' variances (intrinsic for GP weak learners, between-member for
// bagged trees). Weak learners without uncertainty contribute zero variance.
func (m *Model) PredictWithVarianceForEffort(x []float64, c float64) (p, variance float64) {
	n := m.QualifiedRungs(c)
	ps, vs := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		if m.weights[i] <= 0 {
			continue
		}
		if uc, ok := m.classifiers[i].(ml.UncertaintyClassifier); ok {
			ps[i], vs[i] = uc.PredictWithVariance(x)
		} else {
			ps[i] = m.classifiers[i].PredictProba(x)
		}
	}
	return m.CombineRungs(ps, vs, x, c)
}

// NumRungs returns the ladder size: the number of weak learners.
func (m *Model) NumRungs() int { return len(m.classifiers) }

// PredictRungsFlat evaluates the weak learners of rungs [lo, hi) on every
// row of X: p[i-lo][row] and v[i-lo][row] are rung i's probability and
// variance. A weak learner's output does not depend on the planned effort,
// so a caller may keep these per row and combine any qualified prefix later
// with CombineRungs. Rungs run concurrently (Config.Workers). Zero-weight
// rungs never enter a combination and are not evaluated (their columns read
// zero), and a learner without uncertainty has a zero variance column.
func (m *Model) PredictRungsFlat(X ml.Matrix, lo, hi int) (p, v [][]float64) {
	p = make([][]float64, hi-lo)
	v = make([][]float64, hi-lo)
	par.ForEach(m.cfg.Workers, hi-lo, func(k int) {
		i := lo + k
		uc, ok := m.classifiers[i].(ml.UncertaintyClassifier)
		switch {
		case m.weights[i] <= 0:
			p[k], v[k] = make([]float64, X.Rows), make([]float64, X.Rows)
		case ok:
			p[k], v[k] = uc.PredictWithVarianceFlat(X)
		default:
			p[k], v[k] = m.classifiers[i].PredictProbaFlat(X), make([]float64, X.Rows)
		}
	})
	return p, v
}

// CombineRungs reduces one point's rung outputs to the ensemble prediction
// at planned effort c: the weight-normalized average of the qualified
// prefix, in ladder order. p[i] and v[i] hold rung i's outputs for the point
// (at least QualifiedRungs(c) entries; those of zero-weight rungs are
// ignored). When every qualified weight is zero it falls back to the
// pointwise PredictForEffort on x — a uniform average of PredictProba, not
// of the uncertainty-path means — with zero variance. Every serving path
// ends here, so they agree bit for bit: PredictWithVarianceForEffort, and
// through the root package's batch path and ladder memo the Service's
// Predict, PredictWithVariance, PredictCells, RiskMaps and Plan.
func (m *Model) CombineRungs(p, v, x []float64, c float64) (prob, variance float64) {
	n := m.QualifiedRungs(c)
	var num, den, vnum float64
	for i := 0; i < n; i++ {
		w := m.weights[i]
		if w <= 0 {
			continue
		}
		num += w * p[i]
		vnum += w * v[i]
		den += w
	}
	if den == 0 {
		return m.PredictForEffort(x, c), 0
	}
	return num / den, vnum / den
}

// combineQualified reduces per-classifier predictions for one point exactly
// as PredictForEffort does: weight-normalized average over the first nq
// classifiers, falling back to a uniform average when all qualified weights
// are zero. preds[i] must hold classifier i's PredictProba for the point.
// It is the reduction of PredictPoints, Table II's scorer.
func (m *Model) combineQualified(preds []float64, nq int) float64 {
	var num, den float64
	for i := 0; i < nq; i++ {
		w := m.weights[i]
		if w <= 0 {
			continue
		}
		num += w * preds[i]
		den += w
	}
	if den == 0 {
		num = 0
		for i := 0; i < nq; i++ {
			num += preds[i]
		}
		return num / float64(nq)
	}
	return num / den
}

// PredictPoints scores test points at their recorded efforts — the Table II
// evaluation mode. Points are scored in vectorized form: classifier i batch-
// predicts one matrix of exactly the points whose recorded effort qualifies
// it, with classifiers running concurrently (Config.Workers); the per-point
// weighted combination is unchanged, so results match the pointwise
// PredictForEffort bit for bit — the sum-mean scorer Table II is pinned to,
// not the uncertainty path CombineRungs reduces.
func (m *Model) PredictPoints(X [][]float64, efforts []float64) []float64 {
	nq := make([]int, len(X))
	maxQ := 0
	for v := range X {
		nq[v] = m.QualifiedRungs(efforts[v])
		if nq[v] > maxQ {
			maxQ = nq[v]
		}
	}
	// preds[i][v] is classifier i's probability for point v, filled only
	// where i < nq[v] (qualification is a prefix of the ladder).
	preds := par.Map(m.cfg.Workers, maxQ, func(i int) []float64 {
		var rows [][]float64
		var idx []int
		for v := range X {
			if i < nq[v] {
				rows = append(rows, X[v])
				idx = append(idx, v)
			}
		}
		dense := make([]float64, len(X))
		for k, p := range m.classifiers[i].PredictProbaFlat(ml.MatrixFromRows(rows)) {
			dense[idx[k]] = p
		}
		return dense
	})
	out := make([]float64, len(X))
	perPoint := make([]float64, maxQ)
	for v := range X {
		for i := 0; i < nq[v]; i++ {
			perPoint[i] = preds[i][v]
		}
		out[v] = m.combineQualified(perPoint, nq[v])
	}
	return out
}

// uniformWeights returns the equal-weight simplex point.
func uniformWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	return w
}

// optimizeWeights runs the paper's enhancement: k-fold CV predictions from
// every weak learner, then exponentiated-gradient descent on the simplex
// minimizing the log loss of the qualified-weighted ensemble output.
func optimizeWeights(ctx context.Context, d *ml.TrainSet, efforts []float64, thresholds []float64, cfg Config) ([]float64, error) {
	X, y := d.X, d.Y
	n := len(X)
	I := len(thresholds)
	r := rng.New(cfg.Seed)
	folds := ml.KFold(n, cfg.CVFolds, r.Split("folds"))

	// preds[v][i]: classifier i's CV prediction for validation point v.
	preds := make([][]float64, n)
	for v := range preds {
		preds[v] = make([]float64, I)
	}
	// Stage every (fold, threshold) fit sequentially — including the seed
	// draws, which historically happen only for non-empty filtered slices —
	// then run the fits concurrently. Each task owns disjoint (v, i) slots
	// of preds, so the fan-out is race-free and order-independent.
	type cvTask struct {
		rows   []int32 // the fold's training rows kept by threshold i
		valIdx []int
		seed   int64
		i      int // classifier (threshold) index
	}
	var tasks []cvTask
	seedRNG := r.Split("cv-seeds")
	for _, valIdx := range folds {
		trIdx := ml.TrainIndices(n, valIdx)
		trY := make([]int, len(trIdx))
		trEff := make([]float64, len(trIdx))
		for i, j := range trIdx {
			trY[i], trEff[i] = y[j], efforts[j]
		}
		for i, th := range thresholds {
			rows := filterIndices(trY, trEff, th)
			if len(rows) == 0 {
				for _, v := range valIdx {
					preds[v][i] = 0.5
				}
				continue
			}
			for k, j := range rows {
				rows[k] = int32(trIdx[j])
			}
			tasks = append(tasks, cvTask{rows: rows, valIdx: valIdx, seed: seedRNG.Int63(), i: i})
		}
	}
	err := par.ForEachErrCtx(ctx, cfg.Workers, len(tasks), func(t int) error {
		task := tasks[t]
		c := cfg.WeakLearner(task.seed)
		if err := c.FitRows(ctx, d, task.rows); err != nil {
			return fmt.Errorf("iware: CV classifier %d: %w", task.i, err)
		}
		// X is rectangular (Fit checked it), so rows copy in whole.
		valX := ml.NewMatrix(len(task.valIdx), len(X[0]))
		for k, v := range task.valIdx {
			copy(valX.Row(k), X[v])
		}
		for k, p := range c.PredictProbaFlat(valX) {
			preds[task.valIdx[k]][task.i] = p
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Qualification mask by each point's recorded effort.
	qual := make([][]bool, n)
	for v := 0; v < n; v++ {
		qual[v] = make([]bool, I)
		nq := sort.SearchFloat64s(thresholds, math.Nextafter(efforts[v], math.Inf(1)))
		if nq == 0 {
			nq = 1
		}
		for i := 0; i < nq; i++ {
			qual[v][i] = true
		}
	}
	return egMinimizeLogLoss(preds, qual, y), nil
}

// egMinimizeLogLoss runs exponentiated-gradient descent over the simplex.
func egMinimizeLogLoss(preds [][]float64, qual [][]bool, y []int) []float64 {
	n := len(preds)
	if n == 0 {
		return uniformWeights(1)
	}
	I := len(preds[0])
	w := uniformWeights(I)
	const eta = 0.5
	const eps = 1e-9
	const iters = 200
	grad := make([]float64, I)
	for it := 0; it < iters; it++ {
		for i := range grad {
			grad[i] = 0
		}
		for v := 0; v < n; v++ {
			var num, den float64
			for i := 0; i < I; i++ {
				if qual[v][i] {
					num += w[i] * preds[v][i]
					den += w[i]
				}
			}
			if den < eps {
				continue
			}
			p := stats.Clamp(num/den, 1e-7, 1-1e-7)
			// d(logloss)/dp = (p − y) / (p(1−p)).
			dldp := (p - float64(y[v])) / (p * (1 - p))
			for i := 0; i < I; i++ {
				if qual[v][i] {
					grad[i] += dldp * (preds[v][i] - p) / den
				}
			}
		}
		// Normalize gradient scale and take the mirror-descent step.
		maxg := 0.0
		for _, g := range grad {
			if a := math.Abs(g); a > maxg {
				maxg = a
			}
		}
		if maxg < 1e-12 {
			break
		}
		var sum float64
		for i := range w {
			w[i] *= math.Exp(-eta * grad[i] / maxg)
			sum += w[i]
		}
		for i := range w {
			w[i] /= sum
		}
	}
	return w
}

// SquashVariance maps a non-negative variance to [0, 1) with the logistic
// squashing the paper applies before weighting uncertainty in the planner
// objective (Section VI-C): squash(v) = 2σ(v/scale) − 1.
func SquashVariance(v, scale float64) float64 {
	if v <= 0 {
		return 0
	}
	if scale <= 0 {
		scale = 1
	}
	return 2*stats.Logistic(v/scale) - 1
}
