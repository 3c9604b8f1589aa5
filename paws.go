// Package paws is a from-scratch Go reproduction of the Protection
// Assistant for Wildlife Security (PAWS) pipeline described in "Stay Ahead
// of Poachers: Illegal Wildlife Poaching Prediction and Patrol Planning
// Under Uncertainty with Field Test Evaluations" (ICDE 2020) — grown into a
// servable system.
//
// # The Service façade
//
// The primary API is the long-lived, context-aware Service: construct one
// with deployment-wide defaults, then drive every pipeline stage through
// it. Each method takes a context.Context that is observed mid-computation
// (between weak-learner fits, batch-prediction chunks and planner solves),
// so cancellation and deadlines work against real training and serving
// load:
//
//	svc := paws.NewService(paws.WithWorkers(0), paws.WithSeed(7))
//	sc, _ := svc.Scenario(ctx, "MFNP", paws.WithScale(paws.ScaleSmall))
//	model, _ := svc.Train(ctx, split.Train, paws.WithKind(paws.GPBiW))
//
// Configuration is functional options (WithWorkers, WithKind,
// WithEnsembleSize, WithThresholds, WithCVFolds, …) shared by training,
// planning and the experiments; per-call options override the Service
// defaults. Every table and figure of the paper's evaluation is one Service
// method (Table1, Table2, Table3, Fig4, Fig6, Fig7, PlanStudy) that reads
// the merged options directly. Service.Train is the only way to train a
// model, and Service.AddModel the only way to build a PlannerModel over one.
//
// # Model persistence and serving
//
// A trained Model persists with Model.Save/Model.SaveFile in a versioned
// binary format and reloads with LoadModel/LoadModelFile; a loaded model's
// predictions are byte-identical to the original's for all six ModelKinds.
// Service.AddModel registers a model (fresh or loaded) under a name with a
// frozen serving context; Service.Predict/PredictWithVariance/PredictCells/
// RiskMaps/Plan then answer queries against it — the same probability for
// the same cell and effort — and internal/serve + cmd/pawsd expose them over
// JSON/HTTP (/v1/predict, /v1/riskmap, /v1/plan). Model.PredictPoints/AUC is
// the evaluation scorer behind Table II.
//
// # Closed-loop simulation
//
// Service.Simulate runs the plan → patrol → poacher-reaction → retrain loop
// of internal/env: patrol policies (the full PAWS pipeline vs
// uniform/historical/random baselines) compared head-to-head over multiple
// seasons against a static or adaptive attacker (poach.Attacker), on preset
// or procedural ("rand:<seed>") parks. cmd/pawssim is the CLI and
// /v1/simulate the HTTP surface.
//
// # Pipeline substrates
//
// The package ties together the substrates in internal/…:
//
//   - Scenario: a synthetic park (geo), its simulated SMART-style patrol
//     history (poach), and the processed dataset (dataset).
//   - Model: the six predictive variants of Table II — bagging ensembles of
//     SVMs, decision trees, or Gaussian processes, each with or without the
//     iWare-E wrapper — trained with one call.
//   - PlannerModel: the adapter exposing a trained model's effort-conditioned
//     detection probability g_v(c) and squashed uncertainty ν_v(c) to the
//     patrol planner (plan, game).
//   - Field tests (field) driven by a trained model's risk map.
//
// # Determinism
//
// Every entry point takes an explicit seed and is deterministic — including
// under parallel execution and concurrent serving: WithWorkers bounds a
// worker pool (internal/par) whose output is byte-identical for any worker
// count. A count of 1 forces sequential execution; 0 or negative sizes the
// pool to runtime.GOMAXPROCS(0), so -cpu / GOMAXPROCS set the pool size of
// the whole pipeline. A saved model records no worker count, so one model
// trained under any count saves to the same bytes, and a loaded model fans
// out over GOMAXPROCS workers.
package paws

import (
	"context"
	"errors"
	"fmt"
	"math"

	"paws/internal/dataset"
	"paws/internal/geo"
	"paws/internal/iware"
	"paws/internal/ml"
	"paws/internal/ml/bagging"
	"paws/internal/ml/gp"
	"paws/internal/ml/svm"
	"paws/internal/ml/tree"
	"paws/internal/poach"
	"paws/internal/stats"
)

// Scenario bundles a park with its simulated history and processed datasets.
type Scenario struct {
	Park    *geo.Park
	History *poach.History
	// Data is the standard quarterly dataset.
	Data *dataset.Dataset
	// DryData is the dry-season dataset (nil for non-seasonal parks).
	DryData *dataset.Dataset
}

// NewCustomScenario generates a scenario from explicit configurations.
func NewCustomScenario(parkCfg geo.ParkConfig, simCfg poach.SimConfig) (*Scenario, error) {
	return newScenario(context.TODO(), parkCfg, simCfg)
}

// newScenario generates a park, its simulated history and its datasets,
// observing ctx between the generation stages.
func newScenario(ctx context.Context, parkCfg geo.ParkConfig, simCfg poach.SimConfig) (*Scenario, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	park, err := geo.GeneratePark(parkCfg)
	if err != nil {
		return nil, fmt.Errorf("paws: generate park: %w", err)
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	hist, err := poach.Simulate(park, simCfg)
	if err != nil {
		return nil, fmt.Errorf("paws: simulate history: %w", err)
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	data, err := dataset.Build(hist, dataset.StandardConfig())
	if err != nil {
		return nil, fmt.Errorf("paws: build dataset: %w", err)
	}
	s := &Scenario{Park: park, History: hist, Data: data}
	if parkCfg.Seasonal {
		dry, err := dataset.Build(hist, dataset.DrySeasonConfig())
		if err != nil {
			return nil, fmt.Errorf("paws: build dry dataset: %w", err)
		}
		s.DryData = dry
	}
	return s, nil
}

// ctxErr reports a context's error, tolerating nil contexts (which every
// context-taking entry point treats as context.Background()).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// ModelKind selects one of the six Table II predictive models.
type ModelKind int

const (
	// SVB is a bagging ensemble of linear SVMs.
	SVB ModelKind = iota
	// DTB is a bagging ensemble of decision trees (a random forest).
	DTB
	// GPB is a bagging ensemble of Gaussian-process classifiers.
	GPB
	// SVBiW is SVB wrapped in iWare-E.
	SVBiW
	// DTBiW is DTB wrapped in iWare-E.
	DTBiW
	// GPBiW is GPB wrapped in iWare-E — the paper's preferred model.
	GPBiW
)

func (k ModelKind) String() string {
	switch k {
	case SVB:
		return "SVB"
	case DTB:
		return "DTB"
	case GPB:
		return "GPB"
	case SVBiW:
		return "SVB-iW"
	case DTBiW:
		return "DTB-iW"
	case GPBiW:
		return "GPB-iW"
	}
	return fmt.Sprintf("ModelKind(%d)", int(k))
}

// IsIWare reports whether the kind uses the iWare-E wrapper.
func (k ModelKind) IsIWare() bool { return k == SVBiW || k == DTBiW || k == GPBiW }

// ParseModelKind converts a Table II model name ("SVB", "DTB", "GPB",
// "SVB-iW", "DTB-iW", "GPB-iW") to its ModelKind.
func ParseModelKind(s string) (ModelKind, error) {
	for _, k := range []ModelKind{SVB, DTB, GPB, SVBiW, DTBiW, GPBiW} {
		if s == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("paws: unknown model kind %q (want SVB, DTB, GPB, SVB-iW, DTB-iW or GPB-iW)", s)
}

// maxThresholdPercentile is the training-effort percentile of the top rung
// of the iWare-E ladder Service.Train places.
const maxThresholdPercentile = 80

// Model is a trained predictive model, either a plain bagging ensemble or an
// iWare-E ensemble of them.
type Model struct {
	Kind ModelKind

	// numFeatures is the feature-vector width the model was trained on
	// (0 in models from builds predating persistence).
	numFeatures int

	plain *bagging.Ensemble
	iw    *iware.Model
}

// NumFeatures returns the feature-vector width the model was trained on.
func (m *Model) NumFeatures() int { return m.numFeatures }

// weakLearnerFactory builds the base bagging ensemble for the merged
// settings' model family.
func (s settings) weakLearnerFactory(numFeatures int) func(seed int64) *bagging.Ensemble {
	var base ml.Factory
	switch s.kind {
	case SVB, SVBiW:
		base = func(seed int64) ml.Classifier {
			return svm.New(svm.Config{Seed: seed})
		}
	case DTB, DTBiW:
		mf := int(math.Sqrt(float64(numFeatures)) + 0.5)
		depth := positiveOr(s.treeDepth, 10)
		base = func(seed int64) ml.Classifier {
			return tree.New(tree.Config{MaxDepth: depth, MinLeaf: 2, MaxFeatures: mf, Seed: seed})
		}
	case GPB, GPBiW:
		maxTrain := positiveOr(s.gpMaxTrain, 150)
		base = func(seed int64) ml.Classifier {
			return gp.New(gp.Config{MaxTrain: maxTrain, Seed: seed})
		}
	}
	return func(seed int64) *bagging.Ensemble {
		return bagging.New(base, bagging.Config{
			Members:  positiveOr(s.members, 10),
			Balanced: s.balanced,
			Seed:     seed,
			Workers:  s.workers,
		})
	}
}

// train is Service.Train under the merged settings.
func (s settings) train(ctx context.Context, pts []dataset.Point) (*Model, error) {
	if len(pts) == 0 {
		return nil, errors.New("paws: no training points")
	}
	var thresholds []float64
	if s.kind.IsIWare() {
		thresholds = dataset.EffortPercentileThresholds(pts, positiveOr(s.thresholds, 10), maxThresholdPercentile)
	}
	return s.fit(ctx, pts, thresholds)
}

// fit trains the merged settings' model kind on a non-empty training set:
// the bagging ensemble itself for plain kinds, an iWare-E ensemble over the
// given threshold ladder for iWare-E kinds. Unset settings take the
// defaults of 10 members per ensemble, at most 150 training points per GP
// and trees 10 deep.
func (s settings) fit(ctx context.Context, pts []dataset.Point, thresholds []float64) (*Model, error) {
	X := make([][]float64, len(pts))
	y := make([]int, len(pts))
	eff := make([]float64, len(pts))
	for i, p := range pts {
		X[i] = p.Features
		y[i] = p.Label
		eff[i] = p.Effort
	}
	m := &Model{Kind: s.kind, numFeatures: len(X[0])}
	factory := s.weakLearnerFactory(len(X[0]))
	if !s.kind.IsIWare() {
		// Plain kinds: the weak learners are the bagging members.
		ens := factory(s.seed)
		ens.OnMemberFit(progressCounter(s.progress, "train"))
		if err := ens.FitCtx(ctx, X, y); err != nil {
			return nil, trainErr(s.kind, err)
		}
		m.plain = ens
		return m, nil
	}
	iw, err := iware.Fit(ctx, X, y, eff, iware.Config{
		Thresholds:  thresholds,
		WeakLearner: factory,
		CVFolds:     s.cvFolds,
		Seed:        s.seed,
		Workers:     s.workers,
		// iWare-E kinds: the weak learners are the ladder slices.
		Progress: progressCounter(s.progress, "train"),
	})
	if err != nil {
		return nil, trainErr(s.kind, err)
	}
	m.iw = iw
	return m, nil
}

// trainErr wraps a training failure, passing context errors through
// unwrapped so errors.Is(err, context.Canceled/DeadlineExceeded) works at
// every call depth.
func trainErr(kind ModelKind, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return fmt.Errorf("paws: train %v: %w", kind, err)
}

// PredictWithVariance returns the detection probability and uncertainty of
// one feature vector at a planned effort: the pointwise reference the batch
// path is tested against, and Fig. 7's scorer.
func (m *Model) PredictWithVariance(features []float64, effort float64) (p, variance float64) {
	if m.iw != nil {
		return m.iw.PredictWithVarianceForEffort(features, effort)
	}
	return m.plain.PredictWithVariance(features)
}

// PredictWithVarianceFlat scores every row of X at one planned effort — the
// only batch prediction path. It takes the ladder memo's two steps
// (predictRungsFlat, then combineRungs per row), so a prediction and a
// risk-map entry for one cell and effort are the same float.
func (m *Model) PredictWithVarianceFlat(X ml.Matrix, effort float64) (p, variance []float64) {
	nq := m.qualifiedRungs(effort)
	rp, rv := m.predictRungsFlat(X, 0, nq)
	p, variance = make([]float64, X.Rows), make([]float64, X.Rows)
	pi, vi := make([]float64, nq), make([]float64, nq)
	for row := range p {
		for i := range pi {
			pi[i], vi[i] = rp[i][row], rv[i][row]
		}
		p[row], variance[row] = m.combineRungs(pi, vi, X.Row(row), effort)
	}
	return p, variance
}

// PredictPoints scores test points at their recorded efforts — Table II's
// scorer behind AUC. It averages bagged members with the sum mean
// (bagging.Ensemble.PredictProba), not the serving path's running mean.
func (m *Model) PredictPoints(pts []dataset.Point) []float64 {
	X := make([][]float64, len(pts))
	eff := make([]float64, len(pts))
	for i, p := range pts {
		X[i] = p.Features
		eff[i] = p.Effort
	}
	if m.iw != nil {
		return m.iw.PredictPoints(X, eff)
	}
	return m.plain.PredictProbaFlat(ml.MatrixFromRows(X))
}

// AUC evaluates the model on test points.
func (m *Model) AUC(pts []dataset.Point) float64 {
	return stats.AUC(dataset.Labels(pts), m.PredictPoints(pts))
}

// IWare exposes the underlying iWare-E ensemble (nil for plain models).
func (m *Model) IWare() *iware.Model { return m.iw }

// Ensemble exposes the underlying bagging ensemble (nil for iWare models).
func (m *Model) Ensemble() *bagging.Ensemble { return m.plain }
