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
// planning and the experiment runners; per-call options override the
// Service defaults. Under the Service, each compute step (Train,
// NewPlannerModel, RunTable*/RunFig*, NewPlanStudy) is a context-taking
// function over its options struct.
//
// # Model persistence and serving
//
// A trained Model persists with Model.Save/Model.SaveFile in a versioned
// binary format and reloads with LoadModel/LoadModelFile; a loaded model's
// predictions are byte-identical to the original's for all six ModelKinds.
// Service.AddModel registers a model (fresh or loaded) under a name with a
// frozen serving context; Service.Predict/PredictCells/RiskMaps/Plan then
// answer queries against it, and internal/serve + cmd/pawsd expose those
// queries over JSON/HTTP (/v1/predict, /v1/riskmap, /v1/plan).
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
// under parallel execution and concurrent serving: WithWorkers (and the
// Workers fields on the option structs) bound a worker pool
// (internal/par) whose output is byte-identical for any worker count.
// Workers = 1 forces sequential execution; 0 or negative sizes the pool to
// runtime.GOMAXPROCS(0), so -cpu / GOMAXPROCS scale the whole pipeline.
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

// TrainOptions tunes model training. Zero values select paper-flavoured
// defaults scaled for interactive use.
type TrainOptions struct {
	Kind ModelKind
	// Thresholds is the iWare-E threshold-ladder size (paper: 20 for
	// MFNP/QENP, 10 for SWS). Default 10.
	Thresholds int
	// MaxThresholdPercentile is the top percentile for the ladder
	// (default 80).
	MaxThresholdPercentile float64
	// Members is the bagging ensemble size (default 10).
	Members int
	// Balanced enables balanced bagging — undersampling negatives — the
	// paper's remedy for SWS-grade imbalance.
	Balanced bool
	// CVFolds enables iWare-E weight optimization (0 = uniform weights).
	CVFolds int
	// GPMaxTrain caps each GP's training subsample (default 150).
	GPMaxTrain int
	// TreeDepth caps decision-tree depth (default 10).
	TreeDepth int
	Seed      int64
	// Workers bounds the goroutines used to train ensemble members /
	// iWare-E ladder slices concurrently and to fan batch predictions out
	// (par.Workers semantics: 1 forces sequential execution, 0 or negative
	// uses one worker per CPU, i.e. GOMAXPROCS). Training and prediction
	// results are byte-identical for every worker count.
	Workers int
	// progress observes per-weak-learner fit completion (WithProgress).
	// Unexported deliberately: the field is set through the Service options
	// and must stay out of the gob-encoded model envelope (persist.go).
	progress ProgressFunc
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.Thresholds <= 0 {
		o.Thresholds = 10
	}
	if o.MaxThresholdPercentile <= 0 {
		o.MaxThresholdPercentile = 80
	}
	if o.Members <= 0 {
		o.Members = 10
	}
	if o.GPMaxTrain <= 0 {
		o.GPMaxTrain = 150
	}
	if o.TreeDepth <= 0 {
		o.TreeDepth = 10
	}
	return o
}

// Model is a trained predictive model, either a plain bagging ensemble or an
// iWare-E ensemble of them.
type Model struct {
	Kind ModelKind
	opts TrainOptions

	// numFeatures is the feature-vector width the model was trained on
	// (0 in models from builds predating persistence).
	numFeatures int

	plain *bagging.Ensemble
	iw    *iware.Model
}

// NumFeatures returns the feature-vector width the model was trained on.
func (m *Model) NumFeatures() int { return m.numFeatures }

// weakLearnerFactory builds the base bagging ensemble for the model family.
func weakLearnerFactory(kind ModelKind, o TrainOptions, numFeatures int) ml.Factory {
	var base ml.Factory
	switch kind {
	case SVB, SVBiW:
		base = func(seed int64) ml.Classifier {
			return svm.New(svm.Config{Epochs: 12, Seed: seed, ClassWeighted: true})
		}
	case DTB, DTBiW:
		mf := int(math.Sqrt(float64(numFeatures)) + 0.5)
		base = func(seed int64) ml.Classifier {
			return tree.New(tree.Config{MaxDepth: o.TreeDepth, MinLeaf: 2, MaxFeatures: mf, Seed: seed})
		}
	case GPB, GPBiW:
		base = func(seed int64) ml.Classifier {
			return gp.New(gp.Config{MaxTrain: o.GPMaxTrain, Seed: seed})
		}
	}
	return func(seed int64) ml.Classifier {
		return bagging.New(base, bagging.Config{
			Members:  o.Members,
			Balanced: o.Balanced,
			Seed:     seed,
			Workers:  o.Workers,
		})
	}
}

// Train fits the selected model on training points. Cancellation and
// deadlines are observed between weak-learner fits (ensemble members,
// iWare-E ladder slices and CV tasks): fits already in flight drain, no new
// fit starts, and the context's error is returned.
func Train(ctx context.Context, train []dataset.Point, opts TrainOptions) (*Model, error) {
	if len(train) == 0 {
		return nil, errors.New("paws: no training points")
	}
	o := opts.withDefaults()
	var thresholds []float64
	if o.Kind.IsIWare() {
		thresholds = dataset.EffortPercentileThresholds(train, o.Thresholds, o.MaxThresholdPercentile)
	}
	return fit(ctx, train, thresholds, o)
}

// TrainWithThresholds trains an iWare-E model with an explicit threshold
// ladder instead of the percentile-derived one — used by the threshold
// ablation (the original iWare-E used fixed-kilometre grids). It observes
// ctx as Train does.
func TrainWithThresholds(ctx context.Context, train []dataset.Point, thresholds []float64, opts TrainOptions) (*Model, error) {
	if len(train) == 0 {
		return nil, errors.New("paws: no training points")
	}
	o := opts.withDefaults()
	if !o.Kind.IsIWare() {
		return nil, errors.New("paws: explicit thresholds require an iWare-E kind")
	}
	return fit(ctx, train, thresholds, o)
}

// fit trains the defaults-filled options o on a non-empty training set: the
// bagging ensemble itself for plain kinds, an iWare-E ensemble over the
// threshold ladder for iWare-E kinds.
func fit(ctx context.Context, train []dataset.Point, thresholds []float64, o TrainOptions) (*Model, error) {
	X := make([][]float64, len(train))
	y := make([]int, len(train))
	eff := make([]float64, len(train))
	for i, p := range train {
		X[i] = p.Features
		y[i] = p.Label
		eff[i] = p.Effort
	}
	// The stored options must not retain the progress closure: a Model can
	// live for the process lifetime in a Service registry, and the closure
	// would pin its train job's event log and request. Nothing on the
	// predict path reports progress.
	stored := o
	stored.progress = nil
	m := &Model{Kind: o.Kind, opts: stored, numFeatures: len(X[0])}
	factory := weakLearnerFactory(o.Kind, o, len(X[0]))
	if !o.Kind.IsIWare() {
		// Plain kinds: the weak learners are the bagging members.
		ens := factory(o.Seed).(*bagging.Ensemble)
		ens.OnMemberFit(progressCounter(o.progress, "train"))
		if err := ens.FitCtx(ctx, X, y); err != nil {
			return nil, trainErr(o.Kind, err)
		}
		m.plain = ens
		return m, nil
	}
	iw, err := iware.Fit(ctx, X, y, eff, iware.Config{
		Thresholds:  thresholds,
		WeakLearner: factory,
		CVFolds:     o.CVFolds,
		Seed:        o.Seed,
		Workers:     o.Workers,
		// iWare-E kinds: the weak learners are the ladder slices.
		Progress: progressCounter(o.progress, "train"),
	})
	if err != nil {
		return nil, trainErr(o.Kind, err)
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

// PredictForEffort returns the detection probability for a feature vector at
// a planned patrol effort. Plain models ignore the effort.
func (m *Model) PredictForEffort(features []float64, effort float64) float64 {
	if m.iw != nil {
		return m.iw.PredictForEffort(features, effort)
	}
	return m.plain.PredictProba(features)
}

// PredictWithVariance additionally returns the model's uncertainty.
func (m *Model) PredictWithVariance(features []float64, effort float64) (p, variance float64) {
	if m.iw != nil {
		return m.iw.PredictWithVarianceForEffort(features, effort)
	}
	return m.plain.PredictWithVariance(features)
}

// PredictForEffortFlat scores every row of a flat row-major matrix at one
// planned effort — the batch path the planner and serving layers use. It
// matches PredictForEffort row for row, bit for bit.
func (m *Model) PredictForEffortFlat(X ml.Matrix, effort float64) []float64 {
	if m.iw != nil {
		return m.iw.PredictForEffortFlat(X, effort)
	}
	return m.plain.PredictProbaFlat(X)
}

// PredictWithVarianceFlat is PredictForEffortFlat returning the model's
// uncertainty too; it matches PredictWithVariance row for row.
func (m *Model) PredictWithVarianceFlat(X ml.Matrix, effort float64) (p, variance []float64) {
	if m.iw != nil {
		return m.iw.PredictWithVarianceForEffortFlat(X, effort)
	}
	return m.plain.PredictWithVarianceFlat(X)
}

// PredictPoints scores test points at their recorded efforts via the
// vectorized prediction paths.
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
