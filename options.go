package paws

import "paws/internal/plan"

// Option is a functional configuration knob shared by the Service façade:
// the same WithX values tune training (Service.Train), planning
// (Service.PlanStudy, Service.Plan) and the experiment runners
// (Service.Table1/Table2/…). Options irrelevant to a call are ignored, so a
// Service can be constructed once with the full deployment configuration
// (workers, seed, ensemble shape) and reused across every entry point.
//
// Precedence: per-call options override Service-level defaults, which
// override the zero-value paper-flavoured defaults of the underlying option
// structs (TrainOptions.withDefaults et al.).
type Option func(*settings)

// settings is the merged state behind the functional options. Fields mirror
// the option structs (TrainOptions, Table2Options, PlanStudyOptions,
// Table3Options); the *Set flags distinguish "not specified" from genuine
// zero values where zero is meaningful.
type settings struct {
	workers int

	seed int64

	// progress observes ProgressEvents from the compute layers
	// (WithProgress); nil disables reporting.
	progress ProgressFunc

	// Training.
	kind       ModelKind
	kindSet    bool
	thresholds int
	maxThPct   float64
	members    int
	balanced   bool
	cvFolds    int
	gpMaxTrain int
	treeDepth  int

	// Scenario generation.
	scale Scale

	// Experiment sweeps.
	kinds      []ModelKind
	testYears  []int
	trainYears int
	dry        bool

	// Planning.
	betas         []float64
	segmentCounts []int
	posts         int
	radius        int
	maxCells      int
	horizonT      int
	horizonK      float64
	segments      int
	solver        plan.SolverKind
	hierarchical  bool
	hierSet       bool

	// Field tests.
	perGroup           int
	effortPerCellMonth float64
}

// apply folds opts into a copy of s and returns it.
func (s settings) apply(opts []Option) settings {
	for _, o := range opts {
		if o != nil {
			o(&s)
		}
	}
	return s
}

// WithWorkers bounds the goroutines used by training, batch prediction, map
// generation and experiment sweeps (par.Workers semantics: 1 forces
// sequential execution, 0 or negative sizes the pool to GOMAXPROCS).
// Results are byte-identical for any worker count.
func WithWorkers(n int) Option { return func(s *settings) { s.workers = n } }

// WithSeed sets the root random seed for training and scenario generation.
func WithSeed(seed int64) Option {
	return func(s *settings) { s.seed = seed }
}

// WithKind selects the Table II model variant to train.
func WithKind(kind ModelKind) Option {
	return func(s *settings) { s.kind = kind; s.kindSet = true }
}

// WithKinds selects the model variants an experiment sweep runs (default:
// all six).
func WithKinds(kinds ...ModelKind) Option {
	return func(s *settings) { s.kinds = append([]ModelKind(nil), kinds...) }
}

// WithEnsembleSize sets the bagging ensemble size (paper default 10).
func WithEnsembleSize(members int) Option {
	return func(s *settings) { s.members = members }
}

// WithThresholds sets the iWare-E threshold-ladder size (paper: 20 for
// MFNP/QENP, 10 for SWS).
func WithThresholds(n int) Option { return func(s *settings) { s.thresholds = n } }

// WithMaxThresholdPercentile sets the top effort percentile of the iWare-E
// ladder (default 80).
func WithMaxThresholdPercentile(pct float64) Option {
	return func(s *settings) { s.maxThPct = pct }
}

// WithCVFolds enables iWare-E weight optimization with k-fold
// cross-validation (0 keeps uniform weights).
func WithCVFolds(k int) Option { return func(s *settings) { s.cvFolds = k } }

// WithGPMaxTrain caps each Gaussian process's training subsample.
func WithGPMaxTrain(n int) Option { return func(s *settings) { s.gpMaxTrain = n } }

// WithTreeDepth caps decision-tree depth.
func WithTreeDepth(d int) Option { return func(s *settings) { s.treeDepth = d } }

// WithBalancedBagging toggles balanced bagging (undersampling negatives) —
// the paper's remedy for SWS-grade class imbalance.
func WithBalancedBagging(on bool) Option {
	return func(s *settings) { s.balanced = on }
}

// WithScale selects full or reduced park presets for scenario generation.
func WithScale(scale Scale) Option {
	return func(s *settings) { s.scale = scale }
}

// WithPreset applies the paper-flavoured training configuration for a park
// at a scale (TrainOptionsAt): threshold-ladder size, ensemble size, GP
// subsample cap, and balanced bagging for SWS. Later options override
// individual fields.
func WithPreset(park string, scale Scale) Option {
	return func(s *settings) {
		o := TrainOptionsAt(park, s.kind, scale, s.seed)
		s.thresholds = o.Thresholds
		s.members = o.Members
		s.gpMaxTrain = o.GPMaxTrain
		s.balanced = o.Balanced
		s.scale = scale
	}
}

// WithTestYears sets the calendar test years of an experiment sweep
// (default: the last three simulated years).
func WithTestYears(years ...int) Option {
	return func(s *settings) { s.testYears = append([]int(nil), years...) }
}

// WithTrainYears sets the training-window length in years (paper: 3).
func WithTrainYears(n int) Option { return func(s *settings) { s.trainYears = n } }

// WithDrySeason selects the dry-season dataset where available (SWS).
func WithDrySeason(on bool) Option { return func(s *settings) { s.dry = on } }

// WithBetas sets the robustness weights of the Fig. 8(a–c) sweep.
func WithBetas(betas ...float64) Option {
	return func(s *settings) { s.betas = append([]float64(nil), betas...) }
}

// WithSegmentCounts sets the PWL segment counts of the Fig. 8(d–f)/Fig. 9
// sweeps.
func WithSegmentCounts(counts ...int) Option {
	return func(s *settings) { s.segmentCounts = append([]int(nil), counts...) }
}

// WithPosts caps the number of patrol posts a plan study uses.
func WithPosts(n int) Option { return func(s *settings) { s.posts = n } }

// WithRegionShape bounds each post's planning region: breadth-first radius
// and maximum cell count.
func WithRegionShape(radius, maxCells int) Option {
	return func(s *settings) { s.radius = radius; s.maxCells = maxCells }
}

// WithPlanHorizon configures the planner: T time steps per patrol, K
// patrols over the horizon, and the PWL segment count per cell utility.
func WithPlanHorizon(t int, k float64, segments int) Option {
	return func(s *settings) { s.horizonT = t; s.horizonK = k; s.segments = segments }
}

// WithSolver pins the planning strategy (default plan.SolverAuto).
func WithSolver(kind plan.SolverKind) Option {
	return func(s *settings) { s.solver = kind }
}

// WithHierarchical forces hierarchical planning on or off for Service.Plan:
// a coarse Frank-Wolfe pass over aggregated super-cells targets the post's
// refined region before the standard per-post solve (see plan.SolveHierarchical).
// When unset, Plan enables it automatically for parks with at least
// HierAutoCells cells, where a flat breadth-first region would see an
// arbitrary sliver of the park.
func WithHierarchical(on bool) Option {
	return func(s *settings) { s.hierarchical = on; s.hierSet = true }
}

// WithFieldProtocol tunes the Table III field-test protocol: blocks
// selected per risk group and ranger effort intensity (km per cell-month).
func WithFieldProtocol(perGroup int, effortPerCellMonth float64) Option {
	return func(s *settings) {
		s.perGroup = perGroup
		s.effortPerCellMonth = effortPerCellMonth
	}
}

// ---------------------------------------------------------------- adapters

// trainOptions lowers the merged settings to TrainOptions.
func (s settings) trainOptions() TrainOptions {
	return TrainOptions{
		Kind:                   s.kind,
		Thresholds:             s.thresholds,
		MaxThresholdPercentile: s.maxThPct,
		Members:                s.members,
		Balanced:               s.balanced,
		CVFolds:                s.cvFolds,
		GPMaxTrain:             s.gpMaxTrain,
		TreeDepth:              s.treeDepth,
		Seed:                   s.seed,
		Workers:                s.workers,
		progress:               s.progress,
	}
}

// table2Options lowers the merged settings to Table2Options.
func (s settings) table2Options() Table2Options {
	kinds := s.kinds
	if len(kinds) == 0 && s.kindSet {
		kinds = []ModelKind{s.kind}
	}
	return Table2Options{
		Kinds:      kinds,
		TestYears:  s.testYears,
		TrainYears: s.trainYears,
		Dry:        s.dry,
		Train:      s.trainOptions(),
		Workers:    s.workers,
	}
}

// planStudyOptions lowers the merged settings to PlanStudyOptions.
func (s settings) planStudyOptions() PlanStudyOptions {
	testYear := 0
	if len(s.testYears) > 0 {
		testYear = s.testYears[0]
	}
	return PlanStudyOptions{
		TestYear:      testYear,
		Posts:         s.posts,
		Radius:        s.radius,
		MaxCells:      s.maxCells,
		T:             s.horizonT,
		K:             s.horizonK,
		Segments:      s.segments,
		Solver:        s.solver,
		Betas:         s.betas,
		SegmentCounts: s.segmentCounts,
		TrainYears:    s.trainYears,
		Train:         s.trainOptions(),
		Workers:       s.workers,
	}
}

// table3Options lowers the merged settings to Table3Options.
func (s settings) table3Options() Table3Options {
	return Table3Options{
		PerGroup:           s.perGroup,
		TrainYears:         s.trainYears,
		EffortPerCellMonth: s.effortPerCellMonth,
		Train:              s.trainOptions(),
		Seed:               s.seed,
		Workers:            s.workers,
	}
}
