package paws

// Option is a functional configuration knob shared by the Service façade:
// the same WithX values tune training (Service.Train), planning
// (Service.PlanStudy, Service.Plan) and the experiment runners
// (Service.Table1/Table2/…). Options irrelevant to a call are ignored, so a
// Service can be constructed once with the full deployment configuration
// (workers, seed, ensemble shape) and reused across every entry point.
//
// Precedence: per-call options override Service-level defaults, which
// override the paper-flavoured defaults of the method that reads them
// (settings.train and settings.fit for training, each experiment method for
// its own knobs).
type Option func(*settings)

// settings is the merged state behind the functional options. Every field
// is read directly by the methods it tunes, zero or negative meaning "use
// the method's default". kindSet distinguishes "not specified" from the
// zero ModelKind, SVB.
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

// trainWindow returns the training window in years: WithTrainYears, or the
// paper's 3.
func (s settings) trainWindow() int { return positiveOr(s.trainYears, 3) }

// positiveOr returns v when it is positive and def otherwise: a zero or
// negative numeric option selects the reading method's default.
func positiveOr[T int | float64](v, def T) T {
	if v > 0 {
		return v
	}
	return def
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
// at a scale: 20 thresholds for the Uganda parks and 10 for SWS (Section
// IV), balanced bagging for SWS (Section V-A), 8 members and a GP subsample
// cap of 120 at full scale, and at ScaleSmall at most 6 thresholds, 5
// members and a cap of 80. It also sets the scale. Later options override
// individual fields.
func WithPreset(park string, scale Scale) Option {
	return func(s *settings) {
		s.thresholds, s.balanced = 20, false
		if park == "SWS" {
			s.thresholds, s.balanced = 10, true
		}
		s.members, s.gpMaxTrain = 8, 120
		if scale == ScaleSmall {
			s.thresholds = min(s.thresholds, 6)
			s.members, s.gpMaxTrain = 5, 80
		}
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

// WithFieldProtocol tunes the Table III field-test protocol: blocks
// selected per risk group and ranger effort intensity (km per cell-month).
func WithFieldProtocol(perGroup int, effortPerCellMonth float64) Option {
	return func(s *settings) {
		s.perGroup = perGroup
		s.effortPerCellMonth = effortPerCellMonth
	}
}
