package paws

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"paws/internal/dataset"
	"paws/internal/geo"
	"paws/internal/ml"
	"paws/internal/obs"
	"paws/internal/par"
	"paws/internal/plan"
	"paws/internal/store"
)

// Service is the long-lived façade over the PAWS pipeline: one value that
// carries deployment-wide defaults (worker-pool size, seeds, ensemble
// shape — see the With* options) through every entry point, holds trained
// or persisted models by name, and answers prediction, risk-map and
// patrol-planning queries against them. Every method takes a
// context.Context, observed mid-computation (between weak-learner fits,
// batch-prediction chunks and planner solves), so callers get real
// cancellation and deadlines — the property the HTTP layer
// (internal/serve, cmd/pawsd) is built on.
//
// A Service is safe for concurrent use: registry mutation takes a write
// lock, queries a read lock, and the underlying models are immutable after
// training (the PlannerModel ladder memo publishes through atomics and fills
// single-flight). Concurrent queries are deterministic — the same request
// returns byte-identical floats no matter what else is in flight.
type Service struct {
	defaults settings

	mu     sync.RWMutex
	models map[string]*ServedModel
	// store is the optional shared fleet store (AttachStore): models
	// published into it become visible to every replica polling the same
	// directory (see fleet.go).
	store *store.Store
	// gen numbers model registrations; caches key on it to tell two models
	// registered under the same name apart (pointer identity can be reused
	// by the allocator after the old model is collected).
	gen atomic.Uint64
}

// NewService builds a Service with the given default options; per-call
// options override them.
func NewService(opts ...Option) *Service {
	return &Service{
		defaults: settings{}.apply(opts),
		models:   map[string]*ServedModel{},
	}
}

// settingsFor merges per-call options over the service defaults.
func (s *Service) settingsFor(opts []Option) settings {
	return s.defaults.apply(opts)
}

// ErrUnknownModel is returned by queries naming an unregistered model.
var ErrUnknownModel = errors.New("paws: unknown model")

// ServedModel is a registered model plus the frozen serving context it
// answers queries against: the park it was trained on and the planner-model
// adapter holding per-cell feature vectors.
type ServedModel struct {
	Name  string
	Model *Model

	park *geo.Park
	pm   *PlannerModel
	// featureDim is the per-row width Predict accepts: park features plus
	// the patrol-coverage covariate.
	featureDim int
	// gen is the service-wide registration number (see Generation).
	gen uint64

	// provMu guards the mutable provenance below: a model registered from
	// memory gains a hash when it is published to the fleet store, after
	// registration.
	provMu sync.Mutex
	// source records where the artifact came from: "memory" (trained or
	// loaded in this process) or "store" (pulled from the shared fleet
	// store by a StoreSyncer).
	source string
	// hash is the sha256 of the model's PAWSMODL encoding, when known —
	// set for store-sourced models and for memory models that have been
	// published, so operators can tell which replica serves which artifact.
	hash string
	// storeGen is the fleet-store generation this entry corresponds to
	// (0 when the model never touched the store); the syncer re-registers
	// a name when the store's generation moves past it.
	storeGen uint64
}

// Generation returns the registration number of this entry, unique within
// its Service across the process lifetime — the correct cache-key
// ingredient for "same name, same model instance".
func (sm *ServedModel) Generation() uint64 { return sm.gen }

// Park returns the park the model serves.
func (sm *ServedModel) Park() *geo.Park { return sm.park }

// PlannerModel returns the serving planner adapter.
func (sm *ServedModel) PlannerModel() *PlannerModel { return sm.pm }

// FeatureDim returns the feature-vector width Predict expects.
func (sm *ServedModel) FeatureDim() int { return sm.featureDim }

// Model artifact sources reported by Provenance.
const (
	// SourceMemory marks a model trained or loaded inside this process.
	SourceMemory = "memory"
	// SourceStore marks a model pulled from the shared fleet store.
	SourceStore = "store"
)

// Provenance reports where the served artifact came from (SourceMemory or
// SourceStore), its content hash when known (sha256 of the PAWSMODL
// encoding; empty for unpublished memory models), and the fleet-store
// generation it corresponds to (0 when it never touched the store).
func (sm *ServedModel) Provenance() (source, hash string, storeGen uint64) {
	sm.provMu.Lock()
	defer sm.provMu.Unlock()
	return sm.source, sm.hash, sm.storeGen
}

// setProvenance updates the provenance fields (publishing a memory model
// stamps its hash and store generation after registration).
func (sm *ServedModel) setProvenance(source, hash string, storeGen uint64) {
	sm.provMu.Lock()
	defer sm.provMu.Unlock()
	sm.source, sm.hash, sm.storeGen = source, hash, storeGen
}

// ------------------------------------------------------------- compute API

// Scenario generates the park named by a spec — a preset ("MFNP", "QENP",
// "SWS") at the configured scale (WithScale; default full), or a procedural
// "rand:<seed>" park, which is already modest and ignores the scale — with
// its simulated history and datasets.
func (s *Service) Scenario(ctx context.Context, name string, opts ...Option) (*Scenario, error) {
	st := s.settingsFor(opts)
	parkCfg, simCfg, err := resolveConfigs(name, st.scale, st.seed)
	if err != nil {
		return nil, err
	}
	return newScenario(ctx, parkCfg, simCfg)
}

// Train fits a model on training points under the merged options
// (WithKind, WithEnsembleSize, WithThresholds, …), observing ctx between
// weak-learner fits.
func (s *Service) Train(ctx context.Context, train []dataset.Point, opts ...Option) (*Model, error) {
	return Train(ctx, train, s.settingsFor(opts).trainOptions())
}

// PlannerModel adapts a trained model for planning and map generation,
// freezing features as of dataset step prevStep.
func (s *Service) PlannerModel(ctx context.Context, m *Model, d *dataset.Dataset, prevStep int, opts ...Option) (*PlannerModel, error) {
	return NewPlannerModel(ctx, m, d, prevStep, s.settingsFor(opts).workers)
}

// Table1 regenerates the Table I dataset statistics.
func (s *Service) Table1(ctx context.Context, opts ...Option) ([]Table1Row, error) {
	st := s.settingsFor(opts)
	return RunTable1(ctx, st.seed, st.workers)
}

// Table2 runs the Table II AUC sweep on one scenario. WithKind or WithKinds
// restricts the model variants.
func (s *Service) Table2(ctx context.Context, sc *Scenario, name string, opts ...Option) ([]Table2Row, error) {
	return RunTable2ForScenario(ctx, sc, name, s.settingsFor(opts).table2Options())
}

// Fig4 computes the positive-rate-vs-effort-percentile curves.
func (s *Service) Fig4(ctx context.Context, sc *Scenario, name string, testYear int, opts ...Option) (Fig4Series, error) {
	st := s.settingsFor(opts)
	trainYears := st.trainYears
	if trainYears <= 0 {
		trainYears = 3
	}
	return RunFig4(ctx, sc, name, testYear, trainYears, st.dry)
}

// Fig6 trains the configured model kind (default GPB-iW) and evaluates the
// Fig. 6 risk/uncertainty maps.
func (s *Service) Fig6(ctx context.Context, sc *Scenario, testYear int, opts ...Option) (*Fig6Maps, error) {
	st := s.settingsFor(opts)
	kind := st.kind
	if !st.kindSet {
		kind = GPBiW
	}
	trainYears := st.trainYears
	if trainYears <= 0 {
		trainYears = 3
	}
	return RunFig6(ctx, sc, kind, testYear, trainYears, st.trainOptions())
}

// Fig7 runs the GP-vs-bagged-trees uncertainty correlation study.
func (s *Service) Fig7(ctx context.Context, sc *Scenario, testYear int, opts ...Option) (*Fig7Result, error) {
	st := s.settingsFor(opts)
	trainYears := st.trainYears
	if trainYears <= 0 {
		trainYears = 3
	}
	return RunFig7(ctx, sc, testYear, trainYears, st.trainOptions())
}

// PlanStudy trains a planning model and builds per-post regions for the
// Fig. 8/9 sweeps (WithPosts, WithRegionShape, WithPlanHorizon, WithBetas,
// WithSegmentCounts).
func (s *Service) PlanStudy(ctx context.Context, sc *Scenario, opts ...Option) (*PlanStudy, error) {
	return NewPlanStudy(ctx, sc, s.settingsFor(opts).planStudyOptions())
}

// Table3 reproduces the Table III field-test trials on one scenario.
func (s *Service) Table3(ctx context.Context, sc *Scenario, name string, blockSize int, trialMonths []int, opts ...Option) ([]Table3Trial, error) {
	return RunTable3ForScenario(ctx, sc, name, blockSize, trialMonths, s.settingsFor(opts).table3Options())
}

// ------------------------------------------------------------ registry API

// AddModel registers a trained model under a name, freezing its serving
// context from the dataset as of step prevStep (the effort of that step
// becomes the patrol-coverage covariate every query sees). Re-registering a
// name replaces the entry.
func (s *Service) AddModel(ctx context.Context, name string, m *Model, d *dataset.Dataset, prevStep int, opts ...Option) (*ServedModel, error) {
	if name == "" {
		return nil, errors.New("paws: model name must be non-empty")
	}
	if nf, want := m.NumFeatures(), d.Park.NumFeatures()+1; nf > 0 && nf != want {
		return nil, fmt.Errorf("paws: model %q was trained on %d features but the park needs %d — wrong park, scale or seed for this model file?", name, nf, want)
	}
	pm, err := NewPlannerModel(ctx, m, d, prevStep, s.settingsFor(opts).workers)
	if err != nil {
		return nil, err
	}
	sm := &ServedModel{
		Name:       name,
		Model:      m,
		park:       d.Park,
		pm:         pm,
		featureDim: d.Park.NumFeatures() + 1,
		gen:        s.gen.Add(1),
		source:     SourceMemory,
	}
	s.mu.Lock()
	s.models[name] = sm
	s.mu.Unlock()
	return sm, nil
}

// LoadModelFileInto loads a persisted model (SaveFile) and registers it
// under a name with AddModel's serving context.
func (s *Service) LoadModelFileInto(ctx context.Context, name, path string, d *dataset.Dataset, prevStep int, opts ...Option) (*ServedModel, error) {
	m, err := LoadModelFile(path)
	if err != nil {
		return nil, err
	}
	return s.AddModel(ctx, name, m, d, prevStep, opts...)
}

// Served returns the registered model entry for a name.
func (s *Service) Served(name string) (*ServedModel, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sm, ok := s.models[name]
	return sm, ok
}

// ServedModels lists the registered model entries sorted by name — the
// discovery surface behind GET /v1/models.
func (s *Service) ServedModels() []*ServedModel {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*ServedModel, 0, len(s.models))
	for _, sm := range s.models {
		out = append(out, sm)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// ModelNames lists the registered model names, sorted.
func (s *Service) ModelNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.models))
	for n := range s.models {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// served resolves a name or fails with ErrUnknownModel.
func (s *Service) served(name string) (*ServedModel, error) {
	if sm, ok := s.Served(name); ok {
		return sm, nil
	}
	return nil, fmt.Errorf("%w %q (registered: %v)", ErrUnknownModel, name, s.ModelNames())
}

// predictChunkSize is the batched-prediction granularity of the serving
// path: requests are scored in chunks of this many rows so cancellation is
// observed with useful latency while batch fast paths stay amortized. Chunk
// boundaries never change the floats.
const predictChunkSize = 256

// Predict scores feature vectors against a registered model at one planned
// patrol effort, through the model's batched fast path, observing ctx
// between chunks. Output is deterministic and independent of worker count
// and concurrent load.
func (s *Service) Predict(ctx context.Context, name string, X [][]float64, effort float64, opts ...Option) ([]float64, error) {
	sm, Xm, err := s.predictInput(name, X)
	if err != nil {
		return nil, err
	}
	out := make([]float64, Xm.Rows)
	err = par.ForEachSliceCtx(ctx, s.settingsFor(opts).workers, Xm.Rows, predictChunkSize, func(lo, hi int) {
		copy(out[lo:hi], sm.Model.PredictForEffortFlat(Xm.Slice(lo, hi), effort))
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// predictInput resolves the model a Predict call names and converts its rows
// to one flat matrix, after checking every row's width (MatrixFromRows
// panics on ragged rows).
func (s *Service) predictInput(name string, X [][]float64) (*ServedModel, ml.Matrix, error) {
	sm, err := s.served(name)
	if err != nil {
		return nil, ml.Matrix{}, err
	}
	for i, row := range X {
		if len(row) != sm.featureDim {
			return nil, ml.Matrix{}, fmt.Errorf("paws: predict row %d has %d features, model %q expects %d", i, len(row), name, sm.featureDim)
		}
	}
	return sm, ml.MatrixFromRows(X), nil
}

// PredictWithVariance is Predict returning the model's uncertainty too.
func (s *Service) PredictWithVariance(ctx context.Context, name string, X [][]float64, effort float64, opts ...Option) (p, variance []float64, err error) {
	sm, Xm, err := s.predictInput(name, X)
	if err != nil {
		return nil, nil, err
	}
	p = make([]float64, Xm.Rows)
	variance = make([]float64, Xm.Rows)
	err = par.ForEachSliceCtx(ctx, s.settingsFor(opts).workers, Xm.Rows, predictChunkSize, func(lo, hi int) {
		ps, vs := sm.Model.PredictWithVarianceFlat(Xm.Slice(lo, hi), effort)
		copy(p[lo:hi], ps)
		copy(variance[lo:hi], vs)
	})
	if err != nil {
		return nil, nil, err
	}
	return p, variance, nil
}

// PredictCells scores park cells of a registered model's serving context at
// one planned effort, using the frozen per-cell feature vectors — the query
// rangers actually ask ("how risky are these cells?").
func (s *Service) PredictCells(ctx context.Context, name string, cells []int, effort float64, opts ...Option) ([]float64, error) {
	sm, err := s.served(name)
	if err != nil {
		return nil, err
	}
	n := sm.pm.features.Rows
	X := ml.NewMatrix(len(cells), sm.pm.features.Cols)
	for i, c := range cells {
		if c < 0 || c >= n {
			return nil, fmt.Errorf("paws: cell %d out of range [0, %d)", c, n)
		}
		copy(X.Row(i), sm.pm.features.Row(c))
	}
	out := make([]float64, X.Rows)
	err = par.ForEachSliceCtx(ctx, s.settingsFor(opts).workers, X.Rows, predictChunkSize, func(lo, hi int) {
		copy(out[lo:hi], sm.Model.PredictForEffortFlat(X.Slice(lo, hi), effort))
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RiskMaps evaluates the park-wide risk and uncertainty maps of a
// registered model at one planned effort in a single sweep, observing ctx
// between batch chunks.
func (s *Service) RiskMaps(ctx context.Context, name string, effort float64) (risk, uncertainty []float64, err error) {
	sm, err := s.served(name)
	if err != nil {
		return nil, nil, err
	}
	return sm.pm.Maps(ctx, effort)
}

// PlanResult is a computed patrol plan in park coordinates — the deployment
// artifact /v1/plan hands out.
type PlanResult struct {
	Model string
	Post  int
	Beta  float64
	// Cells are the park cell ids of the planning region.
	Cells []int
	// Effort[i] is the planned patrol effort for Cells[i].
	Effort []float64
	// Routes are executable patrols: sequences of park cell ids starting and
	// ending at the post.
	Routes [][]int
	// Objective is the robust utility of the plan; RuntimeMS the solve time.
	Objective float64
	RuntimeMS float64
	// Hierarchical reports that the region was targeted by the coarse
	// super-cell pass (WithHierarchical, or automatic above HierAutoCells).
	Hierarchical bool
}

// HierAutoCells is the park size at which Service.Plan switches to
// hierarchical planning by default: above it, a flat breadth-first region
// around the post covers so little of the park that region choice, not the
// solve, dominates plan quality. WithHierarchical overrides the default
// either way.
const HierAutoCells = 20_000

// Plan computes a robust patrol plan for one patrol post of a registered
// model (post indexes the park's post list). Region shape and planning
// horizon come from the merged options (WithRegionShape, WithPlanHorizon,
// WithSolver); beta is the robustness weight. The context is observed
// before and after the solve (the LP/MILP solve itself is not
// interruptible); keep regions bounded via WithRegionShape for
// latency-sensitive serving.
//
// On parks of HierAutoCells cells or more (or when WithHierarchical(true) is
// set), the region is targeted hierarchically: a coarse Frank-Wolfe pass over
// aggregated super-cells decides where in the park the post's bounded region
// should grow, so /v1/plan stays interactive at 10^6 cells.
func (s *Service) Plan(ctx context.Context, name string, post int, beta float64, opts ...Option) (*PlanResult, error) {
	sm, err := s.served(name)
	if err != nil {
		return nil, err
	}
	if post < 0 || post >= len(sm.park.Posts) {
		return nil, fmt.Errorf("paws: post %d out of range: park has %d patrol posts", post, len(sm.park.Posts))
	}
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("paws: beta %v out of range [0, 1]", beta)
	}
	st := s.settingsFor(opts)
	radius, maxCells := st.radius, st.maxCells
	if radius <= 0 {
		radius = 4
	}
	if maxCells <= 0 {
		maxCells = 40
	}
	t, k, segments := st.horizonT, st.horizonK, st.segments
	if t <= 0 {
		t = 8
	}
	if k <= 0 {
		k = 2
	}
	if segments <= 0 {
		segments = 8
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	cfg := plan.Config{T: t, K: k, Segments: segments, Beta: beta, Solver: st.solver, Workers: st.workers}
	useHier := st.hierarchical
	if !st.hierSet {
		useHier = sm.park.Grid.NumCells() >= HierAutoCells
	}
	var region *plan.Region
	var p *plan.Plan
	if useHier {
		p, region, err = plan.SolveHierarchical(ctx, sm.park, sm.park.Posts[post], sm.pm,
			cfg, plan.HierOptions{FineMaxCells: maxCells, Workers: st.workers})
	} else {
		region, err = plan.NewRegion(sm.park, sm.park.Posts[post], radius, maxCells)
		if err != nil {
			return nil, err
		}
		endSolve := obs.StartSpan(ctx, "solve", fmt.Sprintf("post %d", post))
		p, err = plan.Solve(region, sm.pm, cfg)
		endSolve()
	}
	if err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	kRoutes := int(cfg.K)
	if kRoutes < 1 {
		kRoutes = 1
	}
	endRoutes := obs.StartSpan(ctx, "routes", fmt.Sprintf("post %d", post))
	routes, err := plan.ExtractRoutes(region, p.Effort, cfg.T, kRoutes)
	endRoutes()
	if err != nil {
		return nil, err
	}
	res := &PlanResult{
		Model:        name,
		Post:         post,
		Beta:         beta,
		Cells:        append([]int(nil), region.Cells...),
		Effort:       append([]float64(nil), p.Effort...),
		Objective:    p.Objective,
		RuntimeMS:    float64(p.Runtime.Microseconds()) / 1000,
		Hierarchical: useHier,
	}
	for _, r := range routes {
		res.Routes = append(res.Routes, r.ParkCells(region))
	}
	return res, nil
}
