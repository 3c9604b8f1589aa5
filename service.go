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
// (WithKind, WithEnsembleSize, WithThresholds, …). An iWare-E kind places
// its WithThresholds rungs (default 10) at evenly spaced training-effort
// percentiles from the 0th to the 80th. Cancellation and deadlines are
// observed between weak-learner fits (ensemble members, iWare-E ladder
// slices and CV tasks): fits already in flight drain, no new fit starts,
// and the context's error is returned.
func (s *Service) Train(ctx context.Context, train []dataset.Point, opts ...Option) (*Model, error) {
	return s.settingsFor(opts).train(ctx, train)
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
	pm, err := newPlannerModel(ctx, m, d, prevStep, s.settingsFor(opts).workers)
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
// patrol effort: PredictWithVariance's probabilities.
func (s *Service) Predict(ctx context.Context, name string, X [][]float64, effort float64, opts ...Option) ([]float64, error) {
	p, _, err := s.PredictWithVariance(ctx, name, X, effort, opts...)
	return p, err
}

// PredictWithVariance scores feature vectors against a registered model at
// one planned patrol effort, returning each row's detection probability and
// the model's uncertainty, observing ctx between batch chunks. Output is
// deterministic and independent of worker count and concurrent load.
func (s *Service) PredictWithVariance(ctx context.Context, name string, X [][]float64, effort float64, opts ...Option) (p, variance []float64, err error) {
	sm, err := s.served(name)
	if err != nil {
		return nil, nil, err
	}
	// MatrixFromRows panics on ragged rows.
	for i, row := range X {
		if len(row) != sm.featureDim {
			return nil, nil, fmt.Errorf("paws: predict row %d has %d features, model %q expects %d", i, len(row), name, sm.featureDim)
		}
	}
	return s.predict(ctx, sm, ml.MatrixFromRows(X), effort, opts)
}

// PredictCells scores park cells of a registered model's serving context at
// one planned effort, using the frozen per-cell feature vectors — the query
// rangers actually ask ("how risky are these cells?"). A cell whose
// PlannerModel ladder memo already holds the effort's qualified prefix is
// answered from the memo, lock-free as Maps reads it; only the other cells
// are computed, and they are not memoized. It never waits on the memo's
// fill slot, so a few cells never queue behind a cold park-wide fill. Both
// paths combine the same rung outputs, so they agree bit for bit. A
// "predict" span records how many cells each path answered.
func (s *Service) PredictCells(ctx context.Context, name string, cells []int, effort float64, opts ...Option) ([]float64, error) {
	sm, err := s.served(name)
	if err != nil {
		return nil, err
	}
	pm := sm.pm
	for _, c := range cells {
		if c < 0 || c >= pm.features.Rows {
			return nil, fmt.Errorf("paws: cell %d out of range [0, %d)", c, pm.features.Rows)
		}
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	nq := sm.Model.qualifiedRungs(effort)
	var memo, rest []int // indexes into cells
	for i, c := range cells {
		if int(pm.have[c].Load()) >= nq {
			memo = append(memo, i)
		} else {
			rest = append(rest, i)
		}
	}
	defer obs.StartSpan(ctx, "predict", fmt.Sprintf("memo %d computed %d", len(memo), len(rest)))()
	out := make([]float64, len(cells))
	p, v := pm.scratch()
	for _, i := range memo {
		out[i], _ = pm.raw(cells[i], effort, p, v)
	}
	if len(rest) == 0 {
		return out, nil
	}
	X := ml.NewMatrix(len(rest), pm.features.Cols)
	for k, i := range rest {
		copy(X.Row(k), pm.features.Row(cells[i]))
	}
	computed, _, err := s.predict(ctx, sm, X, effort, opts)
	if err != nil {
		return nil, err
	}
	for k, i := range rest {
		out[i] = computed[k]
	}
	return out, nil
}

// predict is the one body behind Predict, PredictWithVariance and the cells
// PredictCells finds unmemoized: it scores X through
// Model.PredictWithVarianceFlat in predictChunkSize-row chunks over the
// worker pool, observing ctx between chunks.
func (s *Service) predict(ctx context.Context, sm *ServedModel, X ml.Matrix, effort float64, opts []Option) (p, variance []float64, err error) {
	p, variance = make([]float64, X.Rows), make([]float64, X.Rows)
	err = par.ForEachSliceCtx(ctx, s.settingsFor(opts).workers, X.Rows, predictChunkSize, func(lo, hi int) {
		ps, vs := sm.Model.PredictWithVarianceFlat(X.Slice(lo, hi), effort)
		copy(p[lo:hi], ps)
		copy(variance[lo:hi], vs)
	})
	if err != nil {
		return nil, nil, err
	}
	return p, variance, nil
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
	// super-cell pass (parks of HierAutoCells cells or more).
	Hierarchical bool
}

// HierAutoCells is the park size at which Service.Plan switches to
// hierarchical planning: above it, a flat breadth-first region around the
// post covers so little of the park that region choice, not the solve,
// dominates plan quality.
const HierAutoCells = 20_000

// Plan computes a robust patrol plan for one patrol post of a registered
// model (post indexes the park's post list). Region shape and planning
// horizon come from the merged options (WithRegionShape, WithPlanHorizon);
// beta is the robustness weight. The context is observed before and after
// the solve (the LP/MILP solve itself is not interruptible); keep regions
// bounded via WithRegionShape for latency-sensitive serving.
//
// On parks of HierAutoCells cells or more, the region is targeted
// hierarchically (plan.SolveHierarchical): a coarse Frank-Wolfe pass over
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
	radius, maxCells := positiveOr(st.radius, 4), positiveOr(st.maxCells, 40)
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	cfg := plan.Config{
		T:        positiveOr(st.horizonT, 8),
		K:        positiveOr(st.horizonK, 2),
		Segments: positiveOr(st.segments, 8),
		Beta:     beta,
		Workers:  st.workers,
	}
	useHier := sm.park.Grid.NumCells() >= HierAutoCells
	var region *plan.Region
	var p *plan.Plan
	if useHier {
		p, region, err = plan.SolveHierarchical(ctx, sm.park, sm.park.Posts[post], sm.pm, cfg, maxCells)
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
