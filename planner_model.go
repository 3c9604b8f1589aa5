package paws

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync/atomic"

	"paws/internal/dataset"
	"paws/internal/iware"
	"paws/internal/ml"
	"paws/internal/par"
	"paws/internal/stats"
)

// PlannerModel adapts a trained Model to the planner's CellModel interface:
// per-cell detection probability g_v(c) and squashed uncertainty ν_v(c) as
// functions of planned patrol effort. Feature vectors are frozen at plan
// time (static features plus the previous step's patrol coverage), so each
// weak learner's output for a cell does not depend on the effort: a
// prediction at effort c is a weighted combination of the qualified prefix
// of the iWare-E threshold ladder (θ_i ≤ c; a plain ensemble is a one-rung
// ladder). PlannerModel therefore memoizes, per cell, the raw outputs of the
// rungs evaluated so far — the ladder memo — and answers any effort with an
// O(I) prefix combine plus the squash, the same float operations in the same
// order as Model.PredictWithVariance. Service.RiskMaps and Service.Plan end
// here, and Service.PredictCells reads the memo for each cell it covers;
// Service.Predict, PredictWithVariance and PredictCells' other cells
// evaluate the same rungs and combine them through
// Model.PredictWithVarianceFlat, so all five return the same probability
// for a cell and effort.
//
// A lookup that finds its prefix short fills the missing rungs: map sweeps
// fill [have, nq(c)) for every park cell, a planner miss the full ladder of
// every region cell it lacks, each as flat chunked batches over the worker
// pool (Workers controls the fan-out). Fills are single-flight — one runs at
// a time and skips what an earlier fill already computed — so every (cell,
// rung) pair is evaluated at most once, however many requests race for it.
// All methods are safe for concurrent use; readers never wait on a fill for
// cells whose prefix is already memoized.
type PlannerModel struct {
	model *Model
	// features holds the frozen per-cell feature vectors as one flat
	// row-major matrix (row = cell, stride = NumFeatures()+1): a single
	// backing allocation instead of one slice per cell, which is what keeps
	// 10^6-cell parks inside the serving memory budget.
	features ml.Matrix
	// squashLo anchors the squashing: variances at or below the park's 10th
	// percentile map to ~0 uncertainty.
	squashLo float64
	// squashScale spreads the squashing so the 90th-percentile variance maps
	// to ~0.96 — the paper scales uncertainty scores to [0,1] with a
	// logistic squashing function before weighting them in the objective.
	squashScale float64

	// Workers bounds the goroutines the memo fills use to evaluate cells
	// (par.Workers semantics: 1 is sequential, 0 or negative means
	// GOMAXPROCS). Output is identical for any worker count.
	Workers int

	// rungs is the model's ladder size I.
	rungs int
	// have[cell] is how many leading rungs of the cell are memoized. A fill
	// writes the rung values first and stores have last, so a reader that
	// loads have ≥ k may read the first k rungs without a lock.
	have []atomic.Int32
	// blocks[rung][cell/ladderBlockCells] holds the memoized (p, variance)
	// pairs of one rung for a block of consecutive cells. Blocks are
	// allocated by the fill that first reaches them, so memory follows the
	// cells and rungs actually touched, not the park size times the ladder.
	blocks [][]*ladderBlock
	// fillSlot is the single-flight token: a fill holds it while it
	// evaluates.
	fillSlot chan struct{}
	// evals counts the (cell, rung) pairs filled — the single-flight tests
	// pin it.
	evals atomic.Int64
}

// ladderBlockCells is the number of consecutive cells per memo block: small
// enough that a sparse query (a plan region, the hierarchical planner's
// sampled members of a 10^6-cell park) allocates little beyond what it
// touches, large enough that the per-block pointer is noise.
const ladderBlockCells = 16

// ladderBlock holds one rung's interleaved (p, variance) pairs for
// ladderBlockCells consecutive cells.
type ladderBlock [2 * ladderBlockCells]float64

// newPlannerModel freezes features from the dataset as of step prevStep
// (whose effort becomes the coverage covariate) and calibrates the variance
// squashing scale on a sample of cells. workers sizes the pool for the
// calibration pass and subsequent map generation (par.Workers semantics: 1
// is sequential, ≤ 0 means GOMAXPROCS). The calibration sweep observes ctx
// between batch chunks, so a dead context aborts construction instead of
// evaluating the whole sample.
func newPlannerModel(ctx context.Context, m *Model, d *dataset.Dataset, prevStep, workers int) (*PlannerModel, error) {
	if m == nil || d == nil {
		return nil, errors.New("paws: nil model or dataset")
	}
	if prevStep < 0 || prevStep >= len(d.Steps) {
		return nil, errors.New("paws: prevStep out of range")
	}
	n := d.Park.Grid.NumCells()
	nf := d.Park.NumFeatures()
	pm := &PlannerModel{
		model:    m,
		Workers:  workers,
		rungs:    m.ladderSize(),
		have:     make([]atomic.Int32, n),
		fillSlot: make(chan struct{}, 1),
	}
	pm.blocks = make([][]*ladderBlock, pm.rungs)
	for r := range pm.blocks {
		pm.blocks[r] = make([]*ladderBlock, (n+ladderBlockCells-1)/ladderBlockCells)
	}
	pm.features = ml.NewMatrix(n, nf+1)
	for cell := 0; cell < n; cell++ {
		f := pm.features.Row(cell)
		d.Park.FeatureVector(cell, f[:nf])
		f[nf] = d.Effort[prevStep][cell]
	}
	// Calibrate the squashing on the park-wide variance distribution at a
	// moderate effort level: the 10th percentile maps to ~0 and the 90th to
	// ~0.96, so uncertainty scores use the full [0,1] range (Section VI-C).
	// The sample's rungs are filled like any other lookup's, so they stay
	// memoized for the map sweeps and plans that follow.
	stride := n/200 + 1
	var cells []int
	for cell := 0; cell < n; cell += stride {
		cells = append(cells, cell)
	}
	if err := pm.fill(ctx, cells, m.qualifiedRungs(calibrationEffort)); err != nil {
		return nil, err
	}
	vs := make([]float64, len(cells))
	p, v := pm.scratch()
	for i, cell := range cells {
		_, vs[i] = pm.raw(cell, calibrationEffort, p, v)
	}
	lo := stats.Percentile(vs, 10)
	hi := stats.Percentile(vs, 90)
	pm.squashLo = lo
	pm.squashScale = (hi - lo) / 4
	if pm.squashScale <= 1e-12 {
		pm.squashScale = 1
	}
	return pm, nil
}

// calibrationEffort is the moderate effort level the squashing calibration
// evaluates its cell sample at.
const calibrationEffort = 2

// Eval implements plan.CellModel: for every i it writes the detection
// probability g[i] and squashed uncertainty nu[i] of cell cells[i] at
// planned effort efforts[i]. Cells whose memoized prefix is too short for
// their effort get their full ladder filled in one flat batch first, so a
// planner's later queries at any effort (every breakpoint, every β) are
// prefix combines.
func (pm *PlannerModel) Eval(cells []int, efforts []float64, g, nu []float64) {
	var missing []int
	for i, cell := range cells {
		if int(pm.have[cell].Load()) < pm.model.qualifiedRungs(efforts[i]) {
			missing = append(missing, cell)
		}
	}
	if len(missing) > 0 {
		// Uncancellable: a background fill cannot fail.
		_ = pm.fill(context.Background(), missing, pm.rungs)
	}
	p, v := pm.scratch()
	for i, cell := range cells {
		g[i], nu[i] = pm.value(cell, efforts[i], p, v)
	}
}

// scratch returns per-rung gather buffers for raw and value.
func (pm *PlannerModel) scratch() (p, v []float64) {
	return make([]float64, pm.rungs), make([]float64, pm.rungs)
}

// raw combines a cell's memoized qualified prefix at an effort into the
// model's probability and unsquashed variance. The cell must already hold
// qualifiedRungs(effort) rungs; p and v are scratch of length pm.rungs.
func (pm *PlannerModel) raw(cell int, effort float64, p, v []float64) (prob, variance float64) {
	nq := pm.model.qualifiedRungs(effort)
	b, j := cell/ladderBlockCells, 2*(cell%ladderBlockCells)
	for r := 0; r < nq; r++ {
		blk := pm.blocks[r][b]
		p[r], v[r] = blk[j], blk[j+1]
	}
	return pm.model.combineRungs(p[:nq], v[:nq], pm.features.Row(cell), effort)
}

// value is raw with the calibrated squash applied: (g_v(c), ν_v(c)).
func (pm *PlannerModel) value(cell int, effort float64, p, v []float64) (g, nu float64) {
	prob, variance := pm.raw(cell, effort, p, v)
	return prob, iware.SquashVariance(variance-pm.squashLo, pm.squashScale)
}

// fill memoizes rungs [have, target) of every listed cell that holds fewer
// than target (duplicates are fine). It is single-flight: it waits for the
// fill slot — observing ctx while it waits — and only then reads which
// rungs each cell lacks, so no (cell, rung) pair is evaluated twice. Cells
// are grouped by the rungs they already hold and evaluated in
// mapChunkSize-row flat batches over the worker pool, with ctx observed
// between chunks. A canceled fill keeps the chunks it finished: they are
// exact.
func (pm *PlannerModel) fill(ctx context.Context, cells []int, target int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case pm.fillSlot <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-pm.fillSlot }()

	// groups[h] lists the cells holding exactly h rungs, ascending.
	groups := make([][]int, target)
	cells = slices.Compact(slices.Sorted(slices.Values(cells)))
	for _, cell := range cells {
		if h := int(pm.have[cell].Load()); h < target {
			groups[h] = append(groups[h], cell)
		}
	}
	type chunk struct {
		from  int
		cells []int
	}
	var chunks []chunk
	for h, g := range groups {
		for _, cell := range g {
			b := cell / ladderBlockCells
			for r := h; r < target; r++ {
				if pm.blocks[r][b] == nil {
					pm.blocks[r][b] = new(ladderBlock)
				}
			}
		}
		for lo := 0; lo < len(g); lo += mapChunkSize {
			chunks = append(chunks, chunk{h, g[lo:min(lo+mapChunkSize, len(g))]})
		}
	}
	return par.ForEachCtx(ctx, pm.Workers, len(chunks), func(k int) {
		pm.fillChunk(chunks[k].cells, chunks[k].from, target)
	})
}

// fillChunk evaluates rungs [from, to) for a batch of cells that all hold
// exactly `from` rungs, stores them, and then publishes the new prefix
// length.
func (pm *PlannerModel) fillChunk(cells []int, from, to int) {
	rows := ml.NewMatrix(len(cells), pm.features.Cols)
	for k, cell := range cells {
		copy(rows.Row(k), pm.features.Row(cell))
	}
	p, v := pm.model.predictRungsFlat(rows, from, to)
	for k, cell := range cells {
		b, j := cell/ladderBlockCells, 2*(cell%ladderBlockCells)
		for r := from; r < to; r++ {
			blk := pm.blocks[r][b]
			blk[j], blk[j+1] = p[r-from][k], v[r-from][k]
		}
		pm.have[cell].Store(int32(to))
	}
	pm.evals.Add(int64(len(cells) * (to - from)))
}

// SquashScale returns the calibrated variance normalization constant.
func (pm *PlannerModel) SquashScale() float64 { return pm.squashScale }

// mapChunkSize is the row count of one memo-fill batch: small enough that a
// canceled context stops a park-wide sweep promptly, and a multiple of the
// GP's 32-query panel (mat.PanelWidth), so a full chunk fills whole panels.
// Chunk boundaries never change the floats (every batch path is
// row-independent), so this is purely a latency/cancellation knob.
const mapChunkSize = 128

// Maps evaluates the model over every park cell at one planned effort in a
// single sweep: the per-cell detection probabilities (Fig. 6 red maps) and
// squashed uncertainties (Fig. 6 green maps). It fills the rungs
// [have, nq(effort)) each cell lacks, then combines every cell's memoized
// prefix. The context is observed before the sweep, while waiting for the
// fill slot and between fill chunks; a canceled or expired context aborts
// the sweep with its error (the rungs already filled are kept — they are
// exact).
func (pm *PlannerModel) Maps(ctx context.Context, effort float64) (risk, uncertainty []float64, err error) {
	if err := ctxErr(ctx); err != nil {
		return nil, nil, err
	}
	n := pm.features.Rows
	nq := pm.model.qualifiedRungs(effort)
	var missing []int
	for cell := 0; cell < n; cell++ {
		if int(pm.have[cell].Load()) < nq {
			missing = append(missing, cell)
		}
	}
	if len(missing) > 0 {
		if err := pm.fill(ctx, missing, nq); err != nil {
			return nil, nil, err
		}
	}
	risk, uncertainty = make([]float64, n), make([]float64, n)
	p, v := pm.scratch()
	for cell := 0; cell < n; cell++ {
		risk[cell], uncertainty[cell] = pm.value(cell, effort, p, v)
	}
	return risk, uncertainty, nil
}

// NominalEffort suggests a mid-range planning effort: the mean recorded
// point effort of the dataset, matching the paper's "prediction of the model
// at a nominal patrol effort, which the rangers will be likely able to
// achieve".
func NominalEffort(d *dataset.Dataset) float64 {
	pts := d.AllPoints()
	if len(pts) == 0 {
		return 1
	}
	var s float64
	for _, p := range pts {
		s += p.Effort
	}
	m := s / float64(len(pts))
	if m <= 0 || math.IsNaN(m) {
		return 1
	}
	return m
}

// ladderSize is the number of effort-independent weak learners a prediction
// combines: the iWare-E ladder, or one for a plain ensemble.
func (m *Model) ladderSize() int {
	if m.iw != nil {
		return m.iw.NumRungs()
	}
	return 1
}

// qualifiedRungs is the ladder prefix a prediction at effort c combines.
func (m *Model) qualifiedRungs(c float64) int {
	if m.iw != nil {
		return m.iw.QualifiedRungs(c)
	}
	return 1
}

// predictRungsFlat evaluates rungs [lo, hi) on every row of X (see
// iware.Model.PredictRungsFlat). A plain ensemble's single rung is the
// ensemble itself.
func (m *Model) predictRungsFlat(X ml.Matrix, lo, hi int) (p, v [][]float64) {
	if m.iw != nil {
		return m.iw.PredictRungsFlat(X, lo, hi)
	}
	ps, vs := m.plain.PredictWithVarianceFlat(X)
	return [][]float64{ps}, [][]float64{vs}
}

// combineRungs reduces one point's rung outputs at effort c exactly as
// PredictWithVariance would (see iware.Model.CombineRungs). A plain
// ensemble's one-rung ladder has weight 1, so its combination is the rung's
// output unchanged.
func (m *Model) combineRungs(p, v, x []float64, c float64) (prob, variance float64) {
	if m.iw != nil {
		return m.iw.CombineRungs(p, v, x, c)
	}
	return p[0], v[0]
}
