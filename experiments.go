package paws

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"paws/internal/dataset"
	"paws/internal/field"
	"paws/internal/game"
	"paws/internal/geo"
	"paws/internal/par"
	"paws/internal/plan"
	"paws/internal/stats"
)

// This file hosts the experiment runners that regenerate every table and
// figure of the paper's evaluation (see DESIGN.md §4 for the index).
// Each runner takes explicit scale parameters so the benchmark harness can
// run reduced instances while cmd/pawstables and cmd/pawsfigs run the full
// presets.

// ---------------------------------------------------------------- Table I

// Table1Row mirrors one column of Table I.
type Table1Row = dataset.Stats

// RunTable1 computes dataset statistics for the three parks plus the SWS
// dry-season view. The three park scenarios generate on up to workers
// goroutines (par.Workers semantics); rows come back in the fixed park
// order regardless of which finishes first. ctx is observed between (and
// inside) the per-park scenario generations.
func RunTable1(ctx context.Context, seed int64, workers int) ([]Table1Row, error) {
	parks := []string{"MFNP", "QENP", "SWS"}
	perPark, err := par.MapErrCtx(ctx, workers, len(parks), func(i int) ([]Table1Row, error) {
		parkCfg, simCfg, err := specConfigs(parks[i], seed)
		if err != nil {
			return nil, err
		}
		sc, err := newScenario(ctx, parkCfg, simCfg)
		if err != nil {
			return nil, err
		}
		rows := []Table1Row{sc.Data.TableIStats(parks[i])}
		if sc.DryData != nil {
			rows = append(rows, sc.DryData.TableIStats(parks[i]+" dry"))
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, r := range perPark {
		rows = append(rows, r...)
	}
	return rows, nil
}

// --------------------------------------------------------------- Table II

// Table2Row is one (dataset, test-year, model) AUC entry.
type Table2Row struct {
	Park     string
	TestYear int
	Kind     ModelKind
	AUC      float64
}

// Table2Options scales the Table II sweep.
type Table2Options struct {
	// Kinds lists the model variants to run (default: all six).
	Kinds []ModelKind
	// TestYears lists calendar test years (default: the last three years of
	// the simulated history — the analogue of the paper's three test years).
	TestYears []int
	// TrainYears is the training window (paper: 3).
	TrainYears int
	// Dry selects the dry-season dataset when available.
	Dry bool
	// Train tunes every cell's training. Each cell overrides its Kind, its
	// Seed (Train.Seed plus an offset from the cell's grid position) and
	// its Workers; Train's progress observes per-cell sweep completion
	// (WithProgress), not the cells' weak-learner fits.
	Train TrainOptions
	// Workers bounds the goroutines used to fan the (test year × model
	// kind) grid out over a worker pool; each cell's training also uses this
	// count internally (par.Workers semantics: 1 is sequential, ≤ 0 means
	// GOMAXPROCS). Every cell derives its seed from its grid position, so
	// the table is identical for any worker count.
	Workers int
}

func (o Table2Options) withDefaults() Table2Options {
	if len(o.Kinds) == 0 {
		o.Kinds = []ModelKind{SVB, DTB, GPB, SVBiW, DTBiW, GPBiW}
	}
	if o.TrainYears <= 0 {
		o.TrainYears = 3
	}
	return o
}

// lastYears returns the final n distinct years present in the dataset.
func lastYears(d *dataset.Dataset, n int) []int {
	seen := map[int]bool{}
	var years []int
	for _, st := range d.Steps {
		if !seen[st.Year] {
			seen[st.Year] = true
			years = append(years, st.Year)
		}
	}
	if len(years) > n {
		years = years[len(years)-n:]
	}
	return years
}

// RunTable2ForScenario evaluates the selected models on one scenario. The
// (test year × model kind) sweep stops launching new train+evaluate cells
// once ctx is done, drains cells in flight, and returns the context's
// error — and each cell's training observes ctx too.
func RunTable2ForScenario(ctx context.Context, sc *Scenario, name string, opts Table2Options) ([]Table2Row, error) {
	o := opts.withDefaults()
	d := sc.Data
	if o.Dry {
		if sc.DryData == nil {
			return nil, fmt.Errorf("paws: scenario %s has no dry-season dataset", name)
		}
		d = sc.DryData
	}
	if len(o.TestYears) == 0 {
		// Default: the last three simulated years, the analogue of the
		// paper's three test years per park.
		o.TestYears = lastYears(d, 3)
	}
	// Stage the (year × kind) grid sequentially — splits are cheap and
	// shared within a year — then fan the independent train+evaluate cells
	// out over the worker pool. Each cell's seed depends only on its grid
	// position, so the rows are identical for any worker count.
	type cell struct {
		split dataset.Split
		year  int
		kind  ModelKind
		seed  int64
	}
	var cells []cell
	for yi, year := range o.TestYears {
		split, err := d.SplitByTestYear(year, o.TrainYears)
		if err != nil {
			return nil, err
		}
		if len(split.Train) == 0 || len(split.Test) == 0 {
			return nil, fmt.Errorf("paws: empty split for %s year %d", name, year)
		}
		for ki, kind := range o.Kinds {
			cells = append(cells, cell{split: split, year: year, kind: kind, seed: o.Train.Seed + int64(yi*100+ki)})
		}
	}
	var done atomic.Int64
	return par.MapErrCtx(ctx, o.Workers, len(cells), func(i int) (Table2Row, error) {
		c := cells[i]
		tr := o.Train
		tr.Kind = c.kind
		tr.Seed = c.seed
		tr.Workers = o.Workers
		tr.progress = nil // the sweep reports per cell, not per weak learner
		m, err := Train(ctx, c.split.Train, tr)
		if err != nil {
			return Table2Row{}, fmt.Errorf("paws: %s %d %v: %w", name, c.year, c.kind, err)
		}
		if pf := o.Train.progress; pf != nil {
			pf(ProgressEvent{
				Stage:   "cell",
				Item:    fmt.Sprintf("%s/%d/%v", name, c.year, c.kind),
				Current: int(done.Add(1)),
				Total:   len(cells),
			})
		}
		return Table2Row{Park: name, TestYear: c.year, Kind: c.kind, AUC: m.AUC(c.split.Test)}, nil
	})
}

// Table2Summary aggregates rows into the iWare-E lift headline.
type Table2Summary struct {
	MeanAUCWithout float64
	MeanAUCWith    float64
	Lift           float64
}

// SummarizeTable2 computes mean AUC with and without iWare-E.
func SummarizeTable2(rows []Table2Row) Table2Summary {
	var with, without []float64
	for _, r := range rows {
		if r.Kind.IsIWare() {
			with = append(with, r.AUC)
		} else {
			without = append(without, r.AUC)
		}
	}
	s := Table2Summary{
		MeanAUCWithout: stats.Mean(without),
		MeanAUCWith:    stats.Mean(with),
	}
	s.Lift = s.MeanAUCWith - s.MeanAUCWithout
	return s
}

// ----------------------------------------------------------------- Fig 4

// Fig4Series is the positive-rate-vs-effort-percentile curve for one park.
type Fig4Series struct {
	Park        string
	Percentiles []float64
	TrainRates  []float64
	TestRates   []float64
}

// RunFig4 computes the Fig. 4 curves from a scenario's train/test split.
// ctx is checked once; the computation is a single pass over the split.
func RunFig4(ctx context.Context, sc *Scenario, name string, testYear, trainYears int, dry bool) (Fig4Series, error) {
	if err := ctxErr(ctx); err != nil {
		return Fig4Series{}, err
	}
	d := sc.Data
	if dry {
		if sc.DryData == nil {
			return Fig4Series{}, fmt.Errorf("paws: no dry dataset for %s", name)
		}
		d = sc.DryData
	}
	split, err := d.SplitByTestYear(testYear, trainYears)
	if err != nil {
		return Fig4Series{}, err
	}
	percentiles := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}
	return Fig4Series{
		Park:        name,
		Percentiles: percentiles,
		TrainRates:  dataset.PositiveRateByEffortPercentile(split.Train, percentiles),
		TestRates:   dataset.PositiveRateByEffortPercentile(split.Test, percentiles),
	}, nil
}

// ----------------------------------------------------------------- Fig 6

// Fig6Maps bundles the Fig. 6 rasters: historical context plus predicted
// risk and uncertainty at several planned effort levels.
type Fig6Maps struct {
	EffortLevels []float64
	// Risk[k][cell] at EffortLevels[k].
	Risk [][]float64
	// Uncertainty[k][cell] at EffortLevels[k].
	Uncertainty [][]float64
	// HistEffort and HistActivity are the 3-year context maps.
	HistEffort   []float64
	HistActivity []float64
}

// RunFig6 trains the given model kind on the scenario's train years and
// evaluates risk/uncertainty maps at the paper's effort levels, observing
// ctx through training and between map-sweep chunks.
func RunFig6(ctx context.Context, sc *Scenario, kind ModelKind, testYear, trainYears int, opts TrainOptions) (*Fig6Maps, error) {
	split, err := sc.Data.SplitByTestYear(testYear, trainYears)
	if err != nil {
		return nil, err
	}
	opts.Kind = kind
	m, err := Train(ctx, split.Train, opts)
	if err != nil {
		return nil, err
	}
	testFrom, _ := sc.Data.StepsForYear(testYear)
	pm, err := NewPlannerModel(ctx, m, sc.Data, testFrom-1, opts.Workers)
	if err != nil {
		return nil, err
	}
	out := &Fig6Maps{EffortLevels: []float64{0.5, 1, 2, 3}}
	for k, e := range out.EffortLevels {
		risk, unc, err := pm.Maps(ctx, e)
		if err != nil {
			return nil, err
		}
		out.Risk = append(out.Risk, risk)
		out.Uncertainty = append(out.Uncertainty, unc)
		if opts.progress != nil {
			opts.progress(ProgressEvent{Stage: "map", Current: k + 1, Total: len(out.EffortLevels)})
		}
	}
	// Historical context: effort and activity summed over the train years.
	n := sc.Park.Grid.NumCells()
	out.HistEffort = make([]float64, n)
	out.HistActivity = make([]float64, n)
	for t := 0; t < testFrom; t++ {
		if sc.Data.Steps[t].Year < testYear-trainYears {
			continue
		}
		for cell := 0; cell < n; cell++ {
			out.HistEffort[cell] += sc.Data.Effort[t][cell]
			if sc.Data.Label[t][cell] {
				out.HistActivity[cell]++
			}
		}
	}
	return out, nil
}

// ----------------------------------------------------------------- Fig 7

// Fig7Result compares prediction-vs-uncertainty correlation for a GP
// weak learner against a bagged-decision-tree weak learner.
type Fig7Result struct {
	GPCorrelation float64
	DTCorrelation float64
	GPPredictions []float64
	GPVariances   []float64
	DTPredictions []float64
	DTVariances   []float64
}

// RunFig7 trains one GPB and one DTB weak learner on the scenario's training
// years and correlates predictions with uncertainty on the test points
// (paper: r ≈ −0.198 for GPs vs 0.979 for bagged trees). ctx is observed
// through both probe-model trainings.
func RunFig7(ctx context.Context, sc *Scenario, testYear, trainYears int, opts TrainOptions) (*Fig7Result, error) {
	split, err := sc.Data.SplitByTestYear(testYear, trainYears)
	if err != nil {
		return nil, err
	}
	// The two probe models are independent; train them concurrently.
	models, err := par.MapErrCtx(ctx, opts.Workers, 2, func(i int) (*Model, error) {
		mo := opts
		mo.Kind = []ModelKind{GPB, DTB}[i]
		return Train(ctx, split.Train, mo)
	})
	if err != nil {
		return nil, err
	}
	gpm, dtm := models[0], models[1]
	res := &Fig7Result{}
	for _, p := range split.Test {
		gpp, gpv := gpm.PredictWithVariance(p.Features, p.Effort)
		res.GPPredictions = append(res.GPPredictions, gpp)
		res.GPVariances = append(res.GPVariances, gpv)
		dtp := dtm.Ensemble().PredictProba(p.Features)
		dtv := dtm.Ensemble().JackknifeVariance(p.Features)
		res.DTPredictions = append(res.DTPredictions, dtp)
		res.DTVariances = append(res.DTVariances, dtv)
	}
	res.GPCorrelation = stats.Pearson(res.GPPredictions, res.GPVariances)
	res.DTCorrelation = stats.Pearson(res.DTPredictions, res.DTVariances)
	return res, nil
}

// --------------------------------------------------------- Fig 8 / Fig 9

// PlanStudyOptions scales the planning experiments.
type PlanStudyOptions struct {
	// Posts caps the number of patrol posts (regions) used.
	Posts int
	// Radius and MaxCells bound each region.
	Radius, MaxCells int
	// T, K, Segments configure the planner.
	T        int
	K        float64
	Segments int
	// Solver picks the planning strategy (default plan.SolverAuto).
	Solver plan.SolverKind
	// Betas for the Fig. 8(a–c) sweep.
	Betas []float64
	// SegmentCounts for Fig. 8(d–f) and Fig. 9.
	SegmentCounts []int
	// TrainYears / TestYear select the model split.
	TestYear, TrainYears int
	Train                TrainOptions
	// Workers bounds the goroutines used for training, map generation and
	// the β/segment sweeps (par.Workers semantics; results identical for
	// any count). Overrides Train.Workers when that is unset.
	Workers int
}

func (o PlanStudyOptions) withDefaults() PlanStudyOptions {
	if o.Posts <= 0 {
		o.Posts = 3
	}
	if o.Radius <= 0 {
		// Regions must reach beyond the well-patrolled neighbourhood of the
		// post, where predictive uncertainty is flat, into poorly-known
		// territory — that heterogeneity is what robust planning trades on.
		o.Radius = 5
	}
	if o.MaxCells <= 0 {
		o.MaxCells = 60
	}
	if o.T <= 0 {
		o.T = 12
	}
	if o.K <= 0 {
		o.K = 2
	}
	if o.Segments <= 0 {
		o.Segments = 10
	}
	if len(o.Betas) == 0 {
		o.Betas = []float64{0.8, 0.85, 0.9, 0.95, 1.0}
	}
	if len(o.SegmentCounts) == 0 {
		o.SegmentCounts = []int{5, 10, 15, 20, 25}
	}
	if o.TestYear == 0 {
		o.TestYear = dataset.BaseYear + 5
	}
	if o.TrainYears <= 0 {
		o.TrainYears = 3
	}
	return o
}

// PlanStudy bundles a trained planner model and its per-post regions.
type PlanStudy struct {
	Scenario *Scenario
	Model    *PlannerModel
	Regions  []*plan.Region
	Config   plan.Config
	opts     PlanStudyOptions
}

// NewPlanStudy trains the planning model (GPB-iW by default) and builds the
// per-post regions, observing ctx through model training and planner-model
// calibration.
func NewPlanStudy(ctx context.Context, sc *Scenario, opts PlanStudyOptions) (*PlanStudy, error) {
	o := opts.withDefaults()
	split, err := sc.Data.SplitByTestYear(o.TestYear, o.TrainYears)
	if err != nil {
		return nil, err
	}
	tr := o.Train
	if tr.Kind != GPBiW && tr.Kind != DTBiW && tr.Kind != SVBiW {
		tr.Kind = GPBiW
	}
	if tr.Workers == 0 {
		tr.Workers = o.Workers
	}
	m, err := Train(ctx, split.Train, tr)
	if err != nil {
		return nil, err
	}
	testFrom, _ := sc.Data.StepsForYear(o.TestYear)
	pm, err := NewPlannerModel(ctx, m, sc.Data, testFrom-1, o.Workers)
	if err != nil {
		return nil, err
	}
	var regions []*plan.Region
	for i, post := range sc.Park.Posts {
		if i >= o.Posts {
			break
		}
		r, err := plan.NewRegion(sc.Park, post, o.Radius, o.MaxCells)
		if err != nil {
			return nil, err
		}
		regions = append(regions, r)
	}
	if len(regions) == 0 {
		return nil, fmt.Errorf("paws: scenario has no patrol posts")
	}
	return &PlanStudy{
		Scenario: sc,
		Model:    pm,
		Regions:  regions,
		Config:   plan.Config{T: o.T, K: o.K, Segments: o.Segments, Solver: o.Solver, Workers: o.Workers},
		opts:     o,
	}, nil
}

// RunFig8Beta computes the Fig. 8(a–c) ratio-vs-β series, observing ctx
// between solves.
func (ps *PlanStudy) RunFig8Beta(ctx context.Context) ([]game.RatioPoint, error) {
	return game.BetaSweep(ctx, ps.Regions, ps.Model, ps.Config, ps.opts.Betas)
}

// RunFig8Segments computes the Fig. 8(d–f) ratio-vs-segments series at β=1,
// observing ctx between solves.
func (ps *PlanStudy) RunFig8Segments(ctx context.Context) ([]game.RatioPoint, error) {
	return game.SegmentRatioSweep(ctx, ps.Regions, ps.Model, ps.Config, 1.0, ps.opts.SegmentCounts)
}

// RunFig9 computes the runtime and utility-convergence series of Fig. 9,
// observing ctx between solves. The paper's runtime curve measures the MILP
// formulation, so this study solves a compact region with the exact
// (simplex + branch-and-bound) solver: runtime grows with the PWL segment
// count while the utility converges.
func (ps *PlanStudy) RunFig9(ctx context.Context) ([]game.SegmentPoint, error) {
	region, err := plan.NewRegion(ps.Scenario.Park, ps.Regions[0].Post, 3, 14)
	if err != nil {
		return nil, err
	}
	cfg := ps.Config
	cfg.T = 6
	cfg.Solver = plan.SolverMILP
	return game.SegmentSweep(ctx, region, ps.Model, cfg, ps.opts.SegmentCounts)
}

// RunDetectionGain simulates robust (β=1) vs blind (β=0) plans against the
// scenario's ground truth and reports the detection factor — the analogue
// of the paper's "30% more snares detected" claim. ctx is observed between
// per-region solves.
func (ps *PlanStudy) RunDetectionGain(ctx context.Context, months int, seed int64) (game.DetectionResult, error) {
	agg := game.DetectionResult{}
	for i, region := range ps.Regions {
		if err := ctxErr(ctx); err != nil {
			return agg, err
		}
		cfgR := ps.Config
		cfgR.Beta = 1
		robust, err := plan.Solve(region, ps.Model, cfgR)
		if err != nil {
			return agg, err
		}
		cfgB := ps.Config
		cfgB.Beta = 0
		blind, err := plan.Solve(region, ps.Model, cfgB)
		if err != nil {
			return agg, err
		}
		r := game.SimulateDetections(region, ps.Scenario.History.Truth, robust.Effort, blind.Effort, months, seed+int64(i))
		agg.RobustDetections += r.RobustDetections
		agg.BlindDetections += r.BlindDetections
	}
	switch {
	case agg.BlindDetections > 0:
		agg.Factor = float64(agg.RobustDetections) / float64(agg.BlindDetections)
	case agg.RobustDetections > 0:
		agg.Factor = float64(agg.RobustDetections)
	default:
		agg.Factor = 1
	}
	return agg, nil
}

// ------------------------------------------------------- Table III / Fig 10

// Table3Trial describes one field-test trial.
type Table3Trial struct {
	Name   string
	Park   string
	Result *field.Result
}

// Table3Options configures the field-test reproduction.
type Table3Options struct {
	// MFNP/SWS protocols mirror Section VII: 2×2 blocks in MFNP, 3×3 in SWS,
	// 50th-percentile history filter, hidden risk groups.
	PerGroup   int
	TrainYears int
	// EffortPerCellMonth is the ranger effort intensity during the trial
	// (default 2.5 km; the SWS trials deployed 72 rangers on 15 blocks, a
	// much higher intensity).
	EffortPerCellMonth float64
	Train              TrainOptions
	Seed               int64
	// Workers bounds the goroutines used for training and risk-map
	// generation (par.Workers semantics; results identical for any count).
	// Overrides Train.Workers when that is unset.
	Workers int
}

// RunTable3ForScenario runs two trials on one scenario (matching the two
// MFNP trials and two SWS trials of Table III), observing ctx through
// training, risk-map generation and between trials.
func RunTable3ForScenario(ctx context.Context, sc *Scenario, name string, blockSize int, trialMonths []int, opts Table3Options) ([]Table3Trial, error) {
	if opts.PerGroup <= 0 {
		opts.PerGroup = 5
	}
	if opts.TrainYears <= 0 {
		opts.TrainYears = 3
	}
	if opts.EffortPerCellMonth <= 0 {
		opts.EffortPerCellMonth = 2.5
	}
	d := sc.Data
	// Train on everything before the final simulated year; the trial months
	// run during it.
	testYear := d.Steps[len(d.Steps)-1].Year
	split, err := d.SplitByTestYear(testYear, opts.TrainYears)
	if err != nil {
		return nil, err
	}
	tr := opts.Train
	if tr.Kind != DTBiW && tr.Kind != GPBiW && tr.Kind != SVBiW {
		// Paper: DTB-iW scores for the MFNP field test, GPB-iW for SWS.
		tr.Kind = DTBiW
		if sc.Park.Config.Seasonal {
			tr.Kind = GPBiW
		}
	}
	if tr.Workers == 0 {
		tr.Workers = opts.Workers
	}
	m, err := Train(ctx, split.Train, tr)
	if err != nil {
		return nil, err
	}
	testFrom, _ := d.StepsForYear(testYear)
	pm, err := NewPlannerModel(ctx, m, d, testFrom-1, opts.Workers)
	if err != nil {
		return nil, err
	}
	risk, _, err := pm.Maps(ctx, NominalEffort(d))
	if err != nil {
		return nil, err
	}
	// History: total effort over the training window.
	n := sc.Park.Grid.NumCells()
	history := make([]float64, n)
	for t := 0; t < testFrom; t++ {
		for cell := 0; cell < n; cell++ {
			history[cell] += d.Effort[t][cell]
		}
	}
	var trials []Table3Trial
	startMonth := d.Steps[testFrom].Months[0]
	for i, months := range trialMonths {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		proto := field.Protocol{
			BlockSize:            blockSize,
			PerGroup:             opts.PerGroup,
			HistoryPercentileCap: 50,
			Months:               months,
			StartMonth:           startMonth,
			EffortPerCellMonth:   opts.EffortPerCellMonth,
			IntuitionBias:        0.4,
			Seed:                 opts.Seed + int64(i*977),
		}
		res, err := field.Run(sc.Park, sc.History.Truth, risk, history, proto)
		if err != nil {
			return nil, err
		}
		trials = append(trials, Table3Trial{
			Name:   fmt.Sprintf("%s trial %d", name, i+1),
			Park:   name,
			Result: res,
		})
		if opts.Train.progress != nil {
			opts.Train.progress(ProgressEvent{Stage: "trial", Item: name, Current: i + 1, Total: len(trialMonths)})
		}
		startMonth += months
	}
	return trials, nil
}

// ------------------------------------------------------------ ASCII output

// RasterASCII renders a per-cell slice as an ASCII heatmap over the park.
func RasterASCII(park *geo.Park, values []float64) string {
	r := geo.NewRaster(park.Grid)
	copy(r.V, values)
	return r.ASCII()
}

// FormatDuration rounds a duration for table output.
func FormatDuration(d time.Duration) string { return d.Round(time.Millisecond).String() }

// SortTable2Rows orders rows by park, year, then model kind for stable
// printing.
func SortTable2Rows(rows []Table2Row) {
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].Park != rows[b].Park {
			return rows[a].Park < rows[b].Park
		}
		if rows[a].TestYear != rows[b].TestYear {
			return rows[a].TestYear < rows[b].TestYear
		}
		return rows[a].Kind < rows[b].Kind
	})
}
