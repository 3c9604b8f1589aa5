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

// This file hosts the Service methods that regenerate every table and
// figure of the paper's evaluation: Table1, Table2 (Table II), Fig4, Fig6,
// Fig7, PlanStudy (Figs. 8 and 9 and the detection gain) and Table3
// (Table III and Fig. 10). Each reads its scale from the merged options, so
// the benchmark harness can run reduced instances while cmd/pawstables and
// cmd/pawsfigs run the full presets.

// ---------------------------------------------------------------- Table I

// Table1Row mirrors one column of Table I.
type Table1Row = dataset.Stats

// Table1 regenerates the Table I dataset statistics for the three parks,
// at full scale under WithSeed, plus the SWS dry-season view. The three
// park scenarios generate on up to WithWorkers goroutines (par.Workers
// semantics); rows come back in the fixed park order regardless of which
// finishes first. ctx is observed between (and inside) the per-park
// scenario generations.
func (s *Service) Table1(ctx context.Context, opts ...Option) ([]Table1Row, error) {
	st := s.settingsFor(opts)
	parks := []string{"MFNP", "QENP", "SWS"}
	perPark, err := par.MapErrCtx(ctx, st.workers, len(parks), func(i int) ([]Table1Row, error) {
		parkCfg, simCfg, err := specConfigs(parks[i], st.seed)
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

// Table2 runs the Table II AUC sweep on one scenario: every selected model
// kind (WithKinds, or WithKind for one; default all six) trained on each
// test year's window (WithTrainYears, paper 3) and scored on that year.
// WithDrySeason selects the dry-season dataset. Each cell trains under the
// merged training settings with its own seed, WithSeed plus an offset from
// its grid position, so the table is identical for any worker count;
// WithWorkers also bounds the goroutines the (test year × model kind) grid
// fans out over. WithProgress observes per-cell sweep completion, not the
// cells' weak-learner fits. The sweep stops launching new train+evaluate
// cells once ctx is done, drains cells in flight, and returns the
// context's error — and each cell's training observes ctx too.
func (s *Service) Table2(ctx context.Context, sc *Scenario, name string, opts ...Option) ([]Table2Row, error) {
	st := s.settingsFor(opts)
	kinds := st.kinds
	if len(kinds) == 0 && st.kindSet {
		kinds = []ModelKind{st.kind}
	}
	if len(kinds) == 0 {
		kinds = []ModelKind{SVB, DTB, GPB, SVBiW, DTBiW, GPBiW}
	}
	d := sc.Data
	if st.dry {
		if sc.DryData == nil {
			return nil, fmt.Errorf("paws: scenario %s has no dry-season dataset", name)
		}
		d = sc.DryData
	}
	testYears := st.testYears
	if len(testYears) == 0 {
		// Default: the last three simulated years, the analogue of the
		// paper's three test years per park.
		testYears = lastYears(d, 3)
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
	for yi, year := range testYears {
		split, err := d.SplitByTestYear(year, st.trainWindow())
		if err != nil {
			return nil, err
		}
		if len(split.Train) == 0 || len(split.Test) == 0 {
			return nil, fmt.Errorf("paws: empty split for %s year %d", name, year)
		}
		for ki, kind := range kinds {
			cells = append(cells, cell{split: split, year: year, kind: kind, seed: st.seed + int64(yi*100+ki)})
		}
	}
	var done atomic.Int64
	return par.MapErrCtx(ctx, st.workers, len(cells), func(i int) (Table2Row, error) {
		c := cells[i]
		cs := st
		cs.kind, cs.seed = c.kind, c.seed
		cs.progress = nil // the sweep reports per cell, not per weak learner
		m, err := cs.train(ctx, c.split.Train)
		if err != nil {
			return Table2Row{}, fmt.Errorf("paws: %s %d %v: %w", name, c.year, c.kind, err)
		}
		if pf := st.progress; pf != nil {
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

// Fig4 computes the Fig. 4 positive-rate-vs-effort-percentile curves from
// a scenario's train/test split (WithTrainYears, WithDrySeason). ctx is
// checked once; the computation is a single pass over the split.
func (s *Service) Fig4(ctx context.Context, sc *Scenario, name string, testYear int, opts ...Option) (Fig4Series, error) {
	if err := ctxErr(ctx); err != nil {
		return Fig4Series{}, err
	}
	st := s.settingsFor(opts)
	d := sc.Data
	if st.dry {
		if sc.DryData == nil {
			return Fig4Series{}, fmt.Errorf("paws: no dry dataset for %s", name)
		}
		d = sc.DryData
	}
	split, err := d.SplitByTestYear(testYear, st.trainWindow())
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

// Fig6 trains the configured model kind (default GPB-iW) on the scenario's
// train years and evaluates the Fig. 6 risk/uncertainty maps at the
// paper's effort levels, observing ctx through training and between
// map-sweep chunks.
func (s *Service) Fig6(ctx context.Context, sc *Scenario, testYear int, opts ...Option) (*Fig6Maps, error) {
	st := s.settingsFor(opts)
	if !st.kindSet {
		st.kind = GPBiW
	}
	trainYears := st.trainWindow()
	split, err := sc.Data.SplitByTestYear(testYear, trainYears)
	if err != nil {
		return nil, err
	}
	m, err := st.train(ctx, split.Train)
	if err != nil {
		return nil, err
	}
	testFrom, _ := sc.Data.StepsForYear(testYear)
	pm, err := newPlannerModel(ctx, m, sc.Data, testFrom-1, st.workers)
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
		if st.progress != nil {
			st.progress(ProgressEvent{Stage: "map", Current: k + 1, Total: len(out.EffortLevels)})
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

// Fig7 runs the GP-vs-bagged-trees uncertainty correlation study: it trains
// one GPB and one DTB weak learner on the scenario's training years and
// correlates predictions with uncertainty on the test points (paper:
// r ≈ −0.198 for GPs vs 0.979 for bagged trees). ctx is observed through
// both probe-model trainings.
func (s *Service) Fig7(ctx context.Context, sc *Scenario, testYear int, opts ...Option) (*Fig7Result, error) {
	st := s.settingsFor(opts)
	split, err := sc.Data.SplitByTestYear(testYear, st.trainWindow())
	if err != nil {
		return nil, err
	}
	// The two probe models are independent; train them concurrently.
	models, err := par.MapErrCtx(ctx, st.workers, 2, func(i int) (*Model, error) {
		ms := st
		ms.kind = []ModelKind{GPB, DTB}[i]
		return ms.train(ctx, split.Train)
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

// PlanStudy bundles a trained planner model and its per-post regions.
type PlanStudy struct {
	Scenario *Scenario
	Model    *PlannerModel
	Regions  []*plan.Region
	Config   plan.Config
	// betas and segmentCounts are the values the Fig. 8 and Fig. 9 sweeps
	// run over.
	betas         []float64
	segmentCounts []int
}

// PlanStudy trains a planning model (WithKind when it is an iWare-E kind,
// else GPB-iW) on the WithTrainYears window before the first WithTestYears
// year (default BaseYear+5) and builds the regions of the first WithPosts
// patrol posts (default 3) for the Fig. 8/9 sweeps. WithRegionShape bounds
// each region (default radius 5, at most 60 cells), WithPlanHorizon sets
// the planner (default T 12, K 2, 10 segments), and WithBetas and
// WithSegmentCounts set the sweeps (default five values each). ctx is
// observed through model training and planner-model calibration.
func (s *Service) PlanStudy(ctx context.Context, sc *Scenario, opts ...Option) (*PlanStudy, error) {
	st := s.settingsFor(opts)
	testYear := dataset.BaseYear + 5
	if len(st.testYears) > 0 {
		testYear = st.testYears[0]
	}
	split, err := sc.Data.SplitByTestYear(testYear, st.trainWindow())
	if err != nil {
		return nil, err
	}
	if !st.kind.IsIWare() {
		st.kind = GPBiW
	}
	m, err := st.train(ctx, split.Train)
	if err != nil {
		return nil, err
	}
	testFrom, _ := sc.Data.StepsForYear(testYear)
	pm, err := newPlannerModel(ctx, m, sc.Data, testFrom-1, st.workers)
	if err != nil {
		return nil, err
	}
	// Regions must reach beyond the well-patrolled neighbourhood of the post,
	// where predictive uncertainty is flat, into poorly-known territory —
	// that heterogeneity is what robust planning trades on.
	radius, maxCells := positiveOr(st.radius, 5), positiveOr(st.maxCells, 60)
	posts := sc.Park.Posts[:min(len(sc.Park.Posts), positiveOr(st.posts, 3))]
	var regions []*plan.Region
	for _, post := range posts {
		r, err := plan.NewRegion(sc.Park, post, radius, maxCells)
		if err != nil {
			return nil, err
		}
		regions = append(regions, r)
	}
	if len(regions) == 0 {
		return nil, fmt.Errorf("paws: scenario has no patrol posts")
	}
	ps := &PlanStudy{
		Scenario: sc,
		Model:    pm,
		Regions:  regions,
		Config: plan.Config{
			T:        positiveOr(st.horizonT, 12),
			K:        positiveOr(st.horizonK, 2),
			Segments: positiveOr(st.segments, 10),
			Workers:  st.workers,
		},
		betas:         st.betas,
		segmentCounts: st.segmentCounts,
	}
	if len(ps.betas) == 0 {
		ps.betas = []float64{0.8, 0.85, 0.9, 0.95, 1.0}
	}
	if len(ps.segmentCounts) == 0 {
		ps.segmentCounts = []int{5, 10, 15, 20, 25}
	}
	return ps, nil
}

// RunFig8Beta computes the Fig. 8(a–c) ratio-vs-β series, observing ctx
// between solves.
func (ps *PlanStudy) RunFig8Beta(ctx context.Context) ([]game.RatioPoint, error) {
	return game.BetaSweep(ctx, ps.Regions, ps.Model, ps.Config, ps.betas)
}

// RunFig8Segments computes the Fig. 8(d–f) ratio-vs-segments series at β=1,
// observing ctx between solves.
func (ps *PlanStudy) RunFig8Segments(ctx context.Context) ([]game.RatioPoint, error) {
	return game.SegmentRatioSweep(ctx, ps.Regions, ps.Model, ps.Config, 1.0, ps.segmentCounts)
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
	return game.SegmentSweep(ctx, region, ps.Model, cfg, ps.segmentCounts)
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

// Table3 reproduces the Table III field-test trials on one scenario: one
// trial per entry of trialMonths (matching the two MFNP and two SWS trials
// of Table III), on blockSize×blockSize blocks (2×2 in MFNP, 3×3 in SWS),
// with a 50th-percentile history filter and hidden risk groups as in
// Section VII. WithFieldProtocol sets the blocks picked per risk group
// (default 5) and the ranger effort intensity in km per cell-month
// (default 2.5; the SWS trials deployed 72 rangers on 15 blocks, a much
// higher intensity). WithSeed seeds both the trial model and the trials.
// ctx is observed through training, risk-map generation and between
// trials.
func (s *Service) Table3(ctx context.Context, sc *Scenario, name string, blockSize int, trialMonths []int, opts ...Option) ([]Table3Trial, error) {
	st := s.settingsFor(opts)
	d := sc.Data
	// Train on everything before the final simulated year; the trial months
	// run during it.
	testYear := d.Steps[len(d.Steps)-1].Year
	split, err := d.SplitByTestYear(testYear, st.trainWindow())
	if err != nil {
		return nil, err
	}
	if !st.kind.IsIWare() {
		// Paper: DTB-iW scores for the MFNP field test, GPB-iW for SWS.
		st.kind = DTBiW
		if sc.Park.Config.Seasonal {
			st.kind = GPBiW
		}
	}
	m, err := st.train(ctx, split.Train)
	if err != nil {
		return nil, err
	}
	testFrom, _ := d.StepsForYear(testYear)
	pm, err := newPlannerModel(ctx, m, d, testFrom-1, st.workers)
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
			PerGroup:             positiveOr(st.perGroup, 5),
			HistoryPercentileCap: 50,
			Months:               months,
			StartMonth:           startMonth,
			EffortPerCellMonth:   positiveOr(st.effortPerCellMonth, 2.5),
			IntuitionBias:        0.4,
			Seed:                 st.seed + int64(i*977),
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
		if st.progress != nil {
			st.progress(ProgressEvent{Stage: "trial", Item: name, Current: i + 1, Total: len(trialMonths)})
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
