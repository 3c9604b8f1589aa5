package paws

import (
	"context"
	"math"
	"testing"

	"paws/internal/dataset"
	"paws/internal/geo"
	"paws/internal/poach"
)

// smallScenario builds a reduced park+history fast enough for unit tests.
func smallScenario(t testing.TB, seed int64, seasonal bool) *Scenario {
	t.Helper()
	parkCfg := geo.ParkConfig{
		Name: "SMALL", Seed: seed, W: 26, H: 26, TargetCells: 480,
		Shape: geo.ShapeRound, NumRivers: 2, NumRoads: 2, NumVillages: 3,
		NumPosts: 3, ExtraFeatures: 2, Seasonal: seasonal,
	}
	simCfg := poach.SimConfig{
		Seed:   seed + 1,
		Months: 60, // 5 years: tests use the final year
		Patrol: poach.PatrolConfig{
			PatrolsPerPostMonth: 4, LengthKM: 11, RecordEvery: 1,
			RoadBias: 0.3, AttractBias: 0.5,
		},
		TargetPositiveRate: 0.10,
		Deterrence:         0.3,
		DetectLambda:       0.5,
		NonPoachingRate:    0.05,
	}
	if seasonal {
		simCfg.SeasonalAmp = 0.6
		simCfg.Patrol.WetSeasonRiverBlock = true
	}
	sc, err := NewCustomScenario(parkCfg, simCfg)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// quickOpts trains a small model of one kind fast enough for unit tests.
func quickOpts(kind ModelKind, seed int64) []Option {
	return []Option{WithKind(kind), WithThresholds(4), WithEnsembleSize(4),
		WithGPMaxTrain(60), WithTreeDepth(6), WithSeed(seed)}
}

// maps evaluates a planner model's risk and uncertainty maps at one effort,
// failing the test on error.
func maps(t testing.TB, pm *PlannerModel, effort float64) (risk, uncertainty []float64) {
	t.Helper()
	risk, uncertainty, err := pm.Maps(context.Background(), effort)
	if err != nil {
		t.Fatal(err)
	}
	return risk, uncertainty
}

func TestNewScenarioPresets(t *testing.T) {
	if testing.Short() {
		t.Skip("full presets are slow")
	}
	sc, err := NewService(WithSeed(3)).Scenario(context.Background(), "QENP")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Park.Grid.NumCells() != 2522 {
		t.Fatalf("QENP cells = %d", sc.Park.Grid.NumCells())
	}
	if sc.DryData != nil {
		t.Fatal("QENP should have no dry dataset")
	}
	if _, err := NewService(WithSeed(1)).Scenario(context.Background(), "NOPE"); err == nil {
		t.Fatal("expected unknown-preset error")
	}
}

func TestScenarioSeasonalHasDryData(t *testing.T) {
	sc := smallScenario(t, 11, true)
	if sc.DryData == nil {
		t.Fatal("seasonal scenario must build a dry dataset")
	}
	if len(sc.DryData.Steps) >= len(sc.Data.Steps)*2 {
		t.Fatal("dry dataset should have fewer or similar steps")
	}
}

func TestTrainAllKindsAndAUC(t *testing.T) {
	sc := smallScenario(t, 13, false)
	split, err := sc.Data.SplitByTestYear(dataset.BaseYear+4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []ModelKind{SVB, DTB, GPB, SVBiW, DTBiW, GPBiW} {
		m, err := NewService().Train(context.Background(), split.Train, quickOpts(kind, 17)...)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		auc := m.AUC(split.Test)
		if auc < 0.3 || auc > 1 {
			t.Fatalf("%v AUC = %v", kind, auc)
		}
		if kind.IsIWare() && m.IWare() == nil {
			t.Fatalf("%v should expose the iWare ensemble", kind)
		}
		if !kind.IsIWare() && m.Ensemble() == nil {
			t.Fatalf("%v should expose the bagging ensemble", kind)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := NewService().Train(context.Background(), nil, WithKind(DTB)); err == nil {
		t.Fatal("expected empty-training error")
	}
}

func TestModelKindStrings(t *testing.T) {
	names := map[ModelKind]string{
		SVB: "SVB", DTB: "DTB", GPB: "GPB",
		SVBiW: "SVB-iW", DTBiW: "DTB-iW", GPBiW: "GPB-iW",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d → %q want %q", k, k.String(), want)
		}
	}
	if ModelKind(42).String() == "" {
		t.Fatal("unknown kind should still print")
	}
	if SVB.IsIWare() || !GPBiW.IsIWare() {
		t.Fatal("IsIWare wrong")
	}
}

func TestPlannerModel(t *testing.T) {
	sc := smallScenario(t, 19, false)
	split, err := sc.Data.SplitByTestYear(dataset.BaseYear+4, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewService().Train(context.Background(), split.Train, quickOpts(GPBiW, 23)...)
	if err != nil {
		t.Fatal(err)
	}
	testFrom, _ := sc.Data.StepsForYear(dataset.BaseYear + 4)
	pm, err := newPlannerModel(context.Background(), m, sc.Data, testFrom-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := sc.Park.Grid.NumCells()
	risk, unc := maps(t, pm, 1)
	if len(risk) != n || len(unc) != n {
		t.Fatal("map sizes wrong")
	}
	for cell := 0; cell < n; cell += 37 {
		if risk[cell] < 0 || risk[cell] > 1 {
			t.Fatalf("risk %v", risk[cell])
		}
		if unc[cell] < 0 || unc[cell] >= 1 {
			t.Fatalf("uncertainty %v", unc[cell])
		}
		// Cache consistency.
		var g, nu [1]float64
		pm.Eval([]int{cell}, []float64{1}, g[:], nu[:])
		if g[0] != risk[cell] || nu[0] != unc[cell] {
			t.Fatal("cache inconsistency")
		}
	}
	if pm.SquashScale() <= 0 {
		t.Fatal("squash scale must be positive")
	}
	// Errors.
	if _, err := newPlannerModel(context.Background(), nil, sc.Data, 0, 0); err == nil {
		t.Fatal("expected nil-model error")
	}
	if _, err := newPlannerModel(context.Background(), m, sc.Data, -1, 0); err == nil {
		t.Fatal("expected step-range error")
	}
}

func TestNominalEffort(t *testing.T) {
	sc := smallScenario(t, 29, false)
	e := NominalEffort(sc.Data)
	if e <= 0 || math.IsNaN(e) {
		t.Fatalf("nominal effort %v", e)
	}
	empty := &dataset.Dataset{Park: sc.Park, Cfg: dataset.StandardConfig()}
	if NominalEffort(empty) != 1 {
		t.Fatal("empty dataset should default to 1")
	}
}

func TestRunFig4(t *testing.T) {
	sc := smallScenario(t, 31, false)
	svc := NewService()
	s, err := svc.Fig4(context.Background(), sc, "SMALL", dataset.BaseYear+4)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.TrainRates) != len(s.Percentiles) || len(s.TestRates) != len(s.Percentiles) {
		t.Fatal("series lengths wrong")
	}
	// Positive rate must trend upward with effort percentile (Fig 4 shape).
	// The far tail is noisy (few points above the 90th percentile), so
	// compare the median band against the base rate.
	if s.TrainRates[5] <= s.TrainRates[0] {
		t.Fatalf("train positive rate should rise with percentile: %v", s.TrainRates)
	}
	if _, err := svc.Fig4(context.Background(), sc, "SMALL", dataset.BaseYear+4, WithDrySeason(true)); err == nil {
		t.Fatal("expected dry-data error on non-seasonal scenario")
	}
}

func TestRunTable2SmallSweep(t *testing.T) {
	sc := smallScenario(t, 37, false)
	rows, err := NewService().Table2(context.Background(), sc, "SMALL",
		WithKinds(DTB, DTBiW), WithTestYears(dataset.BaseYear+4),
		WithEnsembleSize(4), WithThresholds(4), WithSeed(41))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	SortTable2Rows(rows)
	if rows[0].Kind != DTB || rows[1].Kind != DTBiW {
		t.Fatal("sort order wrong")
	}
	sum := SummarizeTable2(rows)
	if sum.MeanAUCWith == 0 || sum.MeanAUCWithout == 0 {
		t.Fatal("summary incomplete")
	}
}

func TestRunFig7Correlations(t *testing.T) {
	sc := smallScenario(t, 43, false)
	res, err := NewService().Fig7(context.Background(), sc, dataset.BaseYear+4, quickOpts(GPB, 47)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GPPredictions) == 0 || len(res.DTPredictions) == 0 {
		t.Fatal("no test predictions")
	}
	// Fig 7 shape: bagged-tree variance tracks p(1−p), a near-deterministic
	// function of the prediction, so its correlation is strong and positive;
	// GP variance is driven by data density, so its correlation is weaker.
	if res.DTCorrelation < 0.3 {
		t.Fatalf("DT prediction-variance correlation %v should be strongly positive", res.DTCorrelation)
	}
	if math.Abs(res.GPCorrelation) > 0.95 {
		t.Fatalf("GP correlation %v should not be near-perfect", res.GPCorrelation)
	}
}

func TestPlanStudyEndToEnd(t *testing.T) {
	sc := smallScenario(t, 53, false)
	ps, err := NewService().PlanStudy(context.Background(), sc, append(quickOpts(GPBiW, 59),
		WithPosts(2),
		WithRegionShape(2, 16),
		WithPlanHorizon(4, 2, 4),
		WithBetas(1.0),
		WithSegmentCounts(3, 6),
		WithTestYears(dataset.BaseYear+4),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	beta, err := ps.RunFig8Beta(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(beta) != 1 || beta[0].Avg < 0.95 {
		t.Fatalf("beta sweep: %+v", beta)
	}
	segs, err := ps.RunFig9(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0].Runtime <= 0 {
		t.Fatalf("segment sweep: %+v", segs)
	}
	gain, err := ps.RunDetectionGain(context.Background(), 24, 61)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny test regions have too little statistical power to assert the
	// paper's 30% gain here (the bench does); just check well-formedness.
	if gain.RobustDetections < 0 || gain.BlindDetections < 0 || gain.Factor < 0 {
		t.Fatalf("detection gain: %+v", gain)
	}
}

func TestRunTable3SmallTrial(t *testing.T) {
	sc := smallScenario(t, 67, false)
	trials, err := NewService().Table3(context.Background(), sc, "SMALL", 2, []int{2, 2},
		append(quickOpts(DTBiW, 71), WithFieldProtocol(4, 2.5))...)
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 2 {
		t.Fatalf("trials = %d", len(trials))
	}
	for _, tr := range trials {
		if len(tr.Result.Groups) != 3 {
			t.Fatal("missing groups")
		}
		for _, g := range tr.Result.Groups {
			if g.CellsVisited == 0 {
				t.Fatalf("%s: group %v never patrolled", tr.Name, g.Group)
			}
		}
	}
}

func TestRasterASCII(t *testing.T) {
	sc := smallScenario(t, 79, false)
	v := make([]float64, sc.Park.Grid.NumCells())
	s := RasterASCII(sc.Park, v)
	if len(s) == 0 {
		t.Fatal("empty ASCII output")
	}
}
