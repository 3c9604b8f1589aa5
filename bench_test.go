package paws

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (DESIGN.md §4), plus ablations of the design choices DESIGN.md
// §5 calls out. Benchmarks run on ScaleSmall parks so a full -bench=. sweep
// stays tractable; cmd/pawstables and cmd/pawsfigs run the full presets.
// Each benchmark reports the headline metric via b.ReportMetric so the
// regenerated numbers are visible in benchmark output.

import (
	"context"
	"fmt"
	"testing"

	"paws/internal/dataset"
	"paws/internal/job"
	"paws/internal/plan"
	"paws/internal/stats"
)

// benchScenario caches scenarios across benchmark iterations.
var benchScenarios = map[string]*Scenario{}

func benchScenario(b *testing.B, name string) *Scenario {
	b.Helper()
	if sc, ok := benchScenarios[name]; ok {
		return sc
	}
	sc, err := NewService(WithSeed(7), WithScale(ScaleSmall)).Scenario(context.Background(), name)
	if err != nil {
		b.Fatal(err)
	}
	benchScenarios[name] = sc
	return sc
}

func benchLastYear(sc *Scenario) int {
	return sc.Data.Steps[len(sc.Data.Steps)-1].Year
}

// BenchmarkTable1DatasetStats regenerates Table I: dataset statistics for
// the three parks (small-scale presets).
func BenchmarkTable1DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"MFNP", "QENP", "SWS"} {
			sc := benchScenario(b, name)
			s := sc.Data.TableIStats(name)
			if s.NumPoints == 0 {
				b.Fatal("empty dataset")
			}
			if i == 0 {
				b.Logf("%s: %d cells, %d pts, %.2f%% pos, %.2f km/cell",
					name, s.NumCells, s.NumPoints, s.PctPositive, s.AvgEffortKM)
			}
		}
	}
}

// benchTable2 runs one Table II cell (park × model kind) and reports AUC.
func benchTable2(b *testing.B, park string, kind ModelKind) {
	sc := benchScenario(b, park)
	var auc float64
	for i := 0; i < b.N; i++ {
		rows, err := RunTable2ForScenario(context.Background(), sc, park, Table2Options{
			Kinds:     []ModelKind{kind},
			TestYears: []int{benchLastYear(sc)},
			Train: TrainOptions{
				Thresholds: 5, Members: 5, GPMaxTrain: 80, Balanced: park == "SWS", Seed: int64(11 + i),
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		auc = rows[0].AUC
	}
	b.ReportMetric(auc, "AUC")
}

// BenchmarkTable2 regenerates Table II, one sub-benchmark per (park, model).
func BenchmarkTable2(b *testing.B) {
	for _, park := range []string{"MFNP", "QENP", "SWS"} {
		for _, kind := range []ModelKind{SVB, DTB, GPB, SVBiW, DTBiW, GPBiW} {
			b.Run(fmt.Sprintf("%s/%v", park, kind), func(b *testing.B) {
				benchTable2(b, park, kind)
			})
		}
	}
}

// BenchmarkTable3FieldTests regenerates Table III / Fig 10: two field-test
// trials per park with hidden risk groups and chi-squared analysis.
func BenchmarkTable3FieldTests(b *testing.B) {
	sc := benchScenario(b, "MFNP")
	var pHigh, pLow float64
	for i := 0; i < b.N; i++ {
		trials, err := RunTable3ForScenario(context.Background(), sc, "MFNP", 2, []int{2, 3}, Table3Options{
			PerGroup: 4,
			Train:    TrainOptions{Kind: DTBiW, Thresholds: 5, Members: 5, Seed: int64(13 + i)},
			Seed:     int64(17 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		g := trials[0].Result.Groups
		pHigh, pLow = g[0].ObsPerCell, g[2].ObsPerCell
	}
	b.ReportMetric(pHigh, "high-obs/cell")
	b.ReportMetric(pLow, "low-obs/cell")
}

// BenchmarkFig4PositiveRate regenerates Fig 4: positive-label percentage as
// a function of the patrol-effort percentile threshold.
func BenchmarkFig4PositiveRate(b *testing.B) {
	sc := benchScenario(b, "MFNP")
	var sl float64
	for i := 0; i < b.N; i++ {
		s, err := RunFig4(context.Background(), sc, "MFNP", benchLastYear(sc), 3, false)
		if err != nil {
			b.Fatal(err)
		}
		sl = s.TrainRates[5] - s.TrainRates[0]
	}
	b.ReportMetric(sl, "rate-rise-pct")
}

// BenchmarkFig6RiskMaps regenerates Fig 6: GPB-iW risk and uncertainty maps
// at four effort levels plus historical context maps.
func BenchmarkFig6RiskMaps(b *testing.B) {
	sc := benchScenario(b, "MFNP")
	for i := 0; i < b.N; i++ {
		maps, err := RunFig6(context.Background(), sc, GPBiW, benchLastYear(sc), 3, TrainOptions{
			Thresholds: 5, Members: 4, GPMaxTrain: 60, Seed: int64(19 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(maps.Risk) != 4 {
			b.Fatal("wrong number of effort levels")
		}
	}
}

// BenchmarkFig7UncertaintyCorrelation regenerates Fig 7: Pearson correlation
// of prediction with uncertainty for GP vs bagged decision trees.
func BenchmarkFig7UncertaintyCorrelation(b *testing.B) {
	sc := benchScenario(b, "MFNP")
	var gpr, dtr float64
	for i := 0; i < b.N; i++ {
		res, err := RunFig7(context.Background(), sc, benchLastYear(sc), 3, TrainOptions{
			Members: 4, GPMaxTrain: 60, Seed: int64(23 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		gpr, dtr = res.GPCorrelation, res.DTCorrelation
	}
	b.ReportMetric(gpr, "GP-r")
	b.ReportMetric(dtr, "DT-r")
}

// benchPlanStudy builds (and caches) a plan study for the planning figures.
var cachedPlanStudy *PlanStudy

func benchPlanStudy(b *testing.B) *PlanStudy {
	b.Helper()
	if cachedPlanStudy != nil {
		return cachedPlanStudy
	}
	sc := benchScenario(b, "MFNP")
	ps, err := NewPlanStudy(context.Background(), sc, PlanStudyOptions{
		Posts:         2,
		Radius:        5,
		MaxCells:      48,
		T:             10,
		K:             2,
		Segments:      6,
		Betas:         []float64{0.8, 1.0},
		SegmentCounts: []int{4, 8},
		TestYear:      benchLastYear(sc),
		Solver:        plan.SolverFrankWolfe,
		Train:         TrainOptions{Thresholds: 5, Members: 4, GPMaxTrain: 60, Seed: 29},
	})
	if err != nil {
		b.Fatal(err)
	}
	cachedPlanStudy = ps
	return ps
}

// BenchmarkFig8RobustGain regenerates Fig 8(a–c): the solution-quality ratio
// Uβ(Cβ)/Uβ(C0) across β, averaged over patrol posts.
func BenchmarkFig8RobustGain(b *testing.B) {
	ps := benchPlanStudy(b)
	var avg float64
	for i := 0; i < b.N; i++ {
		pts, err := ps.RunFig8Beta(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		avg = pts[len(pts)-1].Avg
	}
	b.ReportMetric(avg, "ratio@beta=1")
}

// BenchmarkFig8SegmentRatio regenerates Fig 8(d–f): the ratio as a function
// of PWL segment count at β=1.
func BenchmarkFig8SegmentRatio(b *testing.B) {
	ps := benchPlanStudy(b)
	var avg float64
	for i := 0; i < b.N; i++ {
		pts, err := ps.RunFig8Segments(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		avg = pts[len(pts)-1].Avg
	}
	b.ReportMetric(avg, "ratio@maxseg")
}

// BenchmarkFig9PlannerRuntime regenerates Fig 9: planner runtime and robust
// utility as the PWL segment count grows.
func BenchmarkFig9PlannerRuntime(b *testing.B) {
	ps := benchPlanStudy(b)
	var util float64
	for i := 0; i < b.N; i++ {
		pts, err := ps.RunFig9(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		util = pts[len(pts)-1].Utility
	}
	b.ReportMetric(util, "utility@maxseg")
}

// BenchmarkDetectionGain regenerates the headline "30% more snares" claim:
// robust vs uncertainty-blind plans simulated against the true process.
func BenchmarkDetectionGain(b *testing.B) {
	ps := benchPlanStudy(b)
	var factor float64
	for i := 0; i < b.N; i++ {
		gain, err := ps.RunDetectionGain(context.Background(), 24, int64(31+i))
		if err != nil {
			b.Fatal(err)
		}
		factor = gain.Factor
	}
	b.ReportMetric(factor, "robust/blind")
}

// --------------------------------------------------------------- Ablations

// BenchmarkAblationThresholds compares percentile-spaced iWare-E thresholds
// (the paper's enhancement) against fixed-kilometre spacing.
func BenchmarkAblationThresholds(b *testing.B) {
	sc := benchScenario(b, "MFNP")
	split, err := sc.Data.SplitByTestYear(benchLastYear(sc), 3)
	if err != nil {
		b.Fatal(err)
	}
	var aucPct, aucFixed float64
	for i := 0; i < b.N; i++ {
		// Percentile ladder (library default).
		m1, err := Train(context.Background(), split.Train, TrainOptions{
			Kind: DTBiW, Thresholds: 5, Members: 5, Seed: int64(37 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		aucPct = m1.AUC(split.Test)
		// Fixed-km ladder, emulating the original iWare-E grid.
		m2, err := TrainWithThresholds(context.Background(), split.Train, []float64{0, 1.5, 3, 4.5, 6}, TrainOptions{
			Kind: DTBiW, Members: 5, Seed: int64(37 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		aucFixed = m2.AUC(split.Test)
	}
	b.ReportMetric(aucPct, "AUC-percentile")
	b.ReportMetric(aucFixed, "AUC-fixed-km")
}

// BenchmarkAblationWeights compares CV-optimized iWare-E classifier weights
// (the paper's enhancement) against uniform qualified weights.
func BenchmarkAblationWeights(b *testing.B) {
	sc := benchScenario(b, "MFNP")
	split, err := sc.Data.SplitByTestYear(benchLastYear(sc), 3)
	if err != nil {
		b.Fatal(err)
	}
	var aucOpt, aucUni float64
	for i := 0; i < b.N; i++ {
		mo, err := Train(context.Background(), split.Train, TrainOptions{
			Kind: DTBiW, Thresholds: 5, Members: 5, CVFolds: 3, Seed: int64(41 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		aucOpt = mo.AUC(split.Test)
		mu, err := Train(context.Background(), split.Train, TrainOptions{
			Kind: DTBiW, Thresholds: 5, Members: 5, Seed: int64(41 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		aucUni = mu.AUC(split.Test)
	}
	b.ReportMetric(aucOpt, "AUC-optimized")
	b.ReportMetric(aucUni, "AUC-uniform")
}

// BenchmarkAblationBalancedBagging compares balanced vs plain bagging on the
// most imbalanced park (SWS), the Section V-A enhancement.
func BenchmarkAblationBalancedBagging(b *testing.B) {
	sc := benchScenario(b, "SWS")
	split, err := sc.Data.SplitByTestYear(benchLastYear(sc), 3)
	if err != nil {
		b.Fatal(err)
	}
	var aucBal, aucPlain float64
	for i := 0; i < b.N; i++ {
		mb, err := Train(context.Background(), split.Train, TrainOptions{
			Kind: DTB, Members: 6, Balanced: true, Seed: int64(43 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		aucBal = mb.AUC(split.Test)
		mp, err := Train(context.Background(), split.Train, TrainOptions{
			Kind: DTB, Members: 6, Seed: int64(43 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		aucPlain = mp.AUC(split.Test)
	}
	b.ReportMetric(aucBal, "AUC-balanced")
	b.ReportMetric(aucPlain, "AUC-plain")
}

// BenchmarkSubstrateGP measures a single GP classifier fit+predict cycle —
// the dominant training cost of GPB-iW.
func BenchmarkSubstrateGP(b *testing.B) {
	sc := benchScenario(b, "MFNP")
	split, err := sc.Data.SplitByTestYear(benchLastYear(sc), 3)
	if err != nil {
		b.Fatal(err)
	}
	var auc float64
	for i := 0; i < b.N; i++ {
		m, err := Train(context.Background(), split.Train, TrainOptions{Kind: GPB, Members: 1, GPMaxTrain: 100, Seed: int64(47 + i)})
		if err != nil {
			b.Fatal(err)
		}
		auc = m.AUC(split.Test)
	}
	b.ReportMetric(auc, "AUC")
}

// BenchmarkSubstrateEffortRebuild measures the waypoint→effort trajectory
// rasterization, the hot loop of dataset construction.
func BenchmarkSubstrateEffortRebuild(b *testing.B) {
	sc := benchScenario(b, "QENP")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := dataset.Build(sc.History, dataset.StandardConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(d.Steps) == 0 {
			b.Fatal("no steps")
		}
	}
}

// BenchmarkChiSquared measures the field-test significance test.
func BenchmarkChiSquared(b *testing.B) {
	table := [][]float64{{14, 28}, {5, 35}, {0, 36}}
	var p float64
	for i := 0; i < b.N; i++ {
		res, err := stats.ChiSquaredTest(table)
		if err != nil {
			b.Fatal(err)
		}
		p = res.PValue
	}
	b.ReportMetric(p, "p-value")
}

// ------------------------------------------------------- Parallel layer

// The benchmarks below size the worker pool to GOMAXPROCS (Workers: 0), so
// running them with `-cpu 1,4` compares sequential against 4-way parallel
// wall-clock directly — e.g.
//
//	go test -bench 'EnsembleTrain|RiskMapGen|Table2Sweep' -cpu 1,4
//
// Outputs are byte-identical across -cpu values (see determinism_test.go);
// only the wall-clock changes.

// BenchmarkEnsembleTrain measures one iWare-E training run with member and
// ladder fits fanned out over the worker pool: GPB-iW, the paper's preferred
// model and the most expensive Table II cell, and DTB-iW, whose bagged trees
// are the weak learner a simulated season retrains.
func BenchmarkEnsembleTrain(b *testing.B) {
	sc := benchScenario(b, "MFNP")
	split, err := sc.Data.SplitByTestYear(benchLastYear(sc), 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, opts := range []TrainOptions{
		{Kind: GPBiW, Thresholds: 5, Members: 5, GPMaxTrain: 80, Seed: 51, Workers: 0},
		{Kind: DTBiW, Thresholds: 5, Members: 5, Seed: 51, Workers: 0},
	} {
		b.Run(opts.Kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Train(context.Background(), split.Train, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRiskMapGen measures full-park risk + uncertainty map generation
// through the batch prediction API. A fresh PlannerModel per iteration keeps
// the memo cold so the map evaluation is actually measured.
func BenchmarkRiskMapGen(b *testing.B) {
	sc := benchScenario(b, "MFNP")
	split, err := sc.Data.SplitByTestYear(benchLastYear(sc), 3)
	if err != nil {
		b.Fatal(err)
	}
	m, err := Train(context.Background(), split.Train, TrainOptions{
		Kind: GPBiW, Thresholds: 5, Members: 5, GPMaxTrain: 80, Seed: 53, Workers: 0,
	})
	if err != nil {
		b.Fatal(err)
	}
	testFrom, _ := sc.Data.StepsForYear(benchLastYear(sc))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pm, err := NewPlannerModel(context.Background(), m, sc.Data, testFrom-1, 0)
		if err != nil {
			b.Fatal(err)
		}
		risk, unc := maps(b, pm, 2)
		if len(risk) == 0 {
			b.Fatal("empty risk map")
		}
		if len(unc) == 0 {
			b.Fatal("empty uncertainty map")
		}
	}
}

// BenchmarkPlannerWarmUp measures a served model's warm-up: registration
// (a fresh PlannerModel, so the ladder memo starts cold), maps at the four
// serving efforts, then a plan for every patrol post — the sequence a
// serving replica runs before its caches are warm.
func BenchmarkPlannerWarmUp(b *testing.B) {
	sc := benchScenario(b, "MFNP")
	split, err := sc.Data.SplitByTestYear(benchLastYear(sc), 3)
	if err != nil {
		b.Fatal(err)
	}
	m, err := Train(context.Background(), split.Train, TrainOptions{
		Kind: GPBiW, Thresholds: 5, Members: 5, GPMaxTrain: 80, Seed: 53, Workers: 0,
	})
	if err != nil {
		b.Fatal(err)
	}
	testFrom, _ := sc.Data.StepsForYear(benchLastYear(sc))
	ctx := context.Background()
	svc := NewService()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.AddModel(ctx, "m", m, sc.Data, testFrom-1); err != nil {
			b.Fatal(err)
		}
		for _, e := range []float64{1, 1.5, 2, 2.5} {
			if _, _, err := svc.RiskMaps(ctx, "m", e); err != nil {
				b.Fatal(err)
			}
		}
		for post := range sc.Park.Posts {
			if _, err := svc.Plan(ctx, "m", post, 0.9); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable2Sweep measures the whole six-model Table II column for one
// park fanned out over the worker pool — the multi-model sweep the parallel
// layer is built for.
func BenchmarkTable2Sweep(b *testing.B) {
	sc := benchScenario(b, "MFNP")
	var auc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := RunTable2ForScenario(context.Background(), sc, "MFNP", Table2Options{
			TestYears: []int{benchLastYear(sc)},
			Train:     TrainOptions{Thresholds: 5, Members: 5, GPMaxTrain: 80, Seed: 55},
			Workers:   0,
		})
		if err != nil {
			b.Fatal(err)
		}
		auc = rows[len(rows)-1].AUC
	}
	b.ReportMetric(auc, "AUC-last")
}

// BenchmarkSimSeason measures one closed-loop simulation season of the paws
// policy — bootstrap the history, rebuild the dataset, retrain DTB-iW, plan
// the risk-targeted allocation plus Frank-Wolfe routes, and execute three
// months against the adaptive attacker. This is the unit of work
// Service.Simulate scales by (seasons × policies × parks). Results are
// recorded in BENCH_sim.json.
func BenchmarkSimSeason(b *testing.B) {
	svc := NewService(WithWorkers(0), WithSeed(7), WithScale(ScaleSmall))
	var detections int
	for i := 0; i < b.N; i++ {
		rep, err := svc.Simulate(context.Background(), SimConfig{
			Park:     "MFNP",
			Seasons:  1,
			Policies: []string{"paws"},
		})
		if err != nil {
			b.Fatal(err)
		}
		detections = rep.Policies[0].Detections
	}
	b.ReportMetric(float64(detections), "detections")
}

// BenchmarkServePredict measures the /v1/predict serving path: the batched
// Service.Predict (chunked through the model's batch fast path, as the HTTP
// endpoint runs it) against the naive one-point-at-a-time loop a client
// would otherwise issue. Results are recorded in BENCH_serve.json.
func BenchmarkServePredict(b *testing.B) {
	sc := benchScenario(b, "MFNP")
	split, err := sc.Data.SplitByTestYear(benchLastYear(sc), 3)
	if err != nil {
		b.Fatal(err)
	}
	svc := NewService(WithWorkers(0), WithSeed(57), WithThresholds(5), WithEnsembleSize(5), WithGPMaxTrain(80))
	ctx := context.Background()
	m, err := svc.Train(ctx, split.Train, WithKind(GPBiW))
	if err != nil {
		b.Fatal(err)
	}
	testFrom, _ := sc.Data.StepsForYear(benchLastYear(sc))
	if _, err := svc.AddModel(ctx, "bench", m, sc.Data, testFrom-1); err != nil {
		b.Fatal(err)
	}
	X := make([][]float64, len(split.Test))
	for i, p := range split.Test {
		X[i] = p.Features
	}
	rows := float64(len(X))
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := svc.Predict(ctx, "bench", X, 1.5)
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != len(X) {
				b.Fatal("short response")
			}
		}
		b.ReportMetric(rows*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})
	b.Run("perpoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, x := range X {
				if p := m.PredictForEffort(x, 1.5); p < 0 || p > 1 {
					b.Fatal("probability out of range")
				}
			}
		}
		b.ReportMetric(rows*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})
}

// BenchmarkJobOverhead measures what the async job layer (internal/job)
// adds on top of a direct call: the submit → wait → result → remove round
// trip of a one-shot job (the exact path synchronous /v1/simulate takes
// through Manager.Run) against invoking the same function inline. The
// workload is a small fixed compute so the numbers isolate the job
// machinery itself. Results are recorded in BENCH_jobs.json.
func BenchmarkJobOverhead(b *testing.B) {
	work := func() float64 {
		var s float64
		for i := 0; i < 4096; i++ {
			s += float64(i%97) * 1.0000001
		}
		return s
	}
	want := work()
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if work() != want {
				b.Fatal("diverged")
			}
		}
	})
	b.Run("job", func(b *testing.B) {
		m := job.NewManager(job.Config{Workers: 1})
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			res, err := m.Run(ctx, "bench", func(ctx context.Context, publish func(job.Event)) (any, error) {
				return work(), nil
			})
			if err != nil || res.(float64) != want {
				b.Fatalf("job run: %v, %v", res, err)
			}
		}
	})
}

// BenchmarkCampaignCell measures one campaign grid cell end to end through
// Service.Campaign — a single (park, seed, seasons) closed-loop comparison
// of the paws policy against uniform on a small procedural park, plus the
// campaign layer's grid bookkeeping, job fan-out and paired aggregation.
// This is the unit of work campaigns scale by (parks × seeds × season
// counts); results are recorded in BENCH_campaign.json.
func BenchmarkCampaignCell(b *testing.B) {
	svc := NewService(WithWorkers(0), WithScale(ScaleSmall))
	var mean float64
	for i := 0; i < b.N; i++ {
		rep, err := svc.Campaign(context.Background(), CampaignConfig{
			Parks:        []string{"rand:16"},
			Policies:     []string{"paws", "uniform"},
			Seeds:        []int64{1},
			SeasonCounts: []int{1},
		})
		if err != nil {
			b.Fatal(err)
		}
		mean = rep.Summaries[0].Deltas[0].Mean
	}
	b.ReportMetric(mean, "mean-delta")
}
