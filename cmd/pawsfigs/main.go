// Command pawsfigs regenerates the figures of the paper as CSV series (and
// ASCII heatmaps for the map figures):
//
//	pawsfigs -fig 4            # positive rate vs patrol-effort percentile
//	pawsfigs -fig 6 -park MFNP # risk + uncertainty maps
//	pawsfigs -fig 7            # prediction-vs-variance correlations
//	pawsfigs -fig 8            # robust-planning ratio vs β and vs segments
//	pawsfigs -fig 9            # planner runtime and utility vs segments
//	pawsfigs -fig 10           # field-test obs/cell bar series
//
// Figures run under a signal-aware context: Ctrl-C cancels mid-sweep.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"paws"
)

func main() {
	fig := flag.Int("fig", 4, "figure to regenerate: 4, 6, 7, 8, 9 or 10")
	park := flag.String("park", "MFNP", "park preset: MFNP, QENP or SWS")
	scaleStr := flag.String("scale", "small", "park scale: full or small")
	seed := flag.Int64("seed", 7, "root random seed")
	workers := flag.Int("workers", 0, "worker goroutines (1 = sequential, 0 = one per CPU); output is identical either way")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	scale, err := paws.ParseScale(*scaleStr)
	if err != nil {
		fatal(err)
	}
	svc := paws.NewService(
		paws.WithSeed(*seed),
		paws.WithWorkers(*workers),
		paws.WithScale(scale),
	)
	switch *fig {
	case 4:
		err = fig4(ctx, svc)
	case 6:
		err = fig6(ctx, svc, *park, scale)
	case 7:
		err = fig7(ctx, svc, *park, scale)
	case 8:
		err = fig8(ctx, svc, *park, scale)
	case 9:
		err = fig9(ctx, svc, *park, scale, *seed)
	case 10:
		err = fig10(ctx, svc, scale)
	default:
		err = fmt.Errorf("unknown figure %d", *fig)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pawsfigs:", err)
	os.Exit(1)
}

// lastYear returns the final simulated year of the scenario's dataset.
func lastYear(sc *paws.Scenario) int {
	steps := sc.Data.Steps
	return steps[len(steps)-1].Year
}

func fig4(ctx context.Context, svc *paws.Service) error {
	fmt.Println("FIG 4: % positive labels vs patrol-effort percentile")
	fmt.Println("park,percentile,train_rate,test_rate")
	for _, name := range []string{"MFNP", "QENP", "SWS"} {
		sc, err := svc.Scenario(ctx, name)
		if err != nil {
			return err
		}
		s, err := svc.Fig4(ctx, sc, name, lastYear(sc))
		if err != nil {
			return err
		}
		for i, p := range s.Percentiles {
			fmt.Printf("%s,%.0f,%.4f,%.4f\n", name, p, s.TrainRates[i], s.TestRates[i])
		}
	}
	return nil
}

func fig6(ctx context.Context, svc *paws.Service, park string, scale paws.Scale) error {
	sc, err := svc.Scenario(ctx, park)
	if err != nil {
		return err
	}
	maps, err := svc.Fig6(ctx, sc, lastYear(sc),
		paws.WithPreset(park, scale), paws.WithKind(paws.GPBiW))
	if err != nil {
		return err
	}
	fmt.Printf("FIG 6 (%s): historical patrol effort (3 train years)\n", park)
	fmt.Println(paws.RasterASCII(sc.Park, maps.HistEffort))
	fmt.Println("FIG 6: historical illegal activity detected")
	fmt.Println(paws.RasterASCII(sc.Park, maps.HistActivity))
	for k, e := range maps.EffortLevels {
		fmt.Printf("FIG 6: predicted detection probability at %.1f km effort\n", e)
		fmt.Println(paws.RasterASCII(sc.Park, maps.Risk[k]))
		fmt.Printf("FIG 6: prediction uncertainty at %.1f km effort\n", e)
		fmt.Println(paws.RasterASCII(sc.Park, maps.Uncertainty[k]))
	}
	return nil
}

func fig7(ctx context.Context, svc *paws.Service, park string, scale paws.Scale) error {
	sc, err := svc.Scenario(ctx, park)
	if err != nil {
		return err
	}
	res, err := svc.Fig7(ctx, sc, lastYear(sc), paws.WithPreset(park, scale))
	if err != nil {
		return err
	}
	fmt.Println("FIG 7: prediction vs uncertainty correlation")
	fmt.Printf("Gaussian process Pearson r      = %+.3f (paper: -0.198)\n", res.GPCorrelation)
	fmt.Printf("bagging decision trees Pearson r = %+.3f (paper: +0.979)\n", res.DTCorrelation)
	fmt.Println("\nmodel,prediction,variance")
	for i := range res.GPPredictions {
		fmt.Printf("GP,%.5f,%.5f\n", res.GPPredictions[i], res.GPVariances[i])
	}
	for i := range res.DTPredictions {
		fmt.Printf("DT,%.5f,%.5f\n", res.DTPredictions[i], res.DTVariances[i])
	}
	return nil
}

func planStudy(ctx context.Context, svc *paws.Service, park string, scale paws.Scale) (*paws.PlanStudy, error) {
	sc, err := svc.Scenario(ctx, park)
	if err != nil {
		return nil, err
	}
	opts := []paws.Option{
		paws.WithPreset(park, scale),
		paws.WithKind(paws.GPBiW),
		paws.WithTestYears(lastYear(sc)),
	}
	if scale == paws.ScaleSmall {
		opts = append(opts,
			paws.WithPosts(3),
			paws.WithPlanHorizon(0, 0, 8),
			paws.WithSegmentCounts(5, 10, 15, 20, 25),
		)
	}
	return svc.PlanStudy(ctx, sc, opts...)
}

func fig8(ctx context.Context, svc *paws.Service, park string, scale paws.Scale) error {
	ps, err := planStudy(ctx, svc, park, scale)
	if err != nil {
		return err
	}
	beta, err := ps.RunFig8Beta(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("FIG 8(a-c) %s: solution-quality ratio vs beta\n", park)
	fmt.Println("beta,avg_ratio,max_ratio")
	for _, pt := range beta {
		fmt.Printf("%.2f,%.4f,%.4f\n", pt.Beta, pt.Avg, pt.Max)
	}
	segs, err := ps.RunFig8Segments(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("\nFIG 8(d-f) %s: solution-quality ratio vs PWL segments (beta=1)\n", park)
	fmt.Println("segments,avg_ratio,max_ratio")
	for _, pt := range segs {
		fmt.Printf("%d,%.4f,%.4f\n", pt.Segments, pt.Avg, pt.Max)
	}
	return nil
}

func fig9(ctx context.Context, svc *paws.Service, park string, scale paws.Scale, seed int64) error {
	ps, err := planStudy(ctx, svc, park, scale)
	if err != nil {
		return err
	}
	pts, err := ps.RunFig9(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("FIG 9 %s: planner runtime and utility vs PWL segments\n", park)
	fmt.Println("segments,runtime,utility,bb_nodes")
	for _, pt := range pts {
		fmt.Printf("%d,%s,%.4f,%d\n", pt.Segments, paws.FormatDuration(pt.Runtime), pt.Utility, pt.Nodes)
	}
	gain, err := ps.RunDetectionGain(ctx, 12, seed)
	if err != nil {
		return err
	}
	fmt.Printf("\nrobust vs blind detections over 12 months: %d vs %d (factor %.2f)\n",
		gain.RobustDetections, gain.BlindDetections, gain.Factor)
	fmt.Println("note: the paper's \"30% more detections\" measures the robust-objective")
	fmt.Println("gain of Fig 8; this ground-truth simulation is an additional, stricter test.")
	return nil
}

func fig10(ctx context.Context, svc *paws.Service, scale paws.Scale) error {
	fmt.Println("FIG 10: detected poaching per cell patrolled by risk group")
	fmt.Println("trial,group,obs_per_cell")
	type trial struct {
		park      string
		blockSize int
		months    []int
	}
	for _, tr := range []trial{
		{"MFNP", 2, []int{2, 3}},
		{"SWS", 3, []int{2, 2}},
	} {
		sc, err := svc.Scenario(ctx, tr.park)
		if err != nil {
			return err
		}
		kind := paws.DTBiW
		effort := 2.5
		if tr.park == "SWS" {
			kind = paws.GPBiW
			// The SWS trials concentrated 72 rangers on 15 blocks — a much
			// higher per-cell intensity than routine patrolling.
			effort = 5
		}
		perGroup := 5
		if scale == paws.ScaleSmall {
			perGroup = 3 // small parks tile into few complete blocks per band
		}
		trials, err := svc.Table3(ctx, sc, tr.park, tr.blockSize, tr.months,
			paws.WithPreset(tr.park, scale),
			paws.WithKind(kind),
			paws.WithFieldProtocol(perGroup, effort),
		)
		if err != nil {
			return err
		}
		for _, trl := range trials {
			for _, g := range trl.Result.Groups {
				fmt.Printf("%s,%v,%.3f\n", trl.Name, g.Group, g.ObsPerCell)
			}
		}
	}
	return nil
}
