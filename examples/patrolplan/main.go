// Patrolplan: compute robust patrol routes for one patrol post (Section VI).
// Trains GPB-iW through the Service API, builds the post's planning region,
// solves the patrol MILP at several robustness levels β, and shows how
// effort shifts away from high-uncertainty cells as β grows.
//
//	go run ./examples/patrolplan
package main

import (
	"context"
	"fmt"
	"log"

	"paws"
	"paws/internal/plan"
)

func main() {
	ctx := context.Background()
	svc := paws.NewService(
		paws.WithSeed(23),
		paws.WithPreset("QENP", paws.ScaleSmall),
	)
	sc, err := svc.Scenario(ctx, "QENP", paws.WithSeed(21))
	if err != nil {
		log.Fatal(err)
	}
	steps := sc.Data.Steps
	ps, err := svc.PlanStudy(ctx, sc,
		paws.WithKind(paws.GPBiW),
		paws.WithPosts(1),
		paws.WithRegionShape(2, 18),
		paws.WithPlanHorizon(5, 2, 8),
		paws.WithBetas(0.8, 0.9, 1.0),
		paws.WithTestYears(steps[len(steps)-1].Year),
	)
	if err != nil {
		log.Fatal(err)
	}
	region := ps.Regions[0]
	fmt.Printf("planning region: %d cells around post (park cell %d)\n",
		region.NumCells(), region.Post)

	for _, beta := range []float64{0, 0.5, 1} {
		cfg := ps.Config
		cfg.Beta = beta
		p, err := plan.Solve(region, ps.Model, cfg)
		if err != nil {
			log.Fatal(err)
		}
		// Effort-weighted mean uncertainty of the plan.
		g := make([]float64, region.NumCells())
		nu := make([]float64, region.NumCells())
		ps.Model.Eval(region.Cells, p.Effort, g, nu)
		var wUnc, tot float64
		for i := range region.Cells {
			if p.Effort[i] <= 0 {
				continue
			}
			wUnc += p.Effort[i] * nu[i]
			tot += p.Effort[i]
		}
		if tot > 0 {
			wUnc /= tot
		}
		fmt.Printf("β=%.1f: objective %.4f, total effort %.1f km, runtime %s, "+
			"B&B nodes %d, effort-weighted uncertainty %.3f\n",
			beta, p.Objective, p.TotalEffort(), paws.FormatDuration(p.Runtime), p.Nodes, wUnc)
	}
	fmt.Println("\nAs β grows the plan trades expected detections for certainty,")
	fmt.Println("patrolling less in cells where the model has seen little data.")

	// Ratio study: how much better is the robust plan under the robust
	// objective (Fig 8 a-c analogue for one post)?
	pts, err := ps.RunFig8Beta(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nβ sweep: solution-quality ratio Uβ(Cβ)/Uβ(C0)")
	for _, pt := range pts {
		fmt.Printf("  β=%.2f: avg %.3f, max %.3f\n", pt.Beta, pt.Avg, pt.Max)
	}
}
