package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"paws"
	"paws/internal/dataset"
	"paws/internal/geo"
	"paws/internal/obs"
	"paws/internal/poach"
)

// collectSpans runs fn under a fresh obs trace and returns the spans the
// existing span sites recorded into it.
func collectSpans(ctx context.Context, fn func(ctx context.Context) error) ([]obs.Span, error) {
	rec := obs.NewRecorder(1)
	tr := rec.Start("", "pawsbench")
	err := fn(obs.WithTrace(ctx, tr))
	tr.Finish("ok")
	return rec.Recent()[0].Spans, err
}

// addSpans adds the duration of every span named in names to s under the
// metric name it maps to.
func addSpans(s samples, spans []obs.Span, names map[string]string) {
	for _, sp := range spans {
		if m, ok := names[sp.Name]; ok {
			s.add(m, sp.DurationMS)
		}
	}
}

// ----------------------------------------------------------------- season

// Season shape: the MFNP full park, seed 7, four seasons, comparing the
// full PAWS policy (which retrains every season) against two baselines.
var seasonConfig = paws.SimConfig{Park: "MFNP", Seasons: 4, Policies: []string{"paws", "uniform", "thompson"}}

// seasonBetas are the paws policy's robustness weights the seed picks from.
// Beta shapes only the reported routes (planned with Frank-Wolfe, whose
// cost beta barely moves), not what the simulation does, so every seed
// costs about the same.
var seasonBetas = []float64{0.8, 0.85, 0.9, 0.95}

// runSeason measures research traffic: closed-loop Service.Simulate calls,
// which bypass serving and the registry's planner memo.
func runSeason(ctx context.Context, r *runner) error {
	var svc *paws.Service
	err := r.setup(func(int) error {
		svc = paws.NewService(paws.WithSeed(7), paws.WithScale(paws.ScaleFull))
		t := time.Now()
		sc, err := svc.Scenario(ctx, seasonConfig.Park)
		if err != nil {
			return err
		}
		r.s.add("geo.scenario_ms", msSince(t))
		if sc.Park.Grid.NumCells() == 0 || len(sc.Park.Posts) == 0 {
			return fmt.Errorf("park %s has no cells or posts", seasonConfig.Park)
		}
		return nil
	})
	if err != nil {
		return err
	}
	cfg := seasonConfig
	cfg.Beta = seasonBetas[uint64(r.seed)%uint64(len(seasonBetas))]
	var ref []byte
	op := func(ctx context.Context, i int) error {
		rep, err := svc.Simulate(ctx, cfg)
		if err != nil {
			return err
		}
		b, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		if i == 0 {
			ref = b
			r.reference("simulate", b)
		} else if !bytes.Equal(b, ref) {
			return fmt.Errorf("simulate iteration %d differs from iteration 0", i)
		}
		return nil
	}
	r.loop(ctx, float64(cfg.Seasons), op, func(spans []obs.Span) { seasonSpans(r.s, spans) })
	return nil
}

// seasonSpans turns one traced Simulate call into per-season stage times
// of the paws policy. Its planning stages (build, train, riskmap, routes;
// item "season N") nest inside env.Drive's "plan" span (item "paws season
// N"), so sim.plan_ms is that span's self time: the span minus its
// children. The baselines' plan and patrol spans are skipped.
func seasonSpans(s samples, spans []obs.Span) {
	children := map[string]float64{}
	for _, sp := range spans {
		switch sp.Name {
		case "build", "train", "riskmap", "routes":
			children[sp.Item] += sp.DurationMS
		}
	}
	addSpans(s, spans, map[string]string{
		"build": "dataset.build_ms", "train": "iware.train_ms",
		"riskmap": "paws.riskmap_ms", "routes": "plan.routes_ms",
	})
	for _, sp := range spans {
		season, ok := strings.CutPrefix(sp.Item, "paws ")
		if !ok {
			continue
		}
		switch sp.Name {
		case "plan":
			s.add("sim.plan_ms", sp.DurationMS-children[season])
		case "patrol":
			s.add("env.patrol_ms", sp.DurationMS)
		}
	}
}

// ------------------------------------------------------------------ scale

// Scale shape: a procedural park of 10^5 cells with two years of history —
// a working set far beyond the CPU caches — and the per-size training
// settings of the repository's scale benchmarks.
const (
	scaleCells     = 100_000
	scaleMonths    = 24
	scaleTrainSeed = 53
	scaleEffort    = 1
	scaleBeta      = 0.3
)

// runScale measures the memory-bound pipeline on a large park: build the
// dataset, train, register, map the park and plan post 0 (hierarchically,
// as Service.Plan does by default at this size), repeated.
func runScale(ctx context.Context, r *runner) error {
	var sc *paws.Scenario
	err := r.setup(func(int) error {
		sc = nil
		t := time.Now()
		parkCfg := geo.RandomConfigSized(7, scaleCells)
		simCfg := poach.RandomSim(parkCfg, 8)
		simCfg.Months = scaleMonths
		var err error
		sc, err = paws.NewCustomScenario(parkCfg, simCfg)
		r.s.add("geo.scenario_ms", msSince(t))
		return err
	})
	if err != nil {
		return err
	}
	// The inputs do not depend on the seed: every input that changes the
	// work (the bagging seed, the effort, the post, beta) also changes the
	// fine solve's cost, by up to 20 times for some bagging seeds.
	svc := paws.NewService()
	var ref []byte
	op := func(ctx context.Context, i int) error {
		t := time.Now()
		d, err := dataset.Build(sc.History, dataset.StandardConfig())
		if err != nil {
			return err
		}
		r.s.add("dataset.build_ms", msSince(t))
		t = time.Now()
		m, err := svc.Train(ctx, d.AllPoints(), paws.WithKind(paws.DTBiW),
			paws.WithThresholds(5), paws.WithEnsembleSize(5), paws.WithSeed(scaleTrainSeed))
		if err != nil {
			return err
		}
		r.s.add("iware.train_ms", msSince(t))
		t = time.Now()
		if _, err := svc.AddModel(ctx, "m", m, d, len(d.Steps)-1); err != nil {
			return err
		}
		r.s.add("paws.register_ms", msSince(t))
		t = time.Now()
		risk, unc, err := svc.RiskMaps(ctx, "m", scaleEffort)
		if err != nil {
			return err
		}
		ms := msSince(t)
		r.s.add("paws.riskmap_ms", ms)
		r.s.add("paws.riskmap_cells_per_s", float64(len(risk))/(ms/1000))
		plan, err := svc.Plan(ctx, "m", 0, scaleBeta)
		if err != nil {
			return err
		}
		if !plan.Hierarchical {
			return fmt.Errorf("plan on %d cells was not hierarchical", len(risk))
		}
		plan.RuntimeMS = 0
		out, err := scaleOutput(risk, unc, plan)
		if err != nil {
			return err
		}
		if i == 0 {
			ref = out
			r.reference("pipeline", out)
		} else if !bytes.Equal(out, ref) {
			return fmt.Errorf("pipeline iteration %d differs from iteration 0", i)
		}
		return nil
	}
	r.loop(ctx, 1, op, func(spans []obs.Span) {
		addSpans(r.s, spans, map[string]string{"coarse": "plan.coarse_ms", "refine": "plan.refine_ms", "routes": "plan.routes_ms"})
	})
	return nil
}

// scaleOutput is the canonical form of one pipeline iteration's outputs:
// a digest of both maps' exact bits followed by the plan.
func scaleOutput(risk, unc []float64, plan *paws.PlanResult) ([]byte, error) {
	h := sha256.New()
	var b [8]byte
	for _, col := range [][]float64{risk, unc} {
		for _, v := range col {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	p, err := json.Marshal(plan)
	if err != nil {
		return nil, err
	}
	return append(h.Sum(nil), p...), nil
}
