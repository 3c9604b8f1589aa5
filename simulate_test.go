package paws

import (
	"context"
	"testing"
)

// TestSimulatePAWSBeatsUniform is the headline acceptance test: over three
// seasons against the adaptive attacker — the exact comparison
// `pawssim -seed 7 -seasons 3 -policies paws,uniform` runs — the PAWS policy
// must detect more snares in total than the uniform-effort baseline, on a
// preset park and on a procedural park.
func TestSimulatePAWSBeatsUniform(t *testing.T) {
	svc := NewService(WithSeed(7), WithScale(ScaleSmall), WithWorkers(0))
	for _, park := range []string{"MFNP", "rand:8"} {
		rep, err := svc.Simulate(context.Background(), SimConfig{
			Park:     park,
			Seasons:  3,
			Policies: []string{"paws", "uniform"},
		})
		if err != nil {
			t.Fatalf("%s: %v", park, err)
		}
		paws, uniform := rep.Policies[0], rep.Policies[1]
		if paws.Policy != "paws" || uniform.Policy != "uniform" {
			t.Fatalf("%s: unexpected policy order %q, %q", park, paws.Policy, uniform.Policy)
		}
		t.Logf("%s: paws %d detections vs uniform %d (snares %d vs %d)",
			park, paws.Detections, uniform.Detections, paws.Snares, uniform.Snares)
		if paws.Detections <= uniform.Detections {
			t.Errorf("%s: paws detected %d, uniform %d — PAWS must beat the uniform baseline",
				park, paws.Detections, uniform.Detections)
		}
	}
}

// TestSimulateDeterministicAcrossWorkers is the determinism acceptance —
// the library form of `pawssim -seed 7 -seasons 3 -policies paws,uniform`:
// the full Simulate path (training, planning, route extraction, execution)
// must render a byte-identical report for -workers 1 and -workers 8.
func TestSimulateDeterministicAcrossWorkers(t *testing.T) {
	cfg := SimConfig{Park: "MFNP", Seasons: 3, Policies: []string{"paws", "uniform"}}
	var want string
	for _, workers := range []int{1, 8} {
		svc := NewService(WithSeed(7), WithScale(ScaleSmall), WithWorkers(workers))
		rep, err := svc.Simulate(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := rep.Format()
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("report differs between workers=1 and workers=%d:\n%s\n--- want ---\n%s", workers, got, want)
		}
	}
}

// TestSimulateSeasonLogShape checks the report carries the full per-season
// log: season indices, start months continuing the bootstrap, and routes
// from the paws policy's Frank-Wolfe extraction.
func TestSimulateSeasonLogShape(t *testing.T) {
	svc := NewService(WithSeed(7), WithScale(ScaleSmall))
	rep, err := svc.Simulate(context.Background(), SimConfig{
		Park:            "rand:16",
		Seasons:         2,
		BootstrapMonths: 12,
		Policies:        []string{"paws", "historical"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seasons != 2 || rep.SeasonMonths != 3 {
		t.Fatalf("report shape %d seasons × %d months", rep.Seasons, rep.SeasonMonths)
	}
	for _, p := range rep.Policies {
		for i, s := range p.Seasons {
			if s.Season != i {
				t.Fatalf("%s: season index %d at position %d", p.Policy, s.Season, i)
			}
			if want := 12 + i*3; s.StartMonth != want {
				t.Fatalf("%s season %d: start month %d, want %d", p.Policy, i, s.StartMonth, want)
			}
		}
	}
	if rep.Policies[0].Seasons[0].Routes == 0 {
		t.Fatal("paws policy reported no executable routes")
	}
	if rep.Policies[1].Seasons[0].Routes != 0 {
		t.Fatal("historical baseline reported routes")
	}
}

// TestSimulateStaticAttackerOption: the attacker behaviour is selectable and
// the historical static process shows no displacement.
func TestSimulateStaticAttackerOption(t *testing.T) {
	svc := NewService(WithSeed(7), WithScale(ScaleSmall))
	cfg := SimConfig{Park: "rand:16", Seasons: 1, Policies: []string{"uniform"}}
	cfg.Attacker = "static"
	rep, err := svc.Simulate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attacker != "static" || rep.Policies[0].Displaced != 0 {
		t.Fatalf("static attacker run reported attacker=%q displaced=%d", rep.Attacker, rep.Policies[0].Displaced)
	}
}

// TestSimulateErrors covers spec, policy and attacker validation, which
// Simulate and NewEnv share.
func TestSimulateErrors(t *testing.T) {
	svc := NewService(WithSeed(7), WithScale(ScaleSmall))
	bad := SimConfig{Park: "MFNP", Seasons: 1, Policies: []string{"uniform"}}
	bad.Attacker = "quantum"
	cases := []struct {
		name string
		cfg  SimConfig
	}{
		{"unknown park spec", SimConfig{Park: "ATLANTIS", Seasons: 1}},
		{"malformed rand spec", SimConfig{Park: "rand:nope", Seasons: 1}},
		{"unknown policy", SimConfig{Park: "MFNP", Seasons: 1, Policies: []string{"skynet"}}},
		{"unknown attacker kind", bad},
	}
	for _, tc := range cases {
		checkClosedLoopRejects(t, svc, tc.name, tc.cfg)
	}
}

// TestSimulateEdgeValidation: negative and out-of-range SimConfig values are
// rejected with an error (the HTTP layer renders these as bad_request)
// instead of silently selecting defaults — by Simulate and NewEnv alike.
func TestSimulateEdgeValidation(t *testing.T) {
	svc := NewService(WithSeed(7), WithScale(ScaleSmall))
	cases := []struct {
		name   string
		mutate func(*SimConfig)
	}{
		{"negative seasons", func(c *SimConfig) { c.Seasons = -2 }},
		{"negative season months", func(c *SimConfig) { c.SeasonMonths = -1 }},
		{"negative bootstrap months", func(c *SimConfig) { c.BootstrapMonths = -12 }},
		{"negative budget", func(c *SimConfig) { c.BudgetKM = -5 }},
		{"beta above one", func(c *SimConfig) { c.Beta = 1.5 }},
		{"negative beta", func(c *SimConfig) { c.Beta = -0.1 }},
	}
	for _, tc := range cases {
		cfg := SimConfig{Park: "rand:16", Seasons: 1, Policies: []string{"uniform"}}
		tc.mutate(&cfg)
		checkClosedLoopRejects(t, svc, tc.name, cfg)
	}
}

// checkClosedLoopRejects requires both closed-loop entry points, Simulate
// and NewEnv, to reject cfg.
func checkClosedLoopRejects(t *testing.T, svc *Service, name string, cfg SimConfig) {
	t.Helper()
	if _, err := svc.Simulate(context.Background(), cfg); err == nil {
		t.Errorf("%s: accepted by Simulate", name)
	}
	if _, err := svc.NewEnv(cfg); err == nil {
		t.Errorf("%s: accepted by NewEnv", name)
	}
}

// TestScenarioRandSpec: procedural parks flow through the Scenario API (and
// pawsgen): identical for repeated generation, independent of scale.
func TestScenarioRandSpec(t *testing.T) {
	svc := NewService(WithSeed(7), WithScale(ScaleSmall))
	sc, err := svc.Scenario(context.Background(), "rand:16")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Park.Name != "rand-16" {
		t.Fatalf("park name %q", sc.Park.Name)
	}
	full, err := NewService(WithSeed(7), WithScale(ScaleFull)).Scenario(context.Background(), "rand:16")
	if err != nil {
		t.Fatal(err)
	}
	if full.Park.Grid.NumCells() != sc.Park.Grid.NumCells() {
		t.Fatal("rand spec parks must ignore the scale setting")
	}
	if sc.Data == nil || len(sc.Data.AllPoints()) == 0 {
		t.Fatal("procedural scenario has no dataset points")
	}
}
