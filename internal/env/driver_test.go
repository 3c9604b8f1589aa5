package env

import (
	"context"
	"math"
	"testing"

	"paws/internal/geo"
	"paws/internal/poach"
)

// runConfig builds a small, fast simulation configuration.
func runConfig(t *testing.T, attacker string) Config {
	t.Helper()
	parkCfg := geo.RandomConfig(16) // 359 cells
	park, err := geo.GeneratePark(parkCfg)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Park:            park,
		Sim:             poach.RandomSim(parkCfg, 21),
		Attacker:        attacker,
		Seasons:         2,
		BootstrapMonths: 12,
	}
}

func allPolicies() []Policy { return []Policy{Uniform(), Historical(), Random()} }

// TestRunDeterministicAcrossWorkers is the engine half of the determinism
// acceptance: the same seed must produce a byte-identical season report for
// any worker count.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	var want string
	for _, workers := range []int{1, 4, 8} {
		cfg := runConfig(t, poach.AttackerAdaptive)
		rep, err := Run(context.Background(), cfg, allPolicies(), RunConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := rep.Format()
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("report differs at workers=%d:\n%s\n--- want ---\n%s", workers, got, want)
		}
	}
}

// TestRunBudgetRespected: every season's executed effort must total the
// monthly budget times the season length, for every policy.
func TestRunBudgetRespected(t *testing.T) {
	cfg := runConfig(t, poach.AttackerStatic)
	cfg.BudgetKM = 100
	rep, err := Run(context.Background(), cfg, allPolicies(), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Policies {
		if len(p.Seasons) != cfg.Seasons {
			t.Fatalf("%s: %d seasons, want %d", p.Policy, len(p.Seasons), cfg.Seasons)
		}
		for _, s := range p.Seasons {
			want := cfg.BudgetKM * 3 // default SeasonMonths
			if math.Abs(s.EffortKM-want) > 1e-6*want {
				t.Errorf("%s season %d: effort %v km, want %v", p.Policy, s.Season, s.EffortKM, want)
			}
		}
	}
}

// TestStaticAttackerNeverDisplaces: displacement is an adaptive-only effect.
func TestStaticAttackerNeverDisplaces(t *testing.T) {
	rep, err := Run(context.Background(), runConfig(t, poach.AttackerStatic), allPolicies(), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attacker != poach.AttackerStatic {
		t.Fatalf("report attacker %q", rep.Attacker)
	}
	for _, p := range rep.Policies {
		if p.Displaced != 0 {
			t.Errorf("%s: %d displaced attacks under the static attacker", p.Policy, p.Displaced)
		}
		if p.Snares == 0 {
			t.Errorf("%s: no attacks at all", p.Policy)
		}
	}
}

// TestCommonRandomNumbers: under the static attacker, two policies with the
// SAME executed effort see identical outcomes — the draws are shared, so
// differences can only come from effort.
func TestCommonRandomNumbers(t *testing.T) {
	cfg := runConfig(t, poach.AttackerStatic)
	// uniformTwin plans exactly like Uniform under a different name.
	rep, err := Run(context.Background(), cfg, []Policy{Uniform(), named{Policy: Uniform(), name: "uniform-twin"}}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := rep.Policies[0], rep.Policies[1]
	if a.Snares != b.Snares || a.Detections != b.Detections {
		t.Fatalf("identical effort, different outcomes: %+v vs %+v", a, b)
	}
}

// named renames a policy (policy names key the per-season RNG streams, which
// the twin must not use — Uniform ignores its stream, so outcomes match).
type named struct {
	Policy
	name string
}

func (n named) Name() string { return n.name }

// TestRunValidation covers config and policy errors.
func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, Config{}, allPolicies(), RunConfig{}); err == nil {
		t.Error("nil park accepted")
	}
	cfg := runConfig(t, poach.AttackerStatic)
	if _, err := Run(ctx, cfg, nil, RunConfig{}); err == nil {
		t.Error("no policies accepted")
	}
	if _, err := Run(ctx, cfg, []Policy{Uniform(), Uniform()}, RunConfig{}); err == nil {
		t.Error("duplicate policy names accepted")
	}
	bad := cfg
	bad.Attacker = "quantum"
	if _, err := Run(ctx, bad, allPolicies(), RunConfig{}); err == nil {
		t.Error("unknown attacker accepted")
	}
	zero := cfg
	zero.Seasons = 0
	if _, err := Run(ctx, zero, allPolicies(), RunConfig{}); err == nil {
		t.Error("zero seasons accepted")
	}
}

// TestRunEdgeValidation: degenerate configurations — zero-post parks,
// negative budgets, months and season counts — are rejected with an error
// instead of silently simulating defaults, panicking or looping.
func TestRunEdgeValidation(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero-post park", func(c *Config) {
			park := *c.Park
			park.Posts = nil
			c.Park = &park
		}},
		{"negative seasons", func(c *Config) { c.Seasons = -1 }},
		{"negative season months", func(c *Config) { c.SeasonMonths = -2 }},
		{"negative bootstrap months", func(c *Config) { c.BootstrapMonths = -6 }},
		{"negative budget", func(c *Config) { c.BudgetKM = -40 }},
		{"NaN budget", func(c *Config) { c.BudgetKM = math.NaN() }},
		{"infinite budget", func(c *Config) { c.BudgetKM = math.Inf(1) }},
		{"no derivable budget", func(c *Config) { c.BudgetKM = 0; c.Sim.Patrol = poach.PatrolConfig{} }},
	}
	for _, tc := range cases {
		cfg := runConfig(t, poach.AttackerStatic)
		tc.mutate(&cfg)
		if _, err := Run(ctx, cfg, allPolicies(), RunConfig{}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Zero values still select the documented defaults.
	ok := runConfig(t, poach.AttackerStatic)
	ok.SeasonMonths, ok.BootstrapMonths, ok.BudgetKM = 0, 0, 0
	ok.Seasons = 1
	rep, err := Run(ctx, ok, []Policy{Uniform()}, RunConfig{})
	if err != nil {
		t.Fatalf("zero-value defaults rejected: %v", err)
	}
	if rep.SeasonMonths != 3 || rep.BudgetKM <= 0 {
		t.Fatalf("defaults not applied: months=%d budget=%v", rep.SeasonMonths, rep.BudgetKM)
	}
}

// TestRunCanceledContext: a dead context aborts instead of running seasons.
func TestRunCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, runConfig(t, poach.AttackerStatic), allPolicies(), RunConfig{}); err == nil {
		t.Fatal("canceled context did not abort the run")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"uniform", "historical", "random", "thompson", "softmax"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := ByName("paws"); err == nil {
		t.Fatal("ByName must not resolve the root-package paws policy")
	}
}
