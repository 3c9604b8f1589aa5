package paws

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"paws/internal/env"
	"paws/internal/geo"
	"paws/internal/obs"
)

// This file is the service-level surface of the stepped environment
// (internal/env): NewEnv resolves a park spec into a live local Env — the
// constructor behind pawsd's POST /v1/envs — and SimulateRemote replays the
// whole Simulate comparison against remote /v1/envs sessions, producing a
// report byte-identical to the local one.

// NewEnv builds one episode of the closed loop as a live stepped
// environment: cfg is validated and defaulted exactly as Simulate's, the
// park spec is resolved at the service's scale and seed, the bootstrap
// history is simulated and the episode is reset, ready for the first Step.
// Policies and Beta play no part in an episode (the caller supplies every
// season's effort), so an Env episode and a Simulate policy run on the same
// config are the same computation.
func (s *Service) NewEnv(cfg SimConfig, opts ...Option) (*env.Env, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ecfg, err := s.settingsFor(opts).envConfig(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	return env.New(ecfg)
}

// envConfig resolves a defaults-filled config's park spec at the settings'
// scale and seed into the environment config Simulate, SimulateRemote and
// NewEnv run on. The caller's root seed drives the loop (and labels the
// report), so the printed "seed N" reproduces a report verbatim and an Env
// episode replays a Simulate policy log exactly. The scenario convention of
// offsetting the history seed exists to separate park and history streams,
// which the engine's labelled splits already do. Generating the park records
// a "park" compute span, item the park spec.
func (st settings) envConfig(ctx context.Context, cfg SimConfig) (env.Config, error) {
	parkCfg, simCfg, err := resolveConfigs(cfg.Park, st.scale, st.seed)
	if err != nil {
		return env.Config{}, err
	}
	simCfg.Seed = st.seed
	endPark := obs.StartSpan(ctx, "park", cfg.Park)
	park, err := geo.GeneratePark(parkCfg)
	endPark()
	if err != nil {
		return env.Config{}, fmt.Errorf("paws: generate park: %w", err)
	}
	return env.Config{
		Park:            park,
		Sim:             simCfg,
		Attacker:        cfg.Attacker,
		Seasons:         cfg.Seasons,
		SeasonMonths:    cfg.SeasonMonths,
		BootstrapMonths: cfg.BootstrapMonths,
		BudgetKM:        cfg.BudgetKM,
	}, nil
}

// httpEnvCloseTimeout bounds the best-effort session delete SimulateRemote
// issues after each policy finishes (or fails), so cleanup cannot hang a
// canceled run.
const httpEnvCloseTimeout = 5 * time.Second

// SimulateRemote is Simulate with the season loop running remotely: every
// policy plans locally (including the full paws retrain-and-plan pipeline)
// but executes its seasons against a /v1/envs session on baseURL — pawsd
// directly or pawsgate in front of a fleet. The park is resolved locally
// from the same spec, scale and seed the server uses, so the report is
// byte-identical to the local Simulate for the same configuration and any
// worker count. hc nil selects http.DefaultClient.
func (s *Service) SimulateRemote(ctx context.Context, baseURL string, hc *http.Client, cfg SimConfig, opts ...Option) (*env.Report, error) {
	return s.simulate(ctx, cfg, opts, func(ctx context.Context, cfg SimConfig, ecfg env.Config) (env.Stepper, func(), error) {
		c := env.NewClient(baseURL, hc, ecfg.Park, env.CreateRequest{
			Park:            cfg.Park,
			Seed:            ecfg.Sim.Seed,
			Seasons:         cfg.Seasons,
			SeasonMonths:    cfg.SeasonMonths,
			BootstrapMonths: cfg.BootstrapMonths,
			BudgetKM:        cfg.BudgetKM,
			Attacker:        cfg.Attacker,
		})
		return c, func() {
			// Best-effort cleanup even when ctx is already done.
			cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), httpEnvCloseTimeout)
			defer cancel()
			_ = c.Close(cctx)
		}, nil
	})
}
