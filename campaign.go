package paws

import (
	"context"
	"fmt"

	"paws/internal/campaign"
	"paws/internal/env"
	"paws/internal/obs"
)

// CampaignConfig configures Service.Campaign: a deterministic sweep over a
// grid of parks × replicate seeds × season counts, every cell a closed-loop
// Simulate comparing the same policies under common random numbers, and the
// results aggregated into paired per-park policy deltas with bootstrap
// confidence intervals (internal/campaign). Zero values select defaults;
// the model kind, scale and worker count come from the Service options as
// usual.
type CampaignConfig struct {
	// Parks are park specs (MFNP, QENP, SWS, rand:<seed>); procedural
	// ranges "rand:<lo>-<hi>" expand to one park per seed. Default: MFNP.
	Parks []string
	// Policies are compared inside every cell (default paws,uniform).
	Policies []string
	// Seeds are the replicate seeds: each is one complete scenario
	// realization (park generation for presets, history, common random
	// numbers) shared by all policies of a cell. Default: 1,2,3.
	Seeds []int64
	// SeasonCounts are the season-count grid values (default: 4).
	SeasonCounts []int
	// SeasonMonths is the months per season (default 3).
	SeasonMonths int
	// BootstrapMonths is the historical record before each loop (default 24).
	BootstrapMonths int
	// BudgetKM overrides the per-month patrol budget (0 derives the park's
	// ranger capacity).
	BudgetKM float64
	// Attacker is the poacher response behaviour, "adaptive" (the default)
	// or "static".
	Attacker string
	// Beta is the paws policy's robustness weight (default 0.9).
	Beta float64
	// Baseline names the policy the paired deltas are measured against
	// (default: "uniform" when present, else the first policy).
	Baseline string
	// Resamples is the bootstrap resample count of the delta CIs
	// (default 2000).
	Resamples int
}

// withDefaults fills the grid defaults, resolves the grid — internal/campaign
// validates its structure and expands park ranges, which replace Parks —
// and runs every cell's SimConfig through SimConfig.withDefaults, so a
// typo'd park, policy, attacker kind or range fails before any park is
// generated.
func (cfg CampaignConfig) withDefaults() (CampaignConfig, error) {
	if len(cfg.Parks) == 0 {
		cfg.Parks = []string{"MFNP"}
	}
	if len(cfg.Policies) == 0 {
		cfg.Policies = []string{"paws", "uniform"}
	}
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = []int64{1, 2, 3}
	}
	if len(cfg.SeasonCounts) == 0 {
		cfg.SeasonCounts = []int{4}
	}
	grid, err := cfg.gridConfig().Resolve()
	if err != nil {
		return cfg, err
	}
	cfg.Parks = grid.Parks
	for _, park := range cfg.Parks {
		for _, seasons := range cfg.SeasonCounts {
			if _, err := cfg.cellConfig(campaign.Cell{Park: park, Seasons: seasons}).withDefaults(); err != nil {
				return cfg, err
			}
		}
	}
	return cfg, nil
}

// gridConfig lowers the root config to the campaign layer's grid spec.
func (cfg CampaignConfig) gridConfig() campaign.Config {
	return campaign.Config{
		Parks:        cfg.Parks,
		Policies:     cfg.Policies,
		Seeds:        cfg.Seeds,
		SeasonCounts: cfg.SeasonCounts,
		Baseline:     cfg.Baseline,
		Resamples:    cfg.Resamples,
	}
}

// cellConfig is the closed-loop config one grid cell runs. The cell's seed
// is not part of it: it reaches the simulation as the cell's WithSeed.
func (cfg CampaignConfig) cellConfig(cell campaign.Cell) SimConfig {
	return SimConfig{
		Park:            cell.Park,
		Seasons:         cell.Seasons,
		SeasonMonths:    cfg.SeasonMonths,
		BootstrapMonths: cfg.BootstrapMonths,
		BudgetKM:        cfg.BudgetKM,
		Policies:        cfg.Policies,
		Attacker:        cfg.Attacker,
		Beta:            cfg.Beta,
	}
}

// GridSize validates the configuration end to end in one pass (the grid's
// Resolve, then every cell's closed-loop config) and returns the number of
// grid cells the defaults-filled configuration spans — parks (after range
// expansion) × seeds × season counts — without simulating anything. The
// HTTP layer's submit-time check is this one call, so the server-side cell
// cap always reflects the grid Campaign would actually run, defaults
// included, and cannot drift from the library's validation.
func (cfg CampaignConfig) GridSize() (int, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return 0, err
	}
	return len(cfg.Parks) * len(cfg.Seeds) * len(cfg.SeasonCounts), nil
}

// Campaign runs the paper-style multi-scenario evaluation: for every grid
// cell (park × replicate seed × season count) it plays the configured
// policies through the closed loop under common random numbers
// (Service.Simulate), then aggregates per-park policy statistics and
// CRN-paired detection deltas against the baseline with 95% bootstrap
// confidence intervals — the Table III-like "PAWS beats the status quo, and
// here is the uncertainty" conclusion as one call.
//
// Cells fan out over the merged worker count; the report (including every
// confidence interval) is byte-identical for any worker count. With
// WithProgress, one Stage "cell" event fires per completed cell; the
// per-season events of the inner simulations are suppressed (cells are the
// campaign's unit of progress).
func (s *Service) Campaign(ctx context.Context, cfg CampaignConfig, opts ...Option) (*campaign.Report, error) {
	st := s.settingsFor(opts)
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// Each cell's context derives from ctx, so under the caller's trace (if
	// any) every grid cell records one span and the seasons inside it record
	// theirs.
	runner := func(ctx context.Context, cell campaign.Cell) (*env.Report, error) {
		end := obs.StartSpan(ctx, "cell", fmt.Sprintf("%s/seed=%d/seasons=%d", cell.Park, cell.Seed, cell.Seasons))
		defer end()
		// Fresh option slice per cell: appending to the caller's opts from
		// concurrent cells would race on the shared backing array.
		cellOpts := make([]Option, 0, len(opts)+2)
		cellOpts = append(cellOpts, opts...)
		cellOpts = append(cellOpts, WithSeed(cell.Seed), WithProgress(nil))
		return s.Simulate(ctx, cfg.cellConfig(cell), cellOpts...)
	}
	var progress func(cell campaign.Cell, done, total int)
	if pf := st.progress; pf != nil {
		progress = func(cell campaign.Cell, done, total int) {
			pf(ProgressEvent{
				Stage:   "cell",
				Item:    fmt.Sprintf("%s/seed=%d/seasons=%d", cell.Park, cell.Seed, cell.Seasons),
				Current: done,
				Total:   total,
			})
		}
	}
	grid := cfg.gridConfig()
	grid.Workers = st.workers
	grid.Progress = progress
	return campaign.Run(ctx, grid, runner)
}
