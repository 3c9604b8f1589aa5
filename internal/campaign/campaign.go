// Package campaign is the multi-scenario evaluation layer of the PAWS
// pipeline: one deterministic sweep over a grid of parks × replicate seeds ×
// season counts, with every patrol policy compared inside each grid cell and
// the results aggregated into paired, uncertainty-quantified policy deltas —
// the Table III-style "PAWS finds more snares than the status quo"
// conclusion the paper's field tests rest on, produced as one call instead
// of ad-hoc scripting around single simulations.
//
// # Grid cells and pairing
//
// A Cell is one (park, seed, seasons) triple. All of a campaign's policies
// run inside a single cell through one closed-loop simulation (env.Run)
// under common random numbers: the attack, detection and observation draws
// for month m derive from (seed, m) only, never from the policy, so within a
// cell two policies' outcomes differ only where their patrol effort actually
// changed a probability. That makes the per-cell difference in detections a
// *paired* observation — the variance contributed by the scenario itself
// (which park, which poacher realization) cancels out of the delta, exactly
// the common-random-numbers trick simulation-optimization uses to sharpen
// head-to-head comparisons. A campaign with k replicate seeds therefore
// yields k paired deltas per park, not two independent k-samples, and the
// confidence interval on the mean delta is correspondingly tighter.
//
// # Aggregation
//
// Per park, the report carries each policy's mean and total snares and
// detections across the park's cells, plus one Delta per non-baseline
// policy: the per-cell paired detection differences (cell order), their
// mean, and a 95% percentile-bootstrap confidence interval on that mean
// (internal/stats.BootstrapMeanCI, resampling the paired deltas). A
// baseline-beating policy shows a positive CI lower bound.
//
// # Determinism
//
// Cells fan out over a bounded worker pool (internal/par, Config.Workers
// goroutines), but results are collected and aggregated in cell-index order
// and the bootstrap streams are derived from fixed labels, so the report —
// including every CI — is byte-identical for any worker count.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"paws/internal/env"
	"paws/internal/geo"
	"paws/internal/par"
	"paws/internal/rng"
	"paws/internal/stats"
)

// Cell is one grid point of a campaign: every policy of the campaign plays
// the closed loop on Park for Seasons seasons under replicate seed Seed.
type Cell struct {
	// Index is the cell's position in the deterministic grid order
	// (park-major, then seed, then season count).
	Index int `json:"index"`
	// Park is a single expanded park spec (preset name or rand:<seed>).
	Park string `json:"park"`
	// Seed is the replicate seed: it drives the bootstrap history and every
	// common-random-number draw of the cell (and, for preset parks, the
	// park-generation stream), so one seed is one complete scenario
	// realization shared by all policies.
	Seed int64 `json:"seed"`
	// Seasons is the number of planning seasons the cell runs.
	Seasons int `json:"seasons"`
}

// Runner executes one cell: a closed-loop simulation comparing every
// campaign policy on cell.Park at cell.Seed over cell.Seasons seasons. The
// root package supplies Service.Simulate here; tests supply fakes. The
// returned report must contain exactly the campaign's policies.
type Runner func(ctx context.Context, cell Cell) (*env.Report, error)

// Config drives one campaign. Parks/Policies/Seeds/SeasonCounts span the
// grid; Baseline anchors the paired deltas.
type Config struct {
	// Parks are park specs; "rand:<lo>-<hi>" (or "rand:<lo>..<hi>") ranges
	// expand to one spec per seed (ExpandParks).
	Parks []string
	// Policies are the policy names compared inside every cell.
	Policies []string
	// Seeds are the replicate seeds (one paired observation per seed).
	Seeds []int64
	// SeasonCounts are the season-count grid values; most campaigns use one.
	SeasonCounts []int
	// Baseline names the policy the deltas are measured against (default:
	// "uniform" when present, else the first policy).
	Baseline string
	// Resamples is the bootstrap resample count of the delta CIs
	// (default 2000).
	Resamples int
	// Workers bounds concurrently running cells (par.Workers semantics). The
	// report is byte-identical for any worker count.
	Workers int
	// Progress, when non-nil, is invoked as each cell completes with the
	// cell and the monotonic completed count. Cells finish in any order;
	// the callback must be safe for concurrent use and is observational
	// only — it never affects the report.
	Progress func(cell Cell, done, total int)
}

// maxRandRange bounds how many parks one "rand:<lo>-<hi>" range may expand
// to, so a typo cannot request a million-park campaign.
const maxRandRange = 256

// ExpandParks expands procedural range specs — "rand:<lo>-<hi>" or
// "rand:<lo>..<hi>", bounds inclusive and non-negative — into one
// "rand:<seed>" spec per value, passing every other spec through untouched.
// The expanded list must be duplicate-free.
func ExpandParks(specs []string) ([]string, error) {
	out := make([]string, 0, len(specs))
	seen := map[string]bool{}
	for _, spec := range specs {
		expanded, err := expandSpec(spec)
		if err != nil {
			return nil, err
		}
		for _, s := range expanded {
			if seen[s] {
				return nil, fmt.Errorf("campaign: duplicate park %q", s)
			}
			seen[s] = true
			out = append(out, s)
		}
	}
	return out, nil
}

// expandSpec expands one spec: a rand range to its seeds, anything else to
// itself.
func expandSpec(spec string) ([]string, error) {
	if !geo.IsRandSpec(spec) {
		return []string{spec}, nil
	}
	body := strings.TrimPrefix(spec, geo.RandPrefix)
	sep := ""
	switch {
	case strings.Contains(body, ".."):
		sep = ".."
	case strings.Index(body, "-") > 0: // a leading "-" is a negative single seed
		sep = "-"
	default:
		return []string{spec}, nil
	}
	loStr, hiStr, _ := strings.Cut(body, sep)
	lo, err1 := strconv.ParseInt(loStr, 10, 64)
	hi, err2 := strconv.ParseInt(hiStr, 10, 64)
	if err1 != nil || err2 != nil || lo < 0 || hi < 0 {
		return nil, fmt.Errorf("campaign: invalid park range %q (want rand:<lo>-<hi> with non-negative integer bounds)", spec)
	}
	if hi < lo {
		return nil, fmt.Errorf("campaign: empty park range %q (lo %d > hi %d)", spec, lo, hi)
	}
	// Size is hi−lo+1; compare without the +1 so a range ending at MaxInt64
	// cannot overflow past the cap.
	if hi-lo >= maxRandRange {
		return nil, fmt.Errorf("campaign: park range %q spans more than %d parks", spec, maxRandRange)
	}
	out := make([]string, 0, hi-lo+1)
	// Terminate on v == hi rather than v <= hi: for a range ending at
	// MaxInt64 the increment would wrap and v <= hi would never go false.
	for v := lo; ; v++ {
		out = append(out, fmt.Sprintf("%s%d", geo.RandPrefix, v))
		if v == hi {
			break
		}
	}
	return out, nil
}

// withDefaults expands, validates and fills cfg. Every rejection is a plain
// error the HTTP layer maps to a structured bad_request.
func (cfg Config) withDefaults() (Config, error) {
	parks, err := ExpandParks(cfg.Parks)
	if err != nil {
		return cfg, err
	}
	if len(parks) == 0 {
		return cfg, fmt.Errorf("campaign: no parks")
	}
	for _, p := range parks {
		if _, err := geo.ParseSpec(p, 0); err != nil {
			return cfg, fmt.Errorf("campaign: %w", err)
		}
	}
	cfg.Parks = parks
	if len(cfg.Policies) == 0 {
		return cfg, fmt.Errorf("campaign: no policies")
	}
	seenPolicy := map[string]bool{}
	for _, p := range cfg.Policies {
		if p == "" {
			return cfg, fmt.Errorf("campaign: empty policy name")
		}
		if seenPolicy[p] {
			return cfg, fmt.Errorf("campaign: duplicate policy %q", p)
		}
		seenPolicy[p] = true
	}
	if len(cfg.Seeds) == 0 {
		return cfg, fmt.Errorf("campaign: no seeds")
	}
	seenSeed := map[int64]bool{}
	for _, s := range cfg.Seeds {
		if seenSeed[s] {
			return cfg, fmt.Errorf("campaign: duplicate seed %d", s)
		}
		seenSeed[s] = true
	}
	if len(cfg.SeasonCounts) == 0 {
		return cfg, fmt.Errorf("campaign: no season counts")
	}
	seenSeasons := map[int]bool{}
	for _, n := range cfg.SeasonCounts {
		if n <= 0 {
			return cfg, fmt.Errorf("campaign: season count must be ≥ 1, got %d", n)
		}
		if seenSeasons[n] {
			return cfg, fmt.Errorf("campaign: duplicate season count %d", n)
		}
		seenSeasons[n] = true
	}
	if cfg.Baseline == "" {
		cfg.Baseline = cfg.Policies[0]
		if seenPolicy["uniform"] {
			cfg.Baseline = "uniform"
		}
	}
	if !seenPolicy[cfg.Baseline] {
		return cfg, fmt.Errorf("campaign: baseline %q is not one of the policies %v", cfg.Baseline, cfg.Policies)
	}
	if cfg.Resamples < 0 {
		return cfg, fmt.Errorf("campaign: resamples must be ≥ 0, got %d", cfg.Resamples)
	}
	if cfg.Resamples == 0 {
		cfg.Resamples = 2000
	}
	return cfg, nil
}

// Resolve validates the grid configuration and returns it defaults-filled:
// parks expanded (ranges unrolled), baseline and resamples defaulted. This
// is the one validation pass — Run and the submit-time surfaces all go
// through it, so they cannot drift.
func (cfg Config) Resolve() (Config, error) { return cfg.withDefaults() }

// cells lays out the deterministic grid order: park-major, then seed, then
// season count. Aggregation and the report's cell list follow this order.
func (cfg Config) cells() []Cell {
	cells := make([]Cell, 0, len(cfg.Parks)*len(cfg.Seeds)*len(cfg.SeasonCounts))
	for _, park := range cfg.Parks {
		for _, seed := range cfg.Seeds {
			for _, seasons := range cfg.SeasonCounts {
				cells = append(cells, Cell{Index: len(cells), Park: park, Seed: seed, Seasons: seasons})
			}
		}
	}
	return cells
}

// CellResult is one grid cell plus its full simulation report.
type CellResult struct {
	Cell
	Report *env.Report `json:"report"`
}

// PolicyStats aggregates one policy over one park's cells.
type PolicyStats struct {
	Policy          string  `json:"policy"`
	Cells           int     `json:"cells"`
	TotalSnares     int     `json:"total_snares"`
	TotalDetections int     `json:"total_detections"`
	MeanSnares      float64 `json:"mean_snares"`
	MeanDetections  float64 `json:"mean_detections"`
}

// Delta is one policy's paired comparison against the baseline on one park:
// per-cell common-random-number detection differences and the bootstrap
// interval on their mean.
type Delta struct {
	Policy   string `json:"policy"`
	Baseline string `json:"baseline"`
	// PerCell[i] is (policy − baseline) total detections in the park's i-th
	// cell (grid order) — one paired observation per (seed, seasons) pair.
	PerCell []float64 `json:"per_cell"`
	// Mean is the mean paired delta; CILow/CIHigh bound it at 95%
	// (percentile bootstrap over the paired deltas).
	Mean   float64 `json:"mean"`
	CILow  float64 `json:"ci_low"`
	CIHigh float64 `json:"ci_high"`
	// Wins counts cells where the policy strictly beat the baseline.
	Wins int `json:"wins"`
}

// ParkSummary aggregates one park across its grid cells.
type ParkSummary struct {
	// Park is the spec the cells ran (the cell reports carry the generated
	// park's display name).
	Park     string        `json:"park"`
	Cells    int           `json:"cells"`
	Policies []PolicyStats `json:"policies"`
	// Deltas holds one paired comparison per non-baseline policy, in
	// campaign policy order.
	Deltas []Delta `json:"deltas"`
}

// Report is the outcome of one campaign: the raw per-cell simulation
// reports (grid order) and the per-park paired aggregation.
type Report struct {
	Parks        []string      `json:"parks"`
	Policies     []string      `json:"policies"`
	Baseline     string        `json:"baseline"`
	Seeds        []int64       `json:"seeds"`
	SeasonCounts []int         `json:"season_counts"`
	Resamples    int           `json:"resamples"`
	Cells        []CellResult  `json:"cells"`
	Summaries    []ParkSummary `json:"summaries"`
}

// bootstrapSeedRoot anchors the delta-CI bootstrap streams: each
// (park, policy, baseline) triple splits its own labelled stream off this
// fixed root, so CIs are reproducible and independent of worker count,
// completion order and every other campaign parameter.
const bootstrapSeedRoot = 1

// Run executes the campaign grid and aggregates the paired report. Cells
// fan out over up to cfg.Workers goroutines; results are collected in grid
// order, so the report is byte-identical for any worker count. The first
// cell error (or ctx's error) cancels the remaining cells' contexts
// immediately, and they are drained before Run returns.
func Run(ctx context.Context, cfg Config, run Runner) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if run == nil {
		return nil, fmt.Errorf("campaign: nil runner")
	}
	cells := cfg.cells()
	reports, err := runCells(ctx, cfg, cells, run)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Parks:        cfg.Parks,
		Policies:     cfg.Policies,
		Baseline:     cfg.Baseline,
		Seeds:        cfg.Seeds,
		SeasonCounts: cfg.SeasonCounts,
		Resamples:    cfg.Resamples,
		Cells:        make([]CellResult, len(cells)),
	}
	for i, cell := range cells {
		if err := checkPolicies(reports[i], cfg.Policies); err != nil {
			return nil, fmt.Errorf("campaign: cell %s seed=%d seasons=%d: %w", cell.Park, cell.Seed, cell.Seasons, err)
		}
		rep.Cells[i] = CellResult{Cell: cell, Report: reports[i]}
	}
	perPark := len(cfg.Seeds) * len(cfg.SeasonCounts)
	for pi, park := range cfg.Parks {
		rep.Summaries = append(rep.Summaries, summarize(park, rep.Cells[pi*perPark:(pi+1)*perPark], cfg))
	}
	return rep, nil
}

// runCells runs the cells on up to cfg.Workers goroutines (par.MapErrCtx)
// and collects the simulation reports in grid order. The first failing cell
// (in completion order) cancels the context every cell runs under — a
// doomed campaign drains in milliseconds instead of simulating the rest of
// the grid — and its error is the one Run reports, not the cancellation
// cascade it sets off. A panicking runner or progress callback fails its
// cell the same way. When ctx itself is done, its error is returned as is.
func runCells(ctx context.Context, cfg Config, cells []Cell, run Runner) ([]*env.Report, error) {
	runCtx, stopAll := context.WithCancel(ctx)
	defer stopAll()
	// mu guards the first failure and the completed count. The counter
	// increment and the progress callback run under it together, so
	// observers (e.g. the NDJSON job stream) see a strictly monotonic count.
	var mu sync.Mutex
	var failErr error
	completed := 0
	progress := func(cell Cell) {
		// Deferred unlock: a panicking callback must not leave the lock
		// held, or every other completing cell would block on it forever.
		mu.Lock()
		defer mu.Unlock()
		completed++
		cfg.Progress(cell, completed, len(cells))
	}
	reports, err := par.MapErrCtx(runCtx, cfg.Workers, len(cells), func(i int) (r *env.Report, err error) {
		cell := cells[i]
		defer func() {
			if p := recover(); p != nil {
				r, err = nil, fmt.Errorf("panic: %v", p)
			}
			if err != nil {
				err = fmt.Errorf("campaign: cell %s seed=%d seasons=%d: %w", cell.Park, cell.Seed, cell.Seasons, err)
				mu.Lock()
				if failErr == nil {
					failErr = err
				}
				mu.Unlock()
				stopAll()
			}
		}()
		if r, err = run(runCtx, cell); err == nil && r == nil {
			err = errors.New("runner returned a nil report")
		}
		if err == nil && cfg.Progress != nil {
			progress(cell)
		}
		return r, err
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, failErr // the root cause, not the cancellation cascade
	}
	return reports, nil
}

// checkPolicies verifies a cell report carries exactly the campaign's
// policies — the Runner contract the aggregation relies on.
func checkPolicies(r *env.Report, policies []string) error {
	if len(r.Policies) != len(policies) {
		return fmt.Errorf("report has %d policies, campaign wants %d", len(r.Policies), len(policies))
	}
	for _, want := range policies {
		if _, err := policyResult(r, want); err != nil {
			return err
		}
	}
	return nil
}

// policyResult extracts one policy's result from a cell report by name.
func policyResult(r *env.Report, policy string) (env.PolicyResult, error) {
	for _, p := range r.Policies {
		if p.Policy == policy {
			return p, nil
		}
	}
	return env.PolicyResult{}, fmt.Errorf("report is missing policy %q", policy)
}

// summarize aggregates one park's cells: per-policy stats and paired deltas
// against the baseline, with bootstrap CIs from fixed labelled streams.
func summarize(park string, cells []CellResult, cfg Config) ParkSummary {
	s := ParkSummary{Park: park, Cells: len(cells)}
	detections := map[string][]float64{}
	for _, policy := range cfg.Policies {
		st := PolicyStats{Policy: policy, Cells: len(cells)}
		per := make([]float64, len(cells))
		for i, c := range cells {
			pr, _ := policyResult(c.Report, policy) // presence checked in Run
			st.TotalSnares += pr.Snares
			st.TotalDetections += pr.Detections
			per[i] = float64(pr.Detections)
		}
		st.MeanSnares = float64(st.TotalSnares) / float64(len(cells))
		st.MeanDetections = float64(st.TotalDetections) / float64(len(cells))
		detections[policy] = per
		s.Policies = append(s.Policies, st)
	}
	base := detections[cfg.Baseline]
	for _, policy := range cfg.Policies {
		if policy == cfg.Baseline {
			continue
		}
		d := Delta{Policy: policy, Baseline: cfg.Baseline, PerCell: make([]float64, len(cells))}
		for i := range cells {
			d.PerCell[i] = detections[policy][i] - base[i]
			d.Mean += d.PerCell[i]
			if d.PerCell[i] > 0 {
				d.Wins++
			}
		}
		d.Mean /= float64(len(cells))
		r := rng.New(bootstrapSeedRoot).Split(fmt.Sprintf("campaign-bootstrap:%s:%s:%s", park, policy, cfg.Baseline))
		d.CILow, d.CIHigh = stats.BootstrapMeanCI(d.PerCell, cfg.Resamples, 0.95, r)
		s.Deltas = append(s.Deltas, d)
	}
	return s
}
