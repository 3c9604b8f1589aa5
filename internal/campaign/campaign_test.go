package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paws/internal/env"
	"paws/internal/geo"
)

// fakeRunner builds a deterministic synthetic report per cell: policy p's
// detections are a fixed function of (park, seed, seasons, p), so every
// aggregation property can be checked exactly without running simulations.
func fakeRunner(policies []string) Runner {
	return func(_ context.Context, cell Cell) (*env.Report, error) {
		rep := &env.Report{Park: cell.Park, Seed: cell.Seed, Seasons: cell.Seasons}
		for i, p := range policies {
			det := fakeDetections(cell, i)
			rep.Policies = append(rep.Policies, env.PolicyResult{
				Policy:     p,
				Snares:     det + 5,
				Detections: det,
			})
		}
		return rep, nil
	}
}

// fakeDetections is the synthetic ground truth: policy i detects i more than
// policy 0 plus a seed- and park-dependent base common to all policies.
func fakeDetections(cell Cell, policyIdx int) int {
	base := int(cell.Seed)*3 + len(cell.Park) + cell.Seasons
	return base + 4*policyIdx
}

func testConfig() Config {
	return Config{
		Parks:        []string{"MFNP", "rand:1-2"},
		Policies:     []string{"uniform", "paws", "random"},
		Seeds:        []int64{1, 2, 3},
		SeasonCounts: []int{1, 2},
	}
}

func TestExpandParks(t *testing.T) {
	got, err := ExpandParks([]string{"MFNP", "rand:3-5", "rand:7..8", "rand:42"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"MFNP", "rand:3", "rand:4", "rand:5", "rand:7", "rand:8", "rand:42"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ExpandParks = %v, want %v", got, want)
	}
	// A negative single seed is a spec, not a range.
	got, err = ExpandParks([]string{"rand:-5"})
	if err != nil || !reflect.DeepEqual(got, []string{"rand:-5"}) {
		t.Fatalf("negative single seed: got %v, %v", got, err)
	}
	// A one-element range ending at MaxInt64 must terminate (the expansion
	// loop cannot rely on v <= hi, which never goes false after wraparound).
	got, err = ExpandParks([]string{"rand:9223372036854775807-9223372036854775807"})
	if err != nil || !reflect.DeepEqual(got, []string{"rand:9223372036854775807"}) {
		t.Fatalf("MaxInt64 range: got %v, %v", got, err)
	}
	for _, bad := range [][]string{
		{"rand:5-3"},                    // inverted
		{"rand:1-999999"},               // over the range cap
		{"rand:0-9223372036854775807"},  // size overflows int64; must still hit the cap
		{"rand:0..9223372036854775807"}, // same via the .. form
		{"rand:1-2-3"},                  // malformed
		{"rand:a-b"},                    // non-integer bounds
		{"rand:1..x"},                   // non-integer hi
		{"rand:1-3", "rand:2"},          // duplicate after expansion
		{"MFNP", "MFNP"},                // duplicate preset
	} {
		if _, err := ExpandParks(bad); err == nil {
			t.Errorf("ExpandParks(%v) accepted", bad)
		}
	}
}

// FuzzParkSpec feeds a park spec through ExpandParks and each spec it
// returns through geo.ParseSpec. Neither may panic. Every spec a range
// expands to must parse with geo.ParseRandSpec (other specs pass through
// untouched and ParseSpec judges them), and an accepted
// rand:<seed>@<cells> spec must size its park to exactly <cells> cells.
func FuzzParkSpec(f *testing.F) {
	for _, spec := range []string{
		"MFNP", "rand:42", "rand:7@1e4", "rand:3-5", "rand:7..8", "rand:-5",
		"rand:9223372036854775807-9223372036854775807",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		parks, err := ExpandParks([]string{spec})
		if err != nil {
			return
		}
		for _, p := range parks {
			if p != spec {
				if _, ok, err := geo.ParseRandSpec(p); !ok || err != nil {
					t.Fatalf("ExpandParks(%q) produced %q, which does not parse: ok=%v err=%v", spec, p, ok, err)
				}
			}
			cfg, err := geo.ParseSpec(p, 1)
			if err != nil || !geo.IsRandSpec(p) {
				continue
			}
			if _, cells, sized := strings.Cut(p, "@"); sized {
				want, _ := strconv.ParseFloat(cells, 64)
				if cfg.TargetCells != int(want) {
					t.Fatalf("ParseSpec(%q).TargetCells = %d, want %v", p, cfg.TargetCells, want)
				}
			}
		}
	})
}

// TestConfigValidation: every malformed grid is rejected with an error (the
// HTTP layer maps these to structured bad_request envelopes) instead of
// panicking or looping.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no parks", func(c *Config) { c.Parks = nil }},
		{"unknown park spec", func(c *Config) { c.Parks = []string{"ATLANTIS"} }},
		{"malformed rand spec", func(c *Config) { c.Parks = []string{"rand:nope"} }},
		{"no policies", func(c *Config) { c.Policies = nil }},
		{"empty policy name", func(c *Config) { c.Policies = []string{"paws", ""} }},
		{"duplicate policy", func(c *Config) { c.Policies = []string{"paws", "paws"} }},
		{"no seeds", func(c *Config) { c.Seeds = nil }},
		{"duplicate seed", func(c *Config) { c.Seeds = []int64{4, 4} }},
		{"no season counts", func(c *Config) { c.SeasonCounts = nil }},
		{"zero season count", func(c *Config) { c.SeasonCounts = []int{0} }},
		{"negative season count", func(c *Config) { c.SeasonCounts = []int{-3} }},
		{"duplicate season count", func(c *Config) { c.SeasonCounts = []int{2, 2} }},
		{"unknown baseline", func(c *Config) { c.Baseline = "skynet" }},
		{"negative resamples", func(c *Config) { c.Resamples = -1 }},
	}
	for _, tc := range cases {
		cfg := testConfig()
		tc.mutate(&cfg)
		if _, err := Run(context.Background(), cfg, fakeRunner(cfg.Policies)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := Run(context.Background(), testConfig(), nil); err == nil {
		t.Error("nil runner accepted")
	}
}

// TestBaselineDefault: "uniform" is preferred when present, else the first
// policy anchors the deltas.
func TestBaselineDefault(t *testing.T) {
	cfg := testConfig()
	rep, err := Run(context.Background(), cfg, fakeRunner(cfg.Policies))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Baseline != "uniform" {
		t.Fatalf("baseline %q, want uniform", rep.Baseline)
	}
	cfg.Policies = []string{"paws", "random"}
	rep, err = Run(context.Background(), cfg, fakeRunner(cfg.Policies))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Baseline != "paws" {
		t.Fatalf("baseline %q, want paws (first policy)", rep.Baseline)
	}
}

// TestRunDeterministicAcrossWorkers: the aggregated report — cells, stats,
// deltas and every bootstrap CI — is byte-identical for any worker count.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 4, 8} {
		cfg := testConfig()
		cfg.Workers = workers
		rep, err := Run(context.Background(), cfg, fakeRunner(cfg.Policies))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("report differs at workers=%d", workers)
		}
	}
}

// TestGridOrderAndPairing: cells are laid out park-major (then seed, then
// season count) and every paired delta equals the per-cell difference of the
// synthetic ground truth.
func TestGridOrderAndPairing(t *testing.T) {
	cfg := testConfig()
	rep, err := Run(context.Background(), cfg, fakeRunner(cfg.Policies))
	if err != nil {
		t.Fatal(err)
	}
	wantCells := 3 * len(cfg.Seeds) * len(cfg.SeasonCounts) // MFNP, rand:1, rand:2
	if len(rep.Cells) != wantCells {
		t.Fatalf("%d cells, want %d", len(rep.Cells), wantCells)
	}
	i := 0
	for _, park := range []string{"MFNP", "rand:1", "rand:2"} {
		for _, seed := range cfg.Seeds {
			for _, seasons := range cfg.SeasonCounts {
				c := rep.Cells[i]
				if c.Index != i || c.Park != park || c.Seed != seed || c.Seasons != seasons {
					t.Fatalf("cell %d = %+v, want {%d %s %d %d}", i, c.Cell, i, park, seed, seasons)
				}
				i++
			}
		}
	}
	if len(rep.Summaries) != 3 {
		t.Fatalf("%d summaries", len(rep.Summaries))
	}
	for _, s := range rep.Summaries {
		if len(s.Deltas) != 2 {
			t.Fatalf("park %s: %d deltas, want 2 (non-baseline policies)", s.Park, len(s.Deltas))
		}
		for _, d := range s.Deltas {
			if d.Baseline != "uniform" {
				t.Fatalf("delta baseline %q", d.Baseline)
			}
			// The synthetic ground truth separates policies by a constant, so
			// every paired delta is exactly that constant: scenario variance
			// cancels, the core CRN property.
			polIdx := map[string]int{"uniform": 0, "paws": 1, "random": 2}[d.Policy]
			wantDelta := float64(4 * polIdx)
			for i, delta := range d.PerCell {
				if delta != wantDelta {
					t.Fatalf("park %s %s: per-cell delta[%d] = %v, want %v", s.Park, d.Policy, i, delta, wantDelta)
				}
			}
			if d.Mean != wantDelta || d.Wins != len(d.PerCell) {
				t.Fatalf("park %s %s: mean %v wins %d", s.Park, d.Policy, d.Mean, d.Wins)
			}
			// Constant deltas bootstrap to a degenerate interval at the mean.
			if d.CILow != wantDelta || d.CIHigh != wantDelta {
				t.Fatalf("park %s %s: CI [%v, %v], want degenerate at %v", s.Park, d.Policy, d.CILow, d.CIHigh, wantDelta)
			}
		}
	}
}

// TestRunnerErrorCancelsCampaign: one failing cell fails the whole run with
// its error — the root cause, not a cancellation cascade — and in-flight
// cells are drained.
func TestRunnerErrorCancelsCampaign(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 4
	boom := func(ctx context.Context, cell Cell) (*env.Report, error) {
		if cell.Park == "rand:1" && cell.Seed == 2 {
			return nil, fmt.Errorf("boom")
		}
		return fakeRunner(cfg.Policies)(ctx, cell)
	}
	_, err := Run(context.Background(), cfg, boom)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestRunnerErrorAbortsRemainingCells: the first failure cancels the other
// cells' contexts immediately, so a doomed campaign does not simulate the
// rest of the grid — even when the failing cell sits in the middle and the
// collection loop is still waiting on earlier indices.
func TestRunnerErrorAbortsRemainingCells(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1 // strictly sequential: cells run in grid order
	var completed atomic.Int64
	boom := func(ctx context.Context, cell Cell) (*env.Report, error) {
		if cell.Index == 1 {
			return nil, fmt.Errorf("boom")
		}
		// A well-behaved runner observes its context, as Simulate does.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		completed.Add(1)
		return fakeRunner(cfg.Policies)(ctx, cell)
	}
	_, err := Run(context.Background(), cfg, boom)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want the root-cause boom, not a cancellation cascade", err)
	}
	total := int64(3 * len(cfg.Seeds) * len(cfg.SeasonCounts))
	if got := completed.Load(); got >= total-1 {
		t.Fatalf("%d of %d cells completed after the failure — remaining cells were not canceled", got, total)
	}
}

// TestRunnerPanicAbortsCampaign: a panicking cell is contained (the panic
// message becomes the campaign error) and cancels the remaining cells just
// like an ordinary error.
func TestRunnerPanicAbortsCampaign(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	var completed atomic.Int64
	boom := func(ctx context.Context, cell Cell) (*env.Report, error) {
		if cell.Index == 1 {
			panic("kaboom")
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		completed.Add(1)
		return fakeRunner(cfg.Policies)(ctx, cell)
	}
	_, err := Run(context.Background(), cfg, boom)
	if err == nil || !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want the contained panic", err)
	}
	total := int64(3 * len(cfg.Seeds) * len(cfg.SeasonCounts))
	if got := completed.Load(); got >= total-1 {
		t.Fatalf("%d of %d cells completed after the panic — remaining cells were not canceled", got, total)
	}
}

// TestRunCanceledContext: a canceled caller context aborts the sweep with
// the context's own error.
func TestRunCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := testConfig()
	_, err := Run(ctx, cfg, fakeRunner(cfg.Policies))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestProgressPerCell: the callback fires once per cell with a monotonic
// completed count, and observing progress does not change the report.
func TestProgressPerCell(t *testing.T) {
	cfg := testConfig()
	base, err := Run(context.Background(), cfg, fakeRunner(cfg.Policies))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var calls int
	var maxDone int
	cfg.Workers = 4
	cfg.Progress = func(cell Cell, done, total int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		// Strictly monotonic: the i-th observed callback carries done == i,
		// even with cells completing concurrently.
		if done != calls {
			t.Errorf("call %d carried done %d — progress regressed", calls, done)
		}
		if done > maxDone {
			maxDone = done
		}
		if total != len(base.Cells) {
			t.Errorf("total = %d, want %d", total, len(base.Cells))
		}
	}
	withProgress, err := Run(context.Background(), cfg, fakeRunner(cfg.Policies))
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(base.Cells) || maxDone != len(base.Cells) {
		t.Fatalf("progress calls %d maxDone %d, want %d", calls, maxDone, len(base.Cells))
	}
	a, _ := json.Marshal(base)
	b, _ := json.Marshal(withProgress)
	if string(a) != string(b) {
		t.Fatal("progress callback changed the report")
	}
}

// TestProgressPanicDoesNotHang: a panicking progress callback fails the
// campaign (contained like a runner panic) instead of deadlocking the other
// cells on the progress lock.
func TestProgressPanicDoesNotHang(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 4
	cfg.Progress = func(Cell, int, int) { panic("progress boom") }
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), cfg, fakeRunner(cfg.Policies))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "panic") {
			t.Fatalf("err = %v, want the contained panic", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("campaign hung after the progress callback panicked")
	}
}

// TestMissingPolicyRejected: a runner that drops a policy from its report
// fails the campaign instead of silently misaligning the pairing.
func TestMissingPolicyRejected(t *testing.T) {
	cfg := testConfig()
	short := func(ctx context.Context, cell Cell) (*env.Report, error) {
		rep, _ := fakeRunner(cfg.Policies)(ctx, cell)
		rep.Policies = rep.Policies[:2]
		return rep, nil
	}
	if _, err := Run(context.Background(), cfg, short); err == nil {
		t.Fatal("short report accepted")
	}
}

// TestFormatShape: the text rendering carries the header, every park block
// and the delta lines.
func TestFormatShape(t *testing.T) {
	cfg := testConfig()
	rep, err := Run(context.Background(), cfg, fakeRunner(cfg.Policies))
	if err != nil {
		t.Fatal(err)
	}
	text := rep.Format()
	for _, want := range []string{
		"campaign: 3 parks × 3 seeds × 2 season counts = 18 cells × 3 policies, baseline uniform",
		"park MFNP (6 cells)",
		"park rand:2 (6 cells)",
		"paired detection deltas vs uniform",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("Format() missing %q:\n%s", want, text)
		}
	}
}
