package paws

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"paws/internal/obs"
)

// The observability layer must be strictly observational: attaching a
// trace to the context changes which spans get recorded and nothing
// else. These tests run the two span-instrumented pipelines with and
// without a trace, across worker counts, and require byte-identical
// reports — then check the traced runs actually recorded the
// compute-stage spans (so a silently detached trace cannot make the
// equality vacuous).

func spanNames(rec *obs.Recorder) map[string]bool {
	names := map[string]bool{}
	for _, tr := range rec.Recent() {
		for _, sp := range tr.Spans {
			names[sp.Name] = true
		}
	}
	return names
}

func TestSimulateByteIdenticalUnderTracing(t *testing.T) {
	cfg := SimConfig{Park: "rand:16", Seasons: 2, BootstrapMonths: 12, Policies: []string{"paws", "uniform"}}
	rec := obs.NewRecorder(16)
	var want []byte
	for _, workers := range []int{1, 4, 8} {
		for _, traced := range []bool{false, true} {
			ctx := context.Background()
			var tr *obs.Trace
			if traced {
				tr = rec.Start("", "test:simulate")
				ctx = obs.WithTrace(ctx, tr)
			}
			svc := NewService(WithSeed(7), WithScale(ScaleSmall), WithWorkers(workers))
			rep, err := svc.Simulate(ctx, cfg)
			if tr != nil {
				tr.Finish("ok")
			}
			if err != nil {
				t.Fatalf("workers=%d traced=%v: %v", workers, traced, err)
			}
			got, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("report differs at workers=%d traced=%v", workers, traced)
			}
		}
	}
	names := spanNames(rec)
	for _, stage := range []string{"park", "bootstrap", "reset", "plan", "patrol", "build", "train", "riskmap", "routes"} {
		if !names[stage] {
			t.Fatalf("traced simulate missing %q span (got %v)", stage, names)
		}
	}
}

func TestCampaignByteIdenticalUnderTracing(t *testing.T) {
	cfg := CampaignConfig{
		Parks:           []string{"rand:16"},
		Policies:        []string{"paws", "uniform"},
		Seeds:           []int64{1, 2},
		SeasonCounts:    []int{1},
		SeasonMonths:    1,
		BootstrapMonths: 12,
	}
	rec := obs.NewRecorder(16)
	var want []byte
	for _, workers := range []int{1, 4, 8} {
		for _, traced := range []bool{false, true} {
			ctx := context.Background()
			var tr *obs.Trace
			if traced {
				tr = rec.Start("", "test:campaign")
				ctx = obs.WithTrace(ctx, tr)
			}
			svc := NewService(WithScale(ScaleSmall), WithWorkers(workers))
			rep, err := svc.Campaign(ctx, cfg)
			if tr != nil {
				tr.Finish("ok")
			}
			if err != nil {
				t.Fatalf("workers=%d traced=%v: %v", workers, traced, err)
			}
			got, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("campaign report differs at workers=%d traced=%v", workers, traced)
			}
		}
	}
	names := spanNames(rec)
	// The per-cell span proves the trace crossed the campaign's cell
	// fan-out; train proves it reached the paws pipeline.
	for _, stage := range []string{"cell", "plan", "train"} {
		if !names[stage] {
			t.Fatalf("traced campaign missing %q span (got %v)", stage, names)
		}
	}
}
