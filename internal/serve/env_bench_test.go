package serve

import (
	"context"
	"net/http/httptest"
	"testing"

	"paws"
)

// BenchmarkEnvStep prices the environment subsystem against the direct
// closed-loop simulation it was carved out of (BENCH_env.json). All three
// sub-benchmarks execute the same episode — MFNP, one uniform policy,
// 4 seasons of 1 month over a 6-month bootstrap — so their ns/op are
// directly comparable:
//
//	direct-sim — Service.Simulate, env.Run driving an internal Env end
//	             to end in process;
//	env-local  — Service.NewEnv plus an explicit Reset/Step loop, what a
//	             Go learner pays to hold the loop open between decisions;
//	env-remote — Service.SimulateRemote against a live pawsd replica, the
//	             same steps as HTTP /v1/envs session round trips.
//
// env-local minus direct-sim is the carve-out's overhead (report assembly
// aside, they run identical month kernels); env-remote minus direct-sim is
// the wire cost of remoting every step. Detections are reported as a metric
// because all three must agree — the subsystem is only a seam, never a
// different simulation.
func BenchmarkEnvStep(b *testing.B) {
	cfg := paws.SimConfig{
		Park:            "MFNP",
		Seasons:         4,
		SeasonMonths:    1,
		BootstrapMonths: 6,
		Policies:        []string{"uniform"},
	}
	ctx := context.Background()

	b.Run("direct-sim", func(b *testing.B) {
		svc := paws.NewService(paws.WithSeed(7), paws.WithWorkers(1))
		var detections int
		for i := 0; i < b.N; i++ {
			rep, err := svc.Simulate(ctx, cfg)
			if err != nil {
				b.Fatal(err)
			}
			detections = rep.Policies[0].Detections
		}
		b.ReportMetric(float64(detections), "detections")
	})

	b.Run("env-local", func(b *testing.B) {
		svc := paws.NewService(paws.WithSeed(7), paws.WithWorkers(1))
		var detections int
		for i := 0; i < b.N; i++ {
			e, err := svc.NewEnv(cfg)
			if err != nil {
				b.Fatal(err)
			}
			cells := e.Config().Park.Grid.NumCells()
			effort := make([]float64, cells)
			for j := range effort {
				effort[j] = 1
			}
			detections = 0
			for !e.Done() {
				_, st, _, err := e.Step(ctx, effort)
				if err != nil {
					b.Fatal(err)
				}
				detections += st.Detections
			}
		}
		b.ReportMetric(float64(detections), "detections")
	})

	b.Run("env-remote", func(b *testing.B) {
		svc := paws.NewService(paws.WithSeed(7), paws.WithWorkers(1))
		srv := httptest.NewServer(New(svc, Config{ReplicaID: "bench"}))
		defer srv.Close()
		var detections int
		for i := 0; i < b.N; i++ {
			rep, err := svc.SimulateRemote(ctx, srv.URL, srv.Client(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			detections = rep.Policies[0].Detections
		}
		b.ReportMetric(float64(detections), "detections")
	})
}
