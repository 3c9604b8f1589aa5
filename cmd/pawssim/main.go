// Command pawssim runs the closed-loop patrol simulation: it plays patrol
// policies (the full PAWS pipeline vs uniform/historical/random baselines)
// against an adaptive poacher over multiple seasons and prints a per-season
// comparison report.
//
//	pawssim -seed 7 -seasons 3 -policies paws,uniform
//	pawssim -park rand:42 -seasons 4                  # procedural park
//	pawssim -park MFNP,QENP -attacker static          # sweep parks
//	pawssim -remote http://localhost:8080 …           # step via /v1/envs
//
// The report is deterministic: the same flags produce byte-identical output
// for any -workers value. With -remote, every policy still plans locally
// but executes its seasons against env sessions on a pawsd replica (or
// pawsgate fleet) — and the report stays byte-identical to the local run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"paws"
	"paws/internal/env"
	"paws/internal/geo"
	"paws/internal/prof"
)

func main() {
	parks := flag.String("park", "MFNP", "comma-separated park specs: "+geo.SpecHelp)
	scaleStr := flag.String("scale", "small", "preset park scale: full or small")
	seed := flag.Int64("seed", 7, "root random seed")
	seasons := flag.Int("seasons", 4, "planning seasons to simulate")
	seasonMonths := flag.Int("season-months", 3, "months per season")
	bootstrap := flag.Int("bootstrap", 24, "historical months simulated before the loop")
	policiesStr := flag.String("policies", "paws,uniform,historical,random", "comma-separated policies to compare")
	attacker := flag.String("attacker", "adaptive", "poacher response model: static or adaptive")
	beta := flag.Float64("beta", 0.9, "robustness weight of the paws policy's planner")
	budget := flag.Float64("budget", 0, "patrol budget in km/month (0 = the park's ranger capacity)")
	kindStr := flag.String("kind", "DTB-iW", "model kind the paws policy retrains each season")
	workers := flag.Int("workers", 0, "worker goroutines (1 = sequential, 0 = one per CPU)")
	remote := flag.String("remote", "", "base URL of a pawsd replica or pawsgate; seasons execute via /v1/envs sessions there")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	scale, err := paws.ParseScale(*scaleStr)
	if err != nil {
		fatal(err)
	}
	kind, err := paws.ParseModelKind(*kindStr)
	if err != nil {
		fatal(err)
	}
	svc := paws.NewService(
		paws.WithSeed(*seed),
		paws.WithScale(scale),
		paws.WithWorkers(*workers),
		paws.WithKind(kind),
	)
	cfg := paws.SimConfig{
		Seasons:         *seasons,
		SeasonMonths:    *seasonMonths,
		BootstrapMonths: *bootstrap,
		BudgetKM:        *budget,
		Policies:        splitList(*policiesStr),
		Attacker:        *attacker,
		Beta:            *beta,
	}
	for _, park := range splitList(*parks) {
		cfg.Park = park
		var rep *env.Report
		if *remote != "" {
			rep, err = svc.SimulateRemote(ctx, *remote, nil, cfg)
		} else {
			rep, err = svc.Simulate(ctx, cfg)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep.Format())
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pawssim:", err)
	os.Exit(1)
}
