// Command pawscamp runs a campaign: a deterministic sweep over a grid of
// parks × replicate seeds × season counts, every cell a closed-loop
// simulation comparing the same patrol policies under common random
// numbers, aggregated into paired per-park policy deltas with 95% bootstrap
// confidence intervals — the paper's Table III-style "PAWS beats the status
// quo" conclusion as one command.
//
//	pawscamp -parks rand:16,rand:8 -seeds 1,2,3 -seasons 2
//	pawscamp -parks rand:1-4 -policies paws,uniform,random   # procedural range
//	pawscamp -parks MFNP -seasons 2,4 -json report.json      # season-count grid
//
// The printed table (and the JSON report) is byte-identical for any
// -workers value.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"paws"
	"paws/internal/prof"
)

func main() {
	parks := flag.String("parks", "MFNP", "comma-separated park specs; rand:<lo>-<hi> ranges expand")
	policiesStr := flag.String("policies", "paws,uniform", "comma-separated policies to compare")
	seedsStr := flag.String("seeds", "1,2,3", "comma-separated replicate seeds (one paired observation per seed)")
	seasonsStr := flag.String("seasons", "4", "comma-separated season counts of the grid")
	seasonMonths := flag.Int("season-months", 3, "months per season")
	bootstrap := flag.Int("bootstrap", 24, "historical months simulated before each loop")
	attacker := flag.String("attacker", "adaptive", "poacher response model: static or adaptive")
	beta := flag.Float64("beta", 0.9, "robustness weight of the paws policy's planner")
	budget := flag.Float64("budget", 0, "patrol budget in km/month (0 = each park's ranger capacity)")
	baseline := flag.String("baseline", "", "baseline policy of the paired deltas (default: uniform when present)")
	resamples := flag.Int("resamples", 2000, "bootstrap resamples of the delta confidence intervals")
	scaleStr := flag.String("scale", "small", "preset park scale: full or small")
	kindStr := flag.String("kind", "DTB-iW", "model kind the paws policy retrains each season")
	workers := flag.Int("workers", 0, "worker goroutines (1 = sequential, 0 = one per CPU)")
	jsonPath := flag.String("json", "", "also write the full report as JSON to this path")
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
	seeds, err := parseInt64List(*seedsStr)
	if err != nil {
		fatal(fmt.Errorf("-seeds: %w", err))
	}
	seasons, err := parseIntList(*seasonsStr)
	if err != nil {
		fatal(fmt.Errorf("-seasons: %w", err))
	}
	svc := paws.NewService(
		paws.WithScale(scale),
		paws.WithWorkers(*workers),
		paws.WithKind(kind),
	)
	cfg := paws.CampaignConfig{
		Parks:           splitList(*parks),
		Policies:        splitList(*policiesStr),
		Seeds:           seeds,
		SeasonCounts:    seasons,
		SeasonMonths:    *seasonMonths,
		BootstrapMonths: *bootstrap,
		BudgetKM:        *budget,
		Attacker:        *attacker,
		Beta:            *beta,
		Baseline:        *baseline,
		Resamples:       *resamples,
	}
	rep, err := svc.Campaign(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Print(rep.Format())
	if *jsonPath != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		b = append(b, '\n')
		if err := os.WriteFile(*jsonPath, b, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pawscamp: wrote %s\n", *jsonPath)
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

func parseInt64List(s string) ([]int64, error) {
	var out []int64
	for _, v := range splitList(s) {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid integer %q", v)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseIntList(s string) ([]int, error) {
	ns, err := parseInt64List(s)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = int(n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pawscamp:", err)
	os.Exit(1)
}
