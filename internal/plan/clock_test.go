package plan

import (
	"context"
	"reflect"
	"testing"
	"time"

	"paws/internal/milp"
)

// steppingClock is a fake clock advancing one second per reading, so a
// Runtime stamped from it counts now() calls instead of wall time.
type steppingClock struct {
	t time.Time
	n int
}

func (c *steppingClock) now() time.Time {
	c.t = c.t.Add(time.Second)
	c.n++
	return c.t
}

// TestSolveRuntimeDeterministic pins Plan.Runtime under the injected
// clock: the Frank-Wolfe path reads the clock exactly twice (start and
// stamp), so Runtime is exactly one fake second — byte-identical across
// runs, never a function of host load.
func TestSolveRuntimeDeterministic(t *testing.T) {
	park := planPark(t)
	region, err := NewRegion(park, park.Posts[0], 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	model := saturatingModel{rate: map[int]float64{}, unc: map[int]float64{}}
	for _, runs := range []int{1, 2} {
		clk := &steppingClock{t: time.Unix(1_700_000_000, 0)}
		cfg := Config{T: 6, K: 2, Segments: 6, Solver: SolverFrankWolfe, now: clk.now}
		p, err := Solve(region, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if p.Runtime != time.Second {
			t.Fatalf("run %d: Runtime = %v from injected clock, want exactly 1s", runs, p.Runtime)
		}
		if clk.n != 2 {
			t.Fatalf("run %d: Solve read the clock %d times, want 2 (start + stamp)", runs, clk.n)
		}
	}
}

// TestSolveHierarchicalRuntimeDeterministic verifies the now hook
// propagates through the hierarchical path: the returned fine plan's
// Runtime is a whole number of fake seconds (every reading came from the
// injected clock) and identical across repeated solves.
func TestSolveHierarchicalRuntimeDeterministic(t *testing.T) {
	park := planPark(t)
	model := hierModel(park)
	h := HierOptions{FineMaxCells: 20}
	var ref time.Duration
	for run := 1; run <= 2; run++ {
		clk := &steppingClock{t: time.Unix(1_700_000_000, 0)}
		cfg := Config{T: 6, K: 2, Segments: 6, Beta: 0.3, Solver: SolverFrankWolfe, now: clk.now}
		p, _, err := SolveHierarchical(context.Background(), park, park.Posts[0], model, cfg, h)
		if err != nil {
			t.Fatal(err)
		}
		if p.Runtime <= 0 || p.Runtime%time.Second != 0 {
			t.Fatalf("run %d: Runtime = %v, want a positive whole number of fake seconds", run, p.Runtime)
		}
		if run == 1 {
			ref = p.Runtime
		} else if p.Runtime != ref {
			t.Fatalf("Runtime not reproducible: run 1 = %v, run 2 = %v", ref, p.Runtime)
		}
	}
}

// TestDefaultMILPBudgetHasNoWallClock pins the budget a default plan hands
// milp.Solve: the deterministic node budget and a zero TimeLimit, so the
// refinement never reads the clock and a plan never depends on machine load.
// A caller's explicit budget passes through unchanged.
func TestDefaultMILPBudgetHasNoWallClock(t *testing.T) {
	if got := (Config{}).milpOptions(); got.TimeLimit != 0 || got.MaxNodes != 150 {
		t.Fatalf("default MILP options = %+v, want TimeLimit 0 and MaxNodes 150", got)
	}
	want := milp.Options{TimeLimit: time.Second, MaxNodes: 7}
	if got := (Config{MILP: want}).milpOptions(); got != want {
		t.Fatalf("explicit MILP options = %+v, want %+v", got, want)
	}
}

// TestSolveMILPReproducible solves a staircase instance — many equally
// fractional SOS2 binaries — repeatedly: branch-and-bound must explore the
// same nodes and return the same plan every time.
func TestSolveMILPReproducible(t *testing.T) {
	park := planPark(t)
	region, err := NewRegion(park, park.Posts[0], 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{T: 5, K: 2, Segments: 4, Solver: SolverMILP}
	ref, err := Solve(region, nonConcaveModel{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for run := 2; run <= 4; run++ {
		p, err := Solve(region, nonConcaveModel{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if p.Nodes != ref.Nodes || p.Objective != ref.Objective || !reflect.DeepEqual(p.Effort, ref.Effort) {
			t.Fatalf("run %d: %d nodes, objective %v; run 1: %d nodes, objective %v", run, p.Nodes, p.Objective, ref.Nodes, ref.Objective)
		}
	}
}
