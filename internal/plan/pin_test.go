package plan

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"testing"
)

// effortDigest is an FNV-1a hash of an effort vector's float64 bits, so a
// pinned plan fails on any last-bit change.
func effortDigest(effort []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, e := range effort {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(e))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestSolverOutputsPinned pins every solver path bit-for-bit: the fixed
// Frank-Wolfe, simplex and branch-and-bound budgets and the hierarchical
// coarsening must keep reproducing these plans exactly. The expected
// values were recorded before those budgets became constants.
func TestSolverOutputsPinned(t *testing.T) {
	park := planPark(t)
	smooth := hierModel(park)
	cases := []struct {
		name             string
		model            CellModel
		radius, maxCells int
		cfg              Config
		objective        uint64
		nodes, binaries  int
		relaxed          bool
		effort           uint64
	}{
		{name: "auto/saturating", model: smooth, radius: 2,
			cfg:       Config{T: 6, K: 2, Segments: 6, Beta: 0.3},
			objective: 0x4014311bea61e249, nodes: 0, binaries: 0, relaxed: true, effort: 0xf5feb12182072de5},
		{name: "frankwolfe/saturating", model: smooth, radius: 2,
			cfg:       Config{T: 6, K: 2, Segments: 6, Beta: 0.3, Solver: SolverFrankWolfe},
			objective: 0x4013718a9c3c01d3, nodes: 0, binaries: 0, relaxed: true, effort: 0xc78cca3e38939164},
		{name: "milp/saturating", model: smooth, radius: 2,
			cfg:       Config{T: 6, K: 2, Segments: 6, Beta: 0.3, Solver: SolverMILP},
			objective: 0x4014311bea61e249, nodes: 0, binaries: 0, relaxed: true, effort: 0xf5feb12182072de5},
		{name: "auto/nonconcave", model: nonConcaveModel{}, radius: 1,
			cfg:       Config{T: 4, K: 2, Segments: 4},
			objective: 0x3fe570a3d70a3d70, nodes: 9, binaries: 20, relaxed: false, effort: 0xed59b66a96df4c90},
		{name: "frankwolfe/nonconcave", model: nonConcaveModel{}, radius: 1,
			cfg:       Config{T: 4, K: 2, Segments: 4, Solver: SolverFrankWolfe},
			objective: 0x3fdf5c28f5c1cbae, nodes: 0, binaries: 0, relaxed: true, effort: 0xcf7278d0d0a0a83a},
		{name: "milp/nonconcave", model: nonConcaveModel{}, radius: 2, maxCells: 12,
			cfg:       Config{T: 5, K: 2, Segments: 4, Solver: SolverMILP},
			objective: 0x3fea8f5c28f5c290, nodes: 41, binaries: 48, relaxed: false, effort: 0xa6801c3806686969},
	}
	for _, tc := range cases {
		region, err := NewRegion(park, park.Posts[0], tc.radius, tc.maxCells)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Solve(region, tc.model, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := [5]any{math.Float64bits(p.Objective), p.Nodes, p.Binaries, p.Relaxed, effortDigest(p.Effort)}
		want := [5]any{tc.objective, tc.nodes, tc.binaries, tc.relaxed, tc.effort}
		if got != want {
			t.Errorf("%s: got objective %#x, %d nodes, %d binaries, relaxed %v, effort %#x; want %#x, %d, %d, %v, %#x",
				tc.name, got[0], got[1], got[2], got[3], got[4], want[0], want[1], want[2], want[3], want[4])
		}
	}

	cfg := Config{T: 6, K: 2, Segments: 6, Beta: 0.3}
	p, region, err := SolveHierarchical(context.Background(), park, park.Posts[0], smooth, cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := []int{114, 113, 133, 134, 112, 111, 131, 132, 153, 154, 173, 174, 192, 193, 211, 212, 94, 76, 75, 74}
	if !reflect.DeepEqual(region.Cells, wantCells) {
		t.Errorf("hierarchical region cells = %#v, want %#v", region.Cells, wantCells)
	}
	if got, want := math.Float64bits(p.Objective), uint64(0x4014397c2dd87e6f); got != want {
		t.Errorf("hierarchical objective = %#x, want %#x", got, want)
	}
	if got, want := effortDigest(p.Effort), uint64(0x33f685397198b6c3); got != want {
		t.Errorf("hierarchical effort digest = %#x, want %#x", got, want)
	}
	for _, post := range []int{-1, park.Grid.NumCells()} {
		if _, _, err := SolveHierarchical(context.Background(), park, post, smooth, cfg, 20); err == nil {
			t.Errorf("hierarchical post %d outside the park: want an error", post)
		}
	}
}
