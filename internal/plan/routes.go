package plan

import (
	"errors"
	"fmt"
)

// Route is one executable patrol: a sequence of region-local cell indices,
// starting and ending at the post, with exactly T+1 entries (T moves).
type Route struct {
	// Cells are region-local indices; Cells[0] == Cells[len-1] == 0 (post).
	Cells []int
}

// ParkCells translates the route to park cell ids.
func (r Route) ParkCells(region *Region) []int {
	out := make([]int, len(r.Cells))
	for i, c := range r.Cells {
		out[i] = region.Cells[c]
	}
	return out
}

// ExtractRoutes decomposes a planned effort allocation into K executable
// patrol routes of T steps each. Rangers execute routes, not effort maps, so
// this is the deployment artifact (the paper hands rangers GPS coordinates
// of target areas).
//
// The decomposition is greedy: each route is the T-step closed walk from the
// post that collects the most remaining effort mass, where a cell's mass is
// consumed as routes visit it. For plans produced by Frank-Wolfe or the
// MILP, K routes reproduce the planned effort closely (exactly, when the
// plan is a single pure path).
func ExtractRoutes(region *Region, effort []float64, T int, K int) ([]Route, error) {
	if len(effort) != region.NumCells() {
		return nil, fmt.Errorf("plan: effort length %d want %d", len(effort), region.NumCells())
	}
	if T < 2 || K < 1 {
		return nil, errors.New("plan: need T ≥ 2 and K ≥ 1")
	}
	remaining := append([]float64(nil), effort...)
	var routes []Route
	for k := 0; k < K; k++ {
		route := bestEffortWalk(region, remaining, T)
		routes = append(routes, route)
		// Consume mass: every visit eats up to one unit of remaining effort
		// (efforts are in km ≈ one visit per km of planned presence).
		for _, c := range route.Cells[1:] {
			if remaining[c] > 1 {
				remaining[c] -= 1
			} else {
				remaining[c] = 0
			}
		}
	}
	return routes, nil
}

// bestEffortWalk finds a T-step closed walk from the post maximizing
// collected remaining effort with the Frank-Wolfe oracle's DP (longestWalk).
// Each visit to a cell collects min(remaining, 1) on first visit within the
// DP approximation (revisits collect the same score, a small overcount the
// consumption step corrects across routes).
func bestEffortWalk(region *Region, remaining []float64, T int) Route {
	reward := make([]float64, region.NumCells())
	for i, r := range remaining {
		reward[i] = min(r, 1)
	}
	cells := longestWalk(region, reward, T)
	if cells == nil {
		// Degenerate region: stay at the post.
		cells = make([]int, T+1)
	}
	return Route{Cells: cells}
}
