package poach

import (
	"math"

	"paws/internal/geo"
	"paws/internal/rng"
)

// Waypoint is one GPS fix recorded by a ranger team. Consecutive waypoints
// of the same patrol are typically ~30 minutes apart; parks patrolled by
// motorbike record fewer fixes per km (Section III-A of the paper), which
// the simulator models with a larger RecordEvery.
type Waypoint struct {
	PatrolID int
	Seq      int
	Month    int
	X, Y     float64 // km coordinates in the park lattice frame
}

// PatrolConfig controls the ranger-walk simulator.
type PatrolConfig struct {
	PatrolsPerPostMonth int
	// LengthKM is the number of 1 km steps in one patrol.
	LengthKM int
	// RecordEvery records a waypoint every k steps (1 = every cell; larger
	// values model fast motorbike patrols with sparse fixes).
	RecordEvery int
	// RoadBias, AttractBias control the walk's preference for road cells and
	// for high-attractiveness cells (animal density).
	RoadBias    float64
	AttractBias float64
	// Roam scales the outbound push away from the patrol post (default
	// 0.15); larger values spread patrols over more distinct cells, as with
	// fast motorbike patrols.
	Roam float64
	// WetSeasonRiverBlock forbids crossing river cells in wet-season months
	// (SWS: rivers are impassable in the wet season).
	WetSeasonRiverBlock bool
}

// patrolWalk simulates one patrol starting and ending at a post. Each patrol
// draws a random sector target within half the patrol length of the post,
// heads toward it on the outbound leg, then returns — the sector-rotation
// behaviour that spreads real ranger patrols over many distinct cells.
//
// road and river are per-cell masks indexed by cell id. road marks the
// park's road cells; river marks its river cells when rivers are
// impassable this month and is nil when they are not. SimulatePatrolMonth
// builds both once and shares them across the month's patrols: a walk
// looks up only its steps' neighbours, while a park can hold thousands of
// road cells (6,738 at 10^5 cells), so building a mask per walk would cost
// more than the walk itself.
func patrolWalk(p *geo.Park, post int, cfg PatrolConfig, road, river []bool, r *rng.RNG) []int {
	attract := p.FeatureByName("animal_density")
	roam := cfg.Roam
	if roam <= 0 {
		roam = 0.15
	}

	// Random sector target: a park cell within half the patrol length.
	maxR := float64(cfg.LengthKM) / 2
	target := post
	for try := 0; try < 30; try++ {
		cand := r.Intn(p.Grid.NumCells())
		if d := p.Grid.EuclidKM(post, cand); d > 1 && d <= maxR {
			target = cand
			break
		}
	}

	path := []int{post}
	cur := post
	nbr := make([]int, 0, 8)
	half := cfg.LengthKM / 2
	for step := 1; step < cfg.LengthKM; step++ {
		nbr = p.Grid.Neighbors8(cur, nbr[:0])
		if len(nbr) == 0 {
			break
		}
		best := -1
		bestScore := math.Inf(-1)
		for _, n := range nbr {
			if river != nil && river[n] {
				continue
			}
			score := r.Float64()
			if road[n] {
				score += cfg.RoadBias
			}
			if attract != nil {
				score += cfg.AttractBias * attract.V[n]
			}
			if step < half {
				// Outbound: pull toward the sector target.
				score -= roam * p.Grid.EuclidKM(n, target)
			} else {
				// Return leg: pull back toward the post.
				score -= 0.3 * p.Grid.EuclidKM(n, post)
			}
			if score > bestScore {
				bestScore = score
				best = n
			}
		}
		if best < 0 {
			break
		}
		cur = best
		path = append(path, cur)
		if step >= half && cur == post {
			break
		}
	}
	return path
}

// SimulatePatrolMonth runs all patrols for one month and returns the raw
// waypoint stream plus the true per-cell effort (km walked in each cell).
// patrolIDBase offsets patrol identifiers so IDs are globally unique.
// It builds the walk's road mask, and in wet months under
// WetSeasonRiverBlock its river mask, once for all of the month's patrols
// (see patrolWalk).
func SimulatePatrolMonth(p *geo.Park, cfg PatrolConfig, month, patrolIDBase int, r *rng.RNG) ([]Waypoint, []float64) {
	effort := make([]float64, p.Grid.NumCells())
	var wps []Waypoint
	road := cellMask(p.Grid.NumCells(), p.Roads)
	var river []bool
	if cfg.WetSeasonRiverBlock && !DrySeason(month) {
		river = cellMask(p.Grid.NumCells(), p.Rivers)
	}
	pid := patrolIDBase
	for _, post := range p.Posts {
		for k := 0; k < cfg.PatrolsPerPostMonth; k++ {
			path := patrolWalk(p, post, cfg, road, river, r)
			prev := -1
			for step, cell := range path {
				// Effort: distance entering the cell (1 or √2 km).
				if prev >= 0 {
					effort[cell] += p.Grid.EuclidKM(prev, cell)
				}
				prev = cell
				if step%maxInt(cfg.RecordEvery, 1) == 0 || step == len(path)-1 {
					x, y := p.Grid.CellXY(cell)
					// Jitter the fix inside the cell.
					wps = append(wps, Waypoint{
						PatrolID: pid,
						Seq:      step,
						Month:    month,
						X:        float64(x) + r.Float64()*0.9,
						Y:        float64(y) + r.Float64()*0.9,
					})
				}
			}
			pid++
		}
	}
	return wps, effort
}

// cellMask returns a per-cell mask of length n that is true at ids.
func cellMask(n int, ids []int) []bool {
	mask := make([]bool, n)
	for _, id := range ids {
		mask[id] = true
	}
	return mask
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
