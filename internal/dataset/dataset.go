// Package dataset implements the data-processing layer of the PAWS pipeline
// (Section III-B of the paper): it rebuilds per-cell patrol effort from raw
// GPS waypoint streams, discretizes history into 3-month time steps (or
// 2-month dry-season steps for SWS), assembles the feature matrix
// X ∈ R^{T×N×k} — static geospatial features plus the previous-step patrol
// coverage covariate — and binary labels y, and computes the summary
// statistics of Table I and the positive-rate-vs-effort curves of Fig. 4.
//
// The layout is columnar: waypoints stream into the per-step effort and
// label rasters one month at a time, every T×N raster shares a single
// contiguous backing allocation, and feature vectors are views into one flat
// row-major matrix. Builds therefore stay cache-friendly and
// allocation-light up to million-cell parks (see BENCH_scale.json) without
// changing any output byte.
package dataset

import (
	"fmt"
	"math"
	"sort"

	"paws/internal/geo"
	"paws/internal/poach"
	"paws/internal/stats"
)

// BaseYear anchors simulated month 0; the paper's studies use test years
// 2014–2016 (Uganda) and 2016–2018 (Cambodia) over six years of history.
const BaseYear = 2013

// Config controls time discretization.
type Config struct {
	// MonthsPerStep is 3 for the standard quarterly discretization and 2 for
	// the SWS dry-season processing.
	MonthsPerStep int
	// DryOnly keeps only November–April months and groups them into steps
	// within each dry season (three 2-month steps per season).
	DryOnly bool
}

// StandardConfig is the quarterly discretization used for MFNP/QENP/SWS.
func StandardConfig() Config { return Config{MonthsPerStep: 3} }

// DrySeasonConfig is the SWS dry-season discretization (Section V-A).
func DrySeasonConfig() Config { return Config{MonthsPerStep: 2, DryOnly: true} }

// Step is one discretized time interval.
type Step struct {
	Year   int   // calendar year label used for train/test splits
	Months []int // simulated month indices composing the step
}

// Dataset is the processed view of a park's history. Its per-step rasters
// are views into two flat T×N backing arrays (one float64 block for effort,
// one bool block for labels) — the columnar layout that keeps 10^6-cell
// parks to a handful of allocations instead of one per step.
type Dataset struct {
	Park  *geo.Park
	Cfg   Config
	Steps []Step
	// Effort[t][cell] is patrol effort (km) rebuilt from waypoints. Rows are
	// contiguous slices of one backing array, in step order.
	Effort [][]float64
	// Label[t][cell] reports whether rangers recorded poaching in the cell.
	// Rows share one backing array like Effort.
	Label [][]bool
}

// Point is one (cell, step) training/test example. Features hold the static
// geospatial features followed by the previous-step patrol coverage; the
// current-step effort is kept separately because iWare-E uses it for
// filtering and qualification, never as a model input (Section III-B).
type Point struct {
	Step     int
	Cell     int
	Features []float64
	Effort   float64
	Label    int
}

// Build processes a simulated history into a dataset, rebuilding per-cell
// patrol effort from the raw GPS waypoint stream (the paper's Section III-B
// pipeline — the rebuilt effort is an approximation of the true path when
// waypoints are sparse). The waypoint stream is consumed in contiguous
// per-month chunks: histories recorded in month order (every simulator in
// this repo) are sliced in place with no copying or map regrouping, and
// unordered streams are grouped once by a stable counting sort — either way
// each month's chunk streams through RebuildEffortInto in recording order,
// so the rebuilt rasters are identical to the historical per-map grouping.
func Build(h *poach.History, cfg Config) (*Dataset, error) {
	wps, off := groupWaypointsByMonth(h.Waypoints, h.Months)
	return build(h, cfg, func(m int, dst []float64) {
		if m >= 0 && m < len(off)-1 {
			RebuildEffortInto(h.Park, wps[off[m]:off[m+1]], dst)
		}
	})
}

// groupWaypointsByMonth returns the waypoint stream arranged so that the
// waypoints of month m occupy wps[off[m]:off[m+1]], preserving recording
// order within each month. A stream already sorted by month — the layout
// every simulator in this repo produces — is returned as-is (a view, no
// copy); otherwise one stable counting-sort pass builds the arrangement.
// Waypoints with months outside [0, months) are dropped, matching the old
// map grouping (steps never query out-of-range months).
func groupWaypointsByMonth(stream []poach.Waypoint, months int) (wps []poach.Waypoint, off []int) {
	counts := make([]int, months+1)
	sorted := true
	prev := 0
	inRange := 0
	for _, w := range stream {
		if w.Month < prev {
			sorted = false
		}
		prev = w.Month
		if w.Month >= 0 && w.Month < months {
			counts[w.Month]++
			inRange++
		}
	}
	off = make([]int, months+1)
	for m := 0; m < months; m++ {
		off[m+1] = off[m] + counts[m]
	}
	if sorted && inRange == len(stream) {
		return stream, off
	}
	wps = make([]poach.Waypoint, inRange)
	next := append([]int(nil), off[:months]...)
	for _, w := range stream {
		if w.Month >= 0 && w.Month < months {
			wps[next[w.Month]] = w
			next[w.Month]++
		}
	}
	return wps, off
}

// BuildFromEffort processes a history using its per-month effort maps
// directly, skipping waypoint reconstruction. The closed-loop simulator
// (internal/env) executes patrols as effort maps rather than GPS streams, so
// its policies train on datasets built this way.
func BuildFromEffort(h *poach.History, cfg Config) (*Dataset, error) {
	return build(h, cfg, func(m int, dst []float64) {
		for id, e := range h.Effort[m] {
			dst[id] += e
		}
	})
}

// build assembles steps, accumulating each month's effort into the step
// raster via addEffort and labels from the poaching observations. The
// per-step effort and label rasters are carved out of two single T×N backing
// allocations, and each step streams its months through the shared raster —
// the chunked accumulation that replaces per-step makes and map lookups.
func build(h *poach.History, cfg Config, addEffort func(month int, dst []float64)) (*Dataset, error) {
	if cfg.MonthsPerStep <= 0 {
		return nil, fmt.Errorf("dataset: MonthsPerStep must be positive, got %d", cfg.MonthsPerStep)
	}
	steps := buildSteps(h.Months, cfg)
	if len(steps) == 0 {
		return nil, fmt.Errorf("dataset: no steps produced for %d months", h.Months)
	}
	d := &Dataset{Park: h.Park, Cfg: cfg, Steps: steps}
	n := h.Park.Grid.NumCells()
	T := len(steps)
	effBack := make([]float64, T*n)
	labBack := make([]bool, T*n)
	d.Effort = make([][]float64, T)
	d.Label = make([][]bool, T)
	// stepOf[m] is the step holding month m, or -1: buildSteps never puts a
	// month in two steps.
	stepOf := make([]int, h.Months)
	for m := range stepOf {
		stepOf[m] = -1
	}
	for t, st := range steps {
		eff := effBack[t*n : (t+1)*n : (t+1)*n]
		for _, m := range st.Months {
			addEffort(m, eff)
			stepOf[m] = t
		}
		d.Effort[t] = eff
		d.Label[t] = labBack[t*n : (t+1)*n : (t+1)*n]
	}
	// A label is an OR over one step and one cell, so observations may come
	// in any order. Writing through the step's own row keeps an out-of-range
	// cell id a panic, not a label in the next step.
	for _, o := range h.Observations {
		if o.Poaching && o.Month >= 0 && o.Month < h.Months {
			if t := stepOf[o.Month]; t >= 0 {
				d.Label[t][o.CellID] = true
			}
		}
	}
	return d, nil
}

// buildSteps maps simulated months into discretized steps.
func buildSteps(months int, cfg Config) []Step {
	var steps []Step
	if !cfg.DryOnly {
		for start := 0; start+cfg.MonthsPerStep <= months; start += cfg.MonthsPerStep {
			st := Step{Year: BaseYear + start/12}
			for m := start; m < start+cfg.MonthsPerStep; m++ {
				st.Months = append(st.Months, m)
			}
			steps = append(steps, st)
		}
		return steps
	}
	// Dry-season steps: for season ending in year y, the blocks are
	// (Nov,Dec) of y−1 and (Jan,Feb), (Mar,Apr) of y.
	years := (months + 11) / 12
	for y := 0; y <= years; y++ {
		blocks := [][]int{
			{(y-1)*12 + 10, (y-1)*12 + 11},
			{y * 12, y*12 + 1},
			{y*12 + 2, y*12 + 3},
		}
		for _, b := range blocks {
			var ms []int
			for _, m := range b {
				if m >= 0 && m < months {
					ms = append(ms, m)
				}
			}
			if len(ms) == len(b) { // only complete blocks
				steps = append(steps, Step{Year: BaseYear + y, Months: ms})
			}
		}
	}
	return steps
}

// RebuildEffortInto rasterizes straight-line trajectories between sequential
// waypoints of each patrol, accumulating km of effort per cell into dst.
// This reproduces the paper's "rebuild historical patrol effort ... by using
// sequential waypoints to calculate patrol trajectories": when waypoints are
// sparse (motorbike patrols), the rebuilt effort is an approximation of the
// true path.
func RebuildEffortInto(p *geo.Park, wps []poach.Waypoint, dst []float64) {
	if len(wps) == 0 {
		return
	}
	// Sort by patrol then sequence.
	sorted := append([]poach.Waypoint(nil), wps...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].PatrolID != sorted[b].PatrolID {
			return sorted[a].PatrolID < sorted[b].PatrolID
		}
		return sorted[a].Seq < sorted[b].Seq
	})
	const sample = 0.1 // km between trajectory samples
	for i := 1; i < len(sorted); i++ {
		a, b := sorted[i-1], sorted[i]
		if a.PatrolID != b.PatrolID {
			continue
		}
		dx, dy := b.X-a.X, b.Y-a.Y
		dist := math.Hypot(dx, dy)
		if dist == 0 {
			continue
		}
		nSamples := int(dist/sample) + 1
		per := dist / float64(nSamples)
		for s := 0; s < nSamples; s++ {
			t := (float64(s) + 0.5) / float64(nSamples)
			x, y := a.X+t*dx, a.Y+t*dy
			if id := p.Grid.CellID(int(x), int(y)); id >= 0 {
				dst[id] += per
			}
		}
	}
}

// NumFeatures returns the model feature count: static features plus the
// previous-step coverage covariate. This matches Table I's feature counts.
func (d *Dataset) NumFeatures() int { return d.Park.NumFeatures() + 1 }

// FeatureNames returns the ordered model feature names.
func (d *Dataset) FeatureNames() []string {
	out := append([]string(nil), d.Park.FeatureNames...)
	return append(out, "prev_coverage")
}

// PointsForSteps builds data points for steps in [from, to). Only patrolled
// (effort > 0) cell-steps become points; step 0 is skipped when it has no
// predecessor for the coverage covariate (its previous coverage is 0).
//
// The feature matrix is assembled columnar: one counting pass sizes a single
// flat backing array of stride NumFeatures(), then each Point.Features is
// filled in place as a view into it — no per-point slice allocation. Callers
// therefore must not grow a point's feature slice; reading and element
// writes behave exactly as before.
func (d *Dataset) PointsForSteps(from, to int) []Point {
	nf := d.Park.NumFeatures()
	lo := from
	if lo < 0 {
		lo = 0
	}
	hi := to
	if hi > len(d.Steps) {
		hi = len(d.Steps)
	}
	count := 0
	for t := lo; t < hi; t++ {
		for _, e := range d.Effort[t] {
			if e > 0 {
				count++
			}
		}
	}
	pts := make([]Point, 0, count)
	stride := nf + 1
	back := make([]float64, count*stride)
	k := 0
	for t := lo; t < hi; t++ {
		for cell, e := range d.Effort[t] {
			if e <= 0 {
				continue
			}
			f := back[k*stride : (k+1)*stride : (k+1)*stride]
			k++
			d.Park.FeatureVector(cell, f[:nf])
			if t > 0 {
				f[nf] = d.Effort[t-1][cell]
			}
			label := 0
			if d.Label[t][cell] {
				label = 1
			}
			pts = append(pts, Point{Step: t, Cell: cell, Features: f, Effort: e, Label: label})
		}
	}
	return pts
}

// AllPoints returns points for every step.
func (d *Dataset) AllPoints() []Point { return d.PointsForSteps(0, len(d.Steps)) }

// StepsForYear returns the step index range [from, to) whose Year == year.
func (d *Dataset) StepsForYear(year int) (from, to int) {
	from, to = -1, -1
	for i, st := range d.Steps {
		if st.Year == year {
			if from < 0 {
				from = i
			}
			to = i + 1
		}
	}
	return from, to
}

// Split holds a train/test division by calendar year.
type Split struct {
	TestYear int
	Train    []Point
	Test     []Point
}

// SplitByTestYear trains on the trainYears years preceding testYear and
// tests on testYear, mirroring the paper's protocol ("training on the first
// three years and testing on the fourth").
func (d *Dataset) SplitByTestYear(testYear, trainYears int) (Split, error) {
	testFrom, testTo := d.StepsForYear(testYear)
	if testFrom < 0 {
		return Split{}, fmt.Errorf("dataset: no steps for test year %d", testYear)
	}
	trainFrom, _ := d.StepsForYear(testYear - trainYears)
	if trainFrom < 0 {
		// Fall back to the earliest available step.
		trainFrom = 0
	}
	return Split{
		TestYear: testYear,
		Train:    d.PointsForSteps(trainFrom, testFrom),
		Test:     d.PointsForSteps(testFrom, testTo),
	}, nil
}

// Stats mirrors a column of Table I.
type Stats struct {
	Name        string
	NumFeatures int
	NumCells    int
	NumPoints   int
	NumPositive int
	PctPositive float64
	AvgEffortKM float64
}

// TableIStats computes the Table I row for this dataset.
func (d *Dataset) TableIStats(name string) Stats {
	pts := d.AllPoints()
	s := Stats{
		Name:        name,
		NumFeatures: d.NumFeatures(),
		NumCells:    d.Park.Grid.NumCells(),
		NumPoints:   len(pts),
	}
	var effSum float64
	for _, p := range pts {
		if p.Label == 1 {
			s.NumPositive++
		}
		effSum += p.Effort
	}
	if len(pts) > 0 {
		s.PctPositive = 100 * float64(s.NumPositive) / float64(len(pts))
		s.AvgEffortKM = effSum / float64(len(pts))
	}
	return s
}

// PositiveRateByEffortPercentile computes Fig. 4's series: for each effort
// percentile threshold, the percentage of positive labels among points whose
// effort is at least that percentile of the point-effort distribution.
func PositiveRateByEffortPercentile(pts []Point, percentiles []float64) []float64 {
	if len(pts) == 0 {
		return make([]float64, len(percentiles))
	}
	efforts := make([]float64, len(pts))
	for i, p := range pts {
		efforts[i] = p.Effort
	}
	sort.Float64s(efforts)
	out := make([]float64, len(percentiles))
	for k, pct := range percentiles {
		thr := stats.PercentileSorted(efforts, pct)
		var pos, tot int
		for _, p := range pts {
			if p.Effort >= thr {
				tot++
				if p.Label == 1 {
					pos++
				}
			}
		}
		if tot > 0 {
			out[k] = 100 * float64(pos) / float64(tot)
		}
	}
	return out
}

// EffortPercentileThresholds returns the effort values at I evenly spaced
// percentiles from 0 to pMax over the training points — the paper's
// enhancement of selecting iWare-E thresholds by percentile so every weak
// learner sees a consistent amount of data (Section IV).
func EffortPercentileThresholds(pts []Point, count int, pMax float64) []float64 {
	if count <= 0 {
		return nil
	}
	efforts := make([]float64, len(pts))
	for i, p := range pts {
		efforts[i] = p.Effort
	}
	sort.Float64s(efforts)
	out := make([]float64, count)
	for i := 0; i < count; i++ {
		var pct float64
		if count > 1 {
			pct = pMax * float64(i) / float64(count-1)
		}
		out[i] = stats.PercentileSorted(efforts, pct)
	}
	// Thresholds must be non-decreasing and start at 0 so the first learner
	// sees the full dataset.
	if len(out) > 0 {
		out[0] = 0
	}
	return out
}

// Labels extracts the label vector of a point slice.
func Labels(pts []Point) []int {
	out := make([]int, len(pts))
	for i, p := range pts {
		out[i] = p.Label
	}
	return out
}
