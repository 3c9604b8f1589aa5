package dataset

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"paws/internal/geo"
	"paws/internal/poach"
	"paws/internal/rng"
)

func testPark(t *testing.T) *geo.Park {
	t.Helper()
	cfg := geo.ParkConfig{
		Name: "TEST", Seed: 21, W: 24, H: 24, TargetCells: 420,
		Shape: geo.ShapeRound, NumRivers: 2, NumRoads: 2, NumVillages: 3,
		NumPosts: 3, ExtraFeatures: 2,
	}
	p, err := geo.GeneratePark(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testHistory(t *testing.T, park *geo.Park, months int) *poach.History {
	t.Helper()
	cfg := poach.SimConfig{
		Seed:   31,
		Months: months,
		Patrol: poach.PatrolConfig{
			PatrolsPerPostMonth: 3, LengthKM: 10, RecordEvery: 1,
			RoadBias: 0.3, AttractBias: 0.5,
		},
		TargetPositiveRate: 0.12,
		Deterrence:         0.3,
		DetectLambda:       0.5,
		NonPoachingRate:    0.05,
	}
	h, err := poach.Simulate(park, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestBuildStepsQuarterly(t *testing.T) {
	steps := buildSteps(24, StandardConfig())
	if len(steps) != 8 {
		t.Fatalf("24 months should give 8 quarters, got %d", len(steps))
	}
	if steps[0].Year != BaseYear || steps[4].Year != BaseYear+1 {
		t.Fatalf("year labels wrong: %v, %v", steps[0].Year, steps[4].Year)
	}
	for _, st := range steps {
		if len(st.Months) != 3 {
			t.Fatalf("quarter with %d months", len(st.Months))
		}
	}
}

func TestBuildStepsDrySeason(t *testing.T) {
	steps := buildSteps(24, DrySeasonConfig())
	// Months 0..23: complete dry blocks are (0,1),(2,3) [season year 0],
	// (10,11),(12,13),(14,15) [season year 1], (22,23) [season year 2].
	if len(steps) != 6 {
		t.Fatalf("expected 6 dry steps, got %d: %+v", len(steps), steps)
	}
	for _, st := range steps {
		if len(st.Months) != 2 {
			t.Fatalf("dry step with %d months", len(st.Months))
		}
		for _, m := range st.Months {
			if !poach.DrySeason(m) {
				t.Fatalf("dry step contains wet month %d", m)
			}
		}
	}
	// A full interior season has exactly 3 steps with the same year.
	count := 0
	for _, st := range steps {
		if st.Year == BaseYear+1 {
			count++
		}
	}
	if count != 3 {
		t.Fatalf("interior season should have 3 steps, got %d", count)
	}
}

func TestRebuildEffortStraightLine(t *testing.T) {
	park := testPark(t)
	// One patrol with two waypoints 5 km apart horizontally, inside the park.
	// Find a row of in-park cells.
	g := park.Grid
	var y0, x0 int
	found := false
	for y := 0; y < g.H && !found; y++ {
		run := 0
		for x := 0; x < g.W; x++ {
			if g.InPark(x, y) {
				run++
				if run >= 6 {
					y0, x0 = y, x-5
					found = true
					break
				}
			} else {
				run = 0
			}
		}
	}
	if !found {
		t.Skip("no 6-cell run found")
	}
	wps := []poach.Waypoint{
		{PatrolID: 1, Seq: 0, Month: 0, X: float64(x0) + 0.5, Y: float64(y0) + 0.5},
		{PatrolID: 1, Seq: 1, Month: 0, X: float64(x0) + 5.5, Y: float64(y0) + 0.5},
	}
	eff := make([]float64, g.NumCells())
	RebuildEffortInto(park, wps, eff)
	var total float64
	for _, e := range eff {
		total += e
	}
	if math.Abs(total-5.0) > 0.1 {
		t.Fatalf("rebuilt total effort %v want ≈5", total)
	}
	// The interior cells of the segment should each carry ≈1 km.
	mid := g.CellID(x0+2, y0)
	if eff[mid] < 0.8 || eff[mid] > 1.2 {
		t.Fatalf("mid-cell effort %v want ≈1", eff[mid])
	}
}

func TestRebuildEffortSeparatePatrols(t *testing.T) {
	park := testPark(t)
	g := park.Grid
	x, y := g.CellXY(0)
	// Two waypoints with different patrol IDs: no segment between them.
	wps := []poach.Waypoint{
		{PatrolID: 1, Seq: 0, X: float64(x) + 0.5, Y: float64(y) + 0.5},
		{PatrolID: 2, Seq: 0, X: float64(x) + 10.5, Y: float64(y) + 0.5},
	}
	eff := make([]float64, g.NumCells())
	RebuildEffortInto(park, wps, eff)
	var total float64
	for _, e := range eff {
		total += e
	}
	if total != 0 {
		t.Fatalf("no intra-patrol segments, effort should be 0, got %v", total)
	}
}

func TestBuildDataset(t *testing.T) {
	park := testPark(t)
	h := testHistory(t, park, 48)
	d, err := Build(h, StandardConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Steps) != 16 {
		t.Fatalf("48 months → 16 quarters, got %d", len(d.Steps))
	}
	if d.NumFeatures() != park.NumFeatures()+1 {
		t.Fatal("feature count must include prev coverage")
	}
	names := d.FeatureNames()
	if names[len(names)-1] != "prev_coverage" {
		t.Fatal("last feature must be prev_coverage")
	}
	// Rebuilt effort should roughly match the hidden truth per step.
	for ti, st := range d.Steps[:4] {
		var trueTotal, rebuiltTotal float64
		for _, m := range st.Months {
			for _, e := range h.Effort[m] {
				trueTotal += e
			}
		}
		for _, e := range d.Effort[ti] {
			rebuiltTotal += e
		}
		if trueTotal == 0 {
			continue
		}
		ratio := rebuiltTotal / trueTotal
		if ratio < 0.7 || ratio > 1.3 {
			t.Fatalf("step %d: rebuilt/true effort ratio %v", ti, ratio)
		}
	}
}

// TestBuildIgnoresStreamOrder shuffles a history's waypoint and observation
// streams, which simulators write month-sorted: Build must give back the
// sorted build's Effort and Label rasters bit for bit, for quarterly steps
// and for dry-season steps that leave months out.
func TestBuildIgnoresStreamOrder(t *testing.T) {
	park := testPark(t)
	h := testHistory(t, park, 48)
	shuffled := *h
	shuffled.Waypoints = slices.Clone(h.Waypoints)
	shuffled.Observations = slices.Clone(h.Observations)
	r := rng.New(5)
	r.Shuffle(len(shuffled.Waypoints), func(i, j int) {
		shuffled.Waypoints[i], shuffled.Waypoints[j] = shuffled.Waypoints[j], shuffled.Waypoints[i]
	})
	r.Shuffle(len(shuffled.Observations), func(i, j int) {
		shuffled.Observations[i], shuffled.Observations[j] = shuffled.Observations[j], shuffled.Observations[i]
	})
	for _, cfg := range []Config{StandardConfig(), DrySeasonConfig()} {
		want, err := Build(h, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Build(&shuffled, cfg)
		if err != nil {
			t.Fatal(err)
		}
		labels := 0
		for ti := range want.Steps {
			for cell, e := range want.Effort[ti] {
				if math.Float64bits(got.Effort[ti][cell]) != math.Float64bits(e) {
					t.Fatalf("%+v step %d cell %d: shuffled effort %v, sorted %v", cfg, ti, cell, got.Effort[ti][cell], e)
				}
				if got.Label[ti][cell] != want.Label[ti][cell] {
					t.Fatalf("%+v step %d cell %d: shuffled label %v, sorted %v", cfg, ti, cell, got.Label[ti][cell], want.Label[ti][cell])
				}
				if want.Label[ti][cell] {
					labels++
				}
			}
		}
		if labels == 0 {
			t.Fatalf("%+v: no positive labels to compare", cfg)
		}
	}
}

func TestPointsOnlyPatrolledCells(t *testing.T) {
	park := testPark(t)
	h := testHistory(t, park, 24)
	d, err := Build(h, StandardConfig())
	if err != nil {
		t.Fatal(err)
	}
	pts := d.AllPoints()
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	sawPositive := false
	for _, p := range pts {
		if p.Effort <= 0 {
			t.Fatal("point with zero effort")
		}
		if len(p.Features) != d.NumFeatures() {
			t.Fatal("wrong feature length")
		}
		if p.Label == 1 {
			sawPositive = true
		}
		if p.Step > 0 {
			want := d.Effort[p.Step-1][p.Cell]
			if p.Features[len(p.Features)-1] != want {
				t.Fatal("prev_coverage feature mismatch")
			}
		}
	}
	if !sawPositive {
		t.Fatal("expected some positive labels")
	}
}

func TestSplitByTestYear(t *testing.T) {
	park := testPark(t)
	h := testHistory(t, park, 48) // 4 years: 2013–2016
	d, err := Build(h, StandardConfig())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := d.SplitByTestYear(BaseYear+3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Train) == 0 || len(sp.Test) == 0 {
		t.Fatal("empty split")
	}
	for _, p := range sp.Test {
		if d.Steps[p.Step].Year != BaseYear+3 {
			t.Fatal("test point outside test year")
		}
	}
	for _, p := range sp.Train {
		if d.Steps[p.Step].Year >= BaseYear+3 {
			t.Fatal("train point leaks into test year")
		}
	}
	if _, err := d.SplitByTestYear(BaseYear+10, 3); err == nil {
		t.Fatal("expected error for missing year")
	}
}

func TestTableIStats(t *testing.T) {
	park := testPark(t)
	h := testHistory(t, park, 24)
	d, err := Build(h, StandardConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := d.TableIStats("TEST")
	if s.NumCells != park.Grid.NumCells() {
		t.Fatal("cell count wrong")
	}
	if s.NumPoints == 0 || s.NumPositive == 0 {
		t.Fatal("empty stats")
	}
	if s.PctPositive <= 0 || s.PctPositive >= 100 {
		t.Fatalf("pct positive %v", s.PctPositive)
	}
	if s.AvgEffortKM <= 0 {
		t.Fatal("avg effort must be positive")
	}
	if s.NumFeatures != park.NumFeatures()+1 {
		t.Fatal("feature count wrong")
	}
}

func TestPositiveRateByEffortPercentileMonotoneTrend(t *testing.T) {
	park := testPark(t)
	h := testHistory(t, park, 48)
	d, err := Build(h, StandardConfig())
	if err != nil {
		t.Fatal(err)
	}
	pts := d.AllPoints()
	percentiles := []float64{0, 20, 40, 60, 80}
	rates := PositiveRateByEffortPercentile(pts, percentiles)
	if len(rates) != len(percentiles) {
		t.Fatal("length mismatch")
	}
	// The detection model makes positives concentrate at high effort, so the
	// rate at the 80th percentile should exceed the base rate.
	if rates[4] <= rates[0] {
		t.Fatalf("positive rate should increase with effort percentile: %v", rates)
	}
	if got := PositiveRateByEffortPercentile(nil, percentiles); len(got) != len(percentiles) {
		t.Fatal("empty input should give zero-filled output")
	}
}

func TestEffortPercentileThresholds(t *testing.T) {
	pts := []Point{{Effort: 1}, {Effort: 2}, {Effort: 3}, {Effort: 4}, {Effort: 10}}
	thr := EffortPercentileThresholds(pts, 5, 80)
	if len(thr) != 5 {
		t.Fatal("wrong count")
	}
	if thr[0] != 0 {
		t.Fatal("first threshold must be 0 (full data)")
	}
	for i := 1; i < len(thr); i++ {
		if thr[i] < thr[i-1] {
			t.Fatalf("thresholds must be non-decreasing: %v", thr)
		}
	}
	if EffortPercentileThresholds(pts, 0, 80) != nil {
		t.Fatal("zero count should give nil")
	}
}

func TestLabels(t *testing.T) {
	pts := []Point{{Label: 1}, {Label: 0}, {Label: 1}}
	l := Labels(pts)
	if len(l) != 3 || l[0] != 1 || l[1] != 0 || l[2] != 1 {
		t.Fatalf("Labels = %v", l)
	}
}

func TestWritePointsCSV(t *testing.T) {
	park := testPark(t)
	h := testHistory(t, park, 12)
	d, err := Build(h, StandardConfig())
	if err != nil {
		t.Fatal(err)
	}
	pts := d.AllPoints()
	var buf bytes.Buffer
	if err := d.WritePointsCSV(&buf, pts[:min(5, len(pts))]); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != min(5, len(pts))+1 {
		t.Fatalf("expected header + %d rows, got %d lines", min(5, len(pts)), len(lines))
	}
	if !strings.HasPrefix(lines[0], "step,cell,label,effort") {
		t.Fatalf("bad header: %s", lines[0])
	}
}

func TestWriteRasterCSV(t *testing.T) {
	park := testPark(t)
	h := testHistory(t, park, 12)
	d, err := Build(h, StandardConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteRasterCSV(&buf, d.Effort[0]); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != park.Grid.NumCells()+1 {
		t.Fatalf("raster CSV rows = %d want %d", len(lines), park.Grid.NumCells()+1)
	}
	if err := d.WriteRasterCSV(&buf, []float64{1}); err == nil {
		t.Fatal("expected length error")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestBuildFromEffort(t *testing.T) {
	park := testPark(t)
	h := testHistory(t, park, 12)
	d, err := BuildFromEffort(h, StandardConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Steps) != 4 {
		t.Fatalf("steps = %d, want 4", len(d.Steps))
	}
	// Step effort must be the exact sum of the history's true monthly effort
	// (no waypoint-reconstruction error), labels the union of detections.
	n := park.Grid.NumCells()
	for ti, st := range d.Steps {
		for cell := 0; cell < n; cell++ {
			var want float64
			for _, m := range st.Months {
				want += h.Effort[m][cell]
			}
			if math.Abs(d.Effort[ti][cell]-want) > 1e-12 {
				t.Fatalf("step %d cell %d: effort %v, true sum %v", ti, cell, d.Effort[ti][cell], want)
			}
		}
	}
	var labels int
	for ti := range d.Steps {
		for cell := 0; cell < n; cell++ {
			if d.Label[ti][cell] {
				labels++
			}
		}
	}
	if labels == 0 {
		t.Fatal("no positive labels carried over from observations")
	}
	// A waypoint-free history (the closed-loop simulator's shape) must work.
	bare := &poach.History{Park: park, Months: h.Months, Effort: h.Effort, Observations: h.Observations}
	d2, err := BuildFromEffort(bare, StandardConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.AllPoints()) != len(d.AllPoints()) {
		t.Fatal("waypoint-free history built a different dataset")
	}
}
