package poach

import (
	"testing"

	"paws/internal/geo"
)

func attackerTestTruth(t *testing.T) *GroundTruth {
	t.Helper()
	park, err := geo.GeneratePark(geo.ParkConfig{
		Name: "att", Seed: 5, W: 20, H: 20, TargetCells: 260,
		Shape: geo.ShapeRound, NumRivers: 2, NumRoads: 2, NumVillages: 2, NumPosts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	gt := NewGroundTruth(park, 0.35, 0, 0.3, 1.0)
	gt.Bias = -1
	return gt
}

// TestStaticAttackerMatchesGroundTruth pins the default behaviour: the
// static attacker is exactly the historical generative process.
func TestStaticAttackerMatchesGroundTruth(t *testing.T) {
	gt := attackerTestTruth(t)
	att, err := NewAttacker(gt, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := att.(*StaticAttacker); !ok {
		t.Fatalf("empty kind built %T, want *StaticAttacker", att)
	}
	n := gt.Park.Grid.NumCells()
	prev := make([]float64, n)
	for id := 0; id < n; id++ {
		prev[id] = float64(id%5) * 0.7
	}
	for _, month := range []int{0, 3, 14} {
		var p []float64
		if month > 0 {
			p = prev
		}
		att.BeginMonth(month, p)
		for id := 0; id < n; id += 17 {
			e := 0.0
			if p != nil {
				e = p[id]
			}
			if got, want := att.AttackLogit(id), gt.AttackLogit(id, month, e); got != want {
				t.Fatalf("month %d cell %d: static logit %v, ground truth %v", month, id, got, want)
			}
			if att.Displaced(id) {
				t.Fatalf("static attacker reported displacement at cell %d", id)
			}
		}
	}
}

// TestAdaptiveAttackerDeterrence: sustained effort on a cell must lower its
// attack logit, and more than a single month of the same effort would under
// the static model's one-month memory.
func TestAdaptiveAttackerDeterrence(t *testing.T) {
	gt := attackerTestTruth(t)
	att, err := NewAttacker(gt, AttackerAdaptive)
	if err != nil {
		t.Fatal(err)
	}
	n := gt.Park.Grid.NumCells()
	target := n / 2
	base := func() float64 {
		fresh, _ := NewAttacker(gt, AttackerAdaptive)
		fresh.BeginMonth(0, nil)
		return fresh.AttackLogit(target)
	}()
	eff := make([]float64, n)
	eff[target] = 2
	for m := 0; m < 6; m++ {
		att.BeginMonth(m, eff)
	}
	if got := att.AttackLogit(target); got >= base {
		t.Fatalf("sustained patrols did not deter: logit %v, unpatrolled %v", got, base)
	}
}

// TestAdaptiveAttackerDisplacement: heavy patrols on a blob push attack
// log-odds UP in the adjacent ring, and the ring reports Displaced.
func TestAdaptiveAttackerDisplacement(t *testing.T) {
	gt := attackerTestTruth(t)
	grid := gt.Park.Grid
	n := grid.NumCells()
	// Patrol a 3×3 blob around an interior cell.
	center := -1
	for id := 0; id < n; id++ {
		x, y := grid.CellXY(id)
		ok := true
		for dy := -3; dy <= 3 && ok; dy++ {
			for dx := -3; dx <= 3; dx++ {
				if grid.CellID(x+dx, y+dy) < 0 {
					ok = false
					break
				}
			}
		}
		if ok {
			center = id
			break
		}
	}
	if center < 0 {
		t.Fatal("no interior cell with a 7×7 neighbourhood")
	}
	cx, cy := grid.CellXY(center)
	eff := make([]float64, n)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			eff[grid.CellID(cx+dx, cy+dy)] = 4
		}
	}
	att, err := NewAttacker(gt, AttackerAdaptive)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 6; m++ {
		att.BeginMonth(m, eff)
	}
	ring := grid.CellID(cx+2, cy) // adjacent to the blob, unpatrolled
	adapt := att.AttackLogit(ring)
	static := gt.AttackLogit(ring, 5, 0)
	if adapt <= static {
		t.Fatalf("displacement did not raise the ring cell's logit: adaptive %v static %v", adapt, static)
	}
	if !att.Displaced(ring) {
		t.Fatal("ring cell not reported as displaced")
	}
	if att.Displaced(center) {
		t.Fatal("patrolled centre reported as displaced")
	}
}

func TestNewAttackerUnknownKind(t *testing.T) {
	gt := attackerTestTruth(t)
	if _, err := NewAttacker(gt, "quantum"); err == nil {
		t.Fatal("unknown attacker kind accepted")
	}
}

func TestRandomSimDeterministicAndSeasonal(t *testing.T) {
	cfg := geo.RandomConfig(9)
	a := RandomSim(cfg, 100)
	b := RandomSim(cfg, 200)
	// Park character derives from the park seed, not the history seed.
	a2 := a
	a2.Seed = b.Seed
	if a2 != b {
		t.Fatalf("RandomSim park character varies with history seed: %+v vs %+v", a, b)
	}
	seasonal := cfg
	seasonal.Seasonal = true
	if s := RandomSim(seasonal, 100); s.SeasonalAmp <= 0 || !s.Patrol.WetSeasonRiverBlock {
		t.Fatal("seasonal park did not get seasonal sim parameters")
	}
	plain := cfg
	plain.Seasonal = false
	if s := RandomSim(plain, 100); s.SeasonalAmp != 0 {
		t.Fatal("non-seasonal park got a seasonal amplitude")
	}
}

// TestAttackerCloneIsIndependent warms each attacker kind, clones it, and
// feeds the same further months to the clone and to an attacker warmed
// from scratch: their logits and displacement flags must agree bit for bit,
// and the months fed to the clone must leave the original's state as
// warmed.
func TestAttackerCloneIsIndependent(t *testing.T) {
	gt := attackerTestTruth(t)
	n := gt.Park.Grid.NumCells()
	effort := func(m int) []float64 {
		e := make([]float64, n)
		for id := range e {
			e[id] = float64((id*7+m*3)%5) * 0.6
		}
		return e
	}
	feed := func(a Attacker, from, to int) {
		for m := from; m < to; m++ {
			var prev []float64
			if m > 0 {
				prev = effort(m - 1)
			}
			a.BeginMonth(m, prev)
		}
	}
	same := func(t *testing.T, what string, a, b Attacker) {
		t.Helper()
		for id := 0; id < n; id++ {
			if a.AttackLogit(id) != b.AttackLogit(id) || a.Displaced(id) != b.Displaced(id) {
				t.Fatalf("%s: cell %d differs: logit %v vs %v", what, id, a.AttackLogit(id), b.AttackLogit(id))
			}
		}
	}
	for _, kind := range []string{AttackerStatic, AttackerAdaptive} {
		t.Run(kind, func(t *testing.T) {
			build := func() Attacker {
				a, err := NewAttacker(gt, kind)
				if err != nil {
					t.Fatal(err)
				}
				return a
			}
			warm, scratch, before := build(), build(), build()
			feed(warm, 0, 6)
			feed(before, 0, 6)
			clone := warm.Clone()
			feed(clone, 6, 10)
			feed(scratch, 0, 10)
			same(t, "clone vs scratch", clone, scratch)
			same(t, "original after the clone moved on", warm, before)
		})
	}
}
