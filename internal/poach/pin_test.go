package poach

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"paws/internal/geo"
	"paws/internal/mat/exptest"
)

// presetBuild returns a preset park (seed 7) and its history settings
// (seed 7) cut to 24 months.
func presetBuild(name string) (geo.ParkConfig, SimConfig) {
	park, _ := geo.PresetByName(name, 7)
	sim, _ := SimByName(name, 7)
	sim.Months = 24
	return park, sim
}

// buildDigest hashes every bit of a scenario build: the park's cells,
// feature rasters and landmark ids, then the history's waypoints,
// per-month effort, attack and detection flags, observations and the
// calibrated attack bias.
func buildDigest(p *geo.Park, h *History) string {
	sum := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		sum.Write(buf[:])
	}
	i64 := func(v int) { u64(uint64(int64(v))) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	flag := func(v bool) {
		if v {
			u64(1)
		} else {
			u64(0)
		}
	}
	ints := func(ids []int) {
		i64(len(ids))
		for _, id := range ids {
			i64(id)
		}
	}

	i64(p.Grid.NumCells())
	for id := 0; id < p.Grid.NumCells(); id++ {
		i64(p.Grid.LatticeIndex(id))
	}
	for j := 0; j < p.NumFeatures(); j++ {
		sum.Write([]byte(p.FeatureNames[j]))
		for _, v := range p.Feature(j).V {
			f64(v)
		}
	}
	for _, v := range p.NorthSouth.V {
		f64(v)
	}
	ints(p.Rivers)
	ints(p.Roads)
	ints(p.Villages)
	ints(p.Posts)

	i64(len(h.Waypoints))
	for _, w := range h.Waypoints {
		i64(w.PatrolID)
		i64(w.Seq)
		i64(w.Month)
		f64(w.X)
		f64(w.Y)
	}
	for m := 0; m < h.Months; m++ {
		for _, e := range h.Effort[m] {
			f64(e)
		}
		for id := range h.Attacked[m] {
			flag(h.Attacked[m][id])
			flag(h.Detected[m][id])
		}
	}
	i64(len(h.Observations))
	for _, o := range h.Observations {
		i64(o.Month)
		i64(o.CellID)
		flag(o.Poaching)
	}
	f64(h.Truth.Bias)
	return hex.EncodeToString(sum.Sum(nil))
}

// TestScenarioBuildPinned pins GeneratePark and Simulate bit for bit on
// three parks: the MFNP and SWS presets over 24 months (SWS blocks rivers
// in the wet season) and a 10^4-cell procedural park. The CLI goldens
// reach these bytes only through Table I and the sims, so a speed-up of
// the walk, the distance transforms or the noise must leave these digests
// unchanged. The digests were recorded before the walk took road and river
// masks and the distance transform took a typed heap. The simulation calls
// math.Exp, whose bits depend on which path of its amd64 algorithm it
// takes, so each build has one digest per path (fused, then plain; the
// plain ones recorded under GODEBUG=cpu.fma=off), and the test asks
// exptest which path math.Exp takes here: exactly one applies.
func TestScenarioBuildPinned(t *testing.T) {
	mfnpPark, mfnpSim := presetBuild("MFNP")
	swsPark, swsSim := presetBuild("SWS")
	randPark := geo.RandomConfigSized(7, 10_000)
	randSim := RandomSim(randPark, 8)
	randSim.Months = 24
	cases := []struct {
		name         string
		park         geo.ParkConfig
		sim          SimConfig
		fused, plain string
	}{
		{"MFNP", mfnpPark, mfnpSim,
			"dbb99cfe11a4ec1f285d483a6ff32c5b951bdf31fb0ca3fde8d5895e35e64cb0",
			"a083c78da7241ea3ad2765e55cbed1f0c1863b1a0f665b73a3d5f5b8123a7ec5"},
		{"SWS", swsPark, swsSim,
			"3dad8341a2105b2fa1b1079802f13439e7618fbcd1d9e223369826e3b1ec9e9d",
			"553d0b841b6e1b07102f2b4e57ebbc1af3d2ae18ecdedd48945fca9d58e0bbdf"},
		{"rand-7@10000", randPark, randSim,
			"8c7e9f9e99f386b8a9bc8de8d3030a80ae51ccfb3aeb59f1fb51f4fa4fe5aa78",
			"6bf0279773fafba1e75088538d436f181efea52c67d899497bc9c37b45e8f59d"},
	}
	fused := exptest.MathExpFused(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := c.plain
			if fused {
				want = c.fused
			}
			p, err := geo.GeneratePark(c.park)
			if err != nil {
				t.Fatal(err)
			}
			h, err := Simulate(p, c.sim)
			if err != nil {
				t.Fatal(err)
			}
			if got := buildDigest(p, h); got != want {
				t.Errorf("build digest %s, want %s", got, want)
			}
		})
	}
}

// TestWetSeasonRiverBlock checks that WetSeasonRiverBlock keeps every walk
// off river cells in wet months, and that walks do cross rivers in dry
// months, so the check cannot pass on a park its patrols never reach.
func TestWetSeasonRiverBlock(t *testing.T) {
	swsPark, swsSim := presetBuild("SWS")
	mfnpPark, mfnpSim := presetBuild("MFNP")
	mfnpSim.Patrol.WetSeasonRiverBlock = true
	for _, c := range []struct {
		park geo.ParkConfig
		sim  SimConfig
	}{{swsPark, swsSim}, {mfnpPark, mfnpSim}} {
		t.Run(c.park.Name, func(t *testing.T) {
			p, err := geo.GeneratePark(c.park)
			if err != nil {
				t.Fatal(err)
			}
			h, err := Simulate(p, c.sim)
			if err != nil {
				t.Fatal(err)
			}
			wet, dry := 0, 0
			for m := 0; m < h.Months; m++ {
				for _, id := range p.Rivers {
					if h.Effort[m][id] == 0 {
						continue
					}
					if DrySeason(m) {
						dry++
					} else {
						wet++
					}
				}
			}
			t.Logf("river cell-months with effort: %d wet, %d dry", wet, dry)
			if wet != 0 {
				t.Errorf("%d river cell-months have effort in wet months", wet)
			}
			if dry == 0 {
				t.Error("no river cell has effort in a dry month")
			}
		})
	}
}
