package paws

import (
	"fmt"

	"paws/internal/geo"
	"paws/internal/poach"
)

// Scale selects between the paper's full-size parks and reduced variants
// that preserve each park's qualitative character (shape, seasonality,
// imbalance) at roughly 1/8 the cell count — used by benchmarks, examples
// and quick runs of the cmd tools.
type Scale int

const (
	// ScaleFull uses the Table I-calibrated presets (4,613 / 2,522 / 3,750
	// cells, 6 years of history).
	ScaleFull Scale = iota
	// ScaleSmall uses reduced parks (≈400–600 cells, 5 years).
	ScaleSmall
)

// ParseScale converts "full"/"small" to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "full":
		return ScaleFull, nil
	case "small":
		return ScaleSmall, nil
	}
	return 0, fmt.Errorf("paws: unknown scale %q (want full or small)", s)
}

// specConfigs resolves a full-scale park spec — a preset name or a
// rand:<seed> procedural spec — to its park and simulation configurations.
// Preset histories take their parameters from the paper's calibration;
// procedural parks derive theirs from the spec seed (poach.RandomSim).
func specConfigs(name string, seed int64) (geo.ParkConfig, poach.SimConfig, error) {
	if parkCfg, ok := geo.PresetByName(name, seed); ok {
		simCfg, _ := poach.SimByName(name, seed+1)
		return parkCfg, simCfg, nil
	}
	if parkCfg, ok, err := geo.ParseRandSpec(name); ok {
		if err != nil {
			return geo.ParkConfig{}, poach.SimConfig{}, err
		}
		return parkCfg, poach.RandomSim(parkCfg, seed+1), nil
	}
	return geo.ParkConfig{}, poach.SimConfig{}, fmt.Errorf("paws: unknown park spec %q (want %s)", name, geo.SpecHelp)
}

// ValidateParkSpec checks that name is a known park preset (MFNP, QENP,
// SWS) or a well-formed procedural "rand:<seed>" spec, without generating
// anything — the submit-time validation surface of the async job API.
func ValidateParkSpec(name string) error {
	_, _, err := specConfigs(name, 0)
	return err
}

// resolveConfigs is specConfigs honouring the scale: presets have reduced
// ScaleSmall variants, while procedural parks are already modest and ignore
// the scale.
func resolveConfigs(name string, scale Scale, seed int64) (geo.ParkConfig, poach.SimConfig, error) {
	if scale == ScaleSmall && !geo.IsRandSpec(name) {
		return smallConfigs(name, seed)
	}
	return specConfigs(name, seed)
}

// smallConfigs mirrors the presets at reduced size.
func smallConfigs(name string, seed int64) (geo.ParkConfig, poach.SimConfig, error) {
	switch name {
	case "MFNP":
		return geo.ParkConfig{
				Name: "MFNP-small", Seed: seed, W: 34, H: 34, TargetCells: 580,
				Shape: geo.ShapeRound, NumRivers: 3, NumRoads: 3, NumVillages: 4,
				NumPosts: 4, ExtraFeatures: 4,
			}, poach.SimConfig{
				Seed: seed + 1, Months: 60,
				Patrol: poach.PatrolConfig{
					PatrolsPerPostMonth: 4, LengthKM: 12, RecordEvery: 1,
					RoadBias: 0.25, AttractBias: 0.6,
				},
				TargetPositiveRate: 0.143, Deterrence: 0.35,
				DetectLambda: 0.35, HiddenAmp: 1.8, TemporalNoise: 1.2, SignalGain: 1.9,
				NonPoachingRate: 0.10,
			}, nil
	case "QENP":
		return geo.ParkConfig{
				Name: "QENP-small", Seed: seed, W: 44, H: 18, TargetCells: 400,
				Shape: geo.ShapeElongated, NumRivers: 2, NumRoads: 3, NumVillages: 3,
				NumPosts: 4, ExtraFeatures: 3,
			}, poach.SimConfig{
				Seed: seed + 1, Months: 60,
				Patrol: poach.PatrolConfig{
					PatrolsPerPostMonth: 5, LengthKM: 12, RecordEvery: 1,
					RoadBias: 0.3, AttractBias: 0.5,
				},
				TargetPositiveRate: 0.047, Deterrence: 0.35,
				DetectLambda: 0.35, HiddenAmp: 1.7, TemporalNoise: 1.2, SignalGain: 1.9,
				NonPoachingRate: 0.10,
			}, nil
	case "SWS":
		return geo.ParkConfig{
				Name: "SWS-small", Seed: seed, W: 32, H: 31, TargetCells: 480,
				Shape: geo.ShapeIrregular, NumRivers: 3, NumRoads: 2, NumVillages: 3,
				NumPosts: 3, ExtraFeatures: 4, Seasonal: true,
			}, poach.SimConfig{
				Seed: seed + 1, Months: 60,
				Patrol: poach.PatrolConfig{
					PatrolsPerPostMonth: 8, LengthKM: 28, RecordEvery: 3,
					RoadBias: 0.5, AttractBias: 0.35, WetSeasonRiverBlock: true,
				},
				TargetPositiveRate: 0.012, Deterrence: 0.25, SeasonalAmp: 0.8,
				DetectLambda: 0.18, HiddenAmp: 1.8, TemporalNoise: 1.3, SignalGain: 3.2,
				NonPoachingRate: 0.05,
			}, nil
	}
	return geo.ParkConfig{}, poach.SimConfig{}, fmt.Errorf("paws: unknown park %q (want %s)", name, geo.SpecHelp)
}

// TrainOptionsAt returns paper-flavoured training options for a park at a
// scale: 20 thresholds for the Uganda parks and 10 for SWS (Section IV),
// balanced bagging for SWS (Section V-A), scaled down for ScaleSmall.
func TrainOptionsAt(park string, kind ModelKind, scale Scale, seed int64) TrainOptions {
	o := TrainOptions{Kind: kind, Seed: seed}
	switch park {
	case "SWS":
		o.Thresholds = 10
		o.Balanced = true
	default:
		o.Thresholds = 20
	}
	if scale == ScaleSmall {
		o.Thresholds = min(o.Thresholds, 6)
		o.Members = 5
		o.GPMaxTrain = 80
	} else {
		o.Members = 8
		o.GPMaxTrain = 120
	}
	return o
}
