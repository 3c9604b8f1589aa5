package paws

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"paws/internal/dataset"
	"paws/internal/ml"
	"paws/internal/ml/bagging"
	"paws/internal/ml/tree"
	"paws/internal/store"
)

// FuzzLoadModelBytes: LoadModelBytes never panics, and a model it returns
// answers PredictWithVariance on a zero row of its own width, at an effort
// that qualifies every rung, without panicking.
func FuzzLoadModelBytes(f *testing.F) {
	// Every fuzz worker trains the seeds under coverage instrumentation, so
	// they train small: every 8th point, two members, two rungs.
	all := smallScenario(f, 37, false).Data.AllPoints()
	var pts []dataset.Point
	for i := 0; i < len(all); i += 8 {
		pts = append(pts, all[i])
	}
	for _, kind := range []ModelKind{DTB, SVB, GPBiW} {
		m, err := NewService().Train(context.Background(), pts, append(quickOpts(kind, 47),
			WithEnsembleSize(2), WithThresholds(2), WithGPMaxTrain(12), WithTreeDepth(3))...)
		if err != nil {
			f.Fatal(err)
		}
		b, err := m.SaveBytes()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := LoadModelBytes(b)
		// A tree's width is a free integer in its encoding; skip probe rows
		// too large to allocate.
		if err != nil || m.NumFeatures() > 1<<16 {
			return
		}
		m.PredictWithVariance(make([]float64, m.NumFeatures()), math.Inf(1))
	})
}

// gobBytes stands in for a model component whose gob image a test builds by
// hand: gob records only that the field is GobEncoder-encoded, so the real
// decoder reads these bytes as that component's image.
type gobBytes []byte

func (b gobBytes) GobEncode() ([]byte, error) { return b, nil }

// Hand-built images of the envelope, a bagging ensemble and an iWare-E
// ladder. Gob matches struct fields by name; omitted fields decode as zero.
type (
	envelopeImage struct {
		Kind        ModelKind
		NumFeatures int
		Plain, IW   gobBytes
	}
	ensembleImage struct {
		Members       []ml.Classifier
		InBag         [][]int
		NTrain        int
		OddsInflation float64
	}
	ladderImage struct {
		Thresholds  []float64
		Classifiers []ml.Classifier
		Weights     []float64
	}
)

func gobImage(t *testing.T, v any) gobBytes {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// imageBlob frames an envelope image as a model file.
func imageBlob(t *testing.T, env envelopeImage) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(persistMagic)
	binary.Write(&buf, binary.BigEndian, uint32(PersistVersion))
	return append(buf.Bytes(), gobImage(t, env)...)
}

// widthTree fits a one-split tree on width-wide rows.
func widthTree(t *testing.T, width int) *tree.Tree {
	t.Helper()
	X := [][]float64{make([]float64, width), make([]float64, width)}
	X[1][0] = 1
	tr := tree.New(tree.Config{})
	if err := tr.Fit(X, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestLoadModelRejectsCorruptState feeds LoadModelBytes model files with one
// ensemble-, ladder- or header-level inconsistency each — states Save never
// writes. Each must fail with ErrBadModelFile. The learners' own checks are
// covered by their packages' decoder tests.
func TestLoadModelRejectsCorruptState(t *testing.T) {
	w2, w3 := widthTree(t, 2), widthTree(t, 3)
	plain := func(nf int, e ensembleImage) envelopeImage {
		return envelopeImage{Kind: DTB, NumFeatures: nf, Plain: gobImage(t, e)}
	}
	ladder := func(nf int, thresholds []float64, cs ...ml.Classifier) envelopeImage {
		l := ladderImage{Thresholds: thresholds, Classifiers: cs, Weights: []float64{0.5, 0.5}}
		return envelopeImage{Kind: DTBiW, NumFeatures: nf, IW: gobImage(t, l)}
	}
	bag := func(members ...ml.Classifier) ensembleImage {
		inBag := make([][]int, len(members))
		for i := range inBag {
			inBag[i] = []int{1, 1}
		}
		return ensembleImage{Members: members, InBag: inBag, NTrain: 2, OddsInflation: 1}
	}
	// Well-formed images load, so each case below fails on its one defect.
	for _, env := range []envelopeImage{plain(2, bag(w2, w2)), ladder(2, []float64{0, 1}, w2, w2)} {
		m, err := LoadModelBytes(imageBlob(t, env))
		if err != nil {
			t.Fatalf("well-formed image rejected: %v", err)
		}
		m.PredictWithVariance([]float64{0, 1}, 1)
	}
	short := bag(w2)
	short.InBag[0] = []int{1}
	for _, c := range []struct {
		name string
		env  envelopeImage
	}{
		{"ensemble without members", plain(2, ensembleImage{OddsInflation: 1})},
		{"in-bag rows short of members", plain(2, ensembleImage{Members: []ml.Classifier{w2}, NTrain: 2, OddsInflation: 1})},
		{"in-bag row short of the training set", plain(2, short)},
		{"members of two widths", plain(2, bag(w2, w3))},
		{"header width off the ensemble's", plain(3, bag(w2, w2))},
		{"thresholds descending", ladder(2, []float64{1, 0}, w2, w2)},
		{"thresholds NaN", ladder(2, []float64{0, math.NaN()}, w2, w2)},
		{"rungs of two widths", ladder(2, []float64{0, 1}, w2, w3)},
		{"header width off the ladder's", ladder(3, []float64{0, 1}, w2, w2)},
	} {
		if _, err := LoadModelBytes(imageBlob(t, c.env)); !errors.Is(err, ErrBadModelFile) {
			t.Errorf("%s: err = %v, want ErrBadModelFile", c.name, err)
		}
	}
}

// TestModelPersistenceRoundTrip is the golden persistence contract: for all
// six ModelKinds, save → load must reproduce the exact prediction floats of
// the original model — batch, pointwise, and with-variance paths.
func TestModelPersistenceRoundTrip(t *testing.T) {
	sc := smallScenario(t, 31, false)
	year := sc.Data.Steps[len(sc.Data.Steps)-1].Year
	split, err := sc.Data.SplitByTestYear(year, 3)
	if err != nil {
		t.Fatal(err)
	}
	X := make([][]float64, len(split.Test))
	for i, p := range split.Test {
		X[i] = p.Features
	}
	efforts := []float64{0, 0.7, 1.5, 3.2}
	for _, kind := range []ModelKind{SVB, DTB, GPB, SVBiW, DTBiW, GPBiW} {
		t.Run(kind.String(), func(t *testing.T) {
			opts := quickOpts(kind, 41)
			if kind.IsIWare() {
				opts = append(opts, WithCVFolds(2)) // non-uniform weights must survive the trip
			}
			m, err := NewService().Train(context.Background(), split.Train, opts...)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadModel(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Kind != kind {
				t.Fatalf("loaded kind %v, want %v", loaded.Kind, kind)
			}
			Xm := ml.MatrixFromRows(X)
			for _, e := range efforts {
				p0, v0 := m.PredictWithVarianceFlat(Xm, e)
				p1, v1 := loaded.PredictWithVarianceFlat(Xm, e)
				assertSameFloats(t, "PredictWithVarianceFlat p", p0, p1)
				assertSameFloats(t, "PredictWithVarianceFlat v", v0, v1)
			}
			assertSameFloats(t, "PredictPoints",
				m.PredictPoints(split.Test), loaded.PredictPoints(split.Test))
			for i := 0; i < len(X) && i < 5; i++ {
				ap, av := m.PredictWithVariance(X[i], 1.2)
				bp, bv := loaded.PredictWithVariance(X[i], 1.2)
				if ap != bp || av != bv {
					t.Fatalf("pointwise PredictWithVariance diverged: (%v, %v) != (%v, %v)", ap, av, bp, bv)
				}
			}

			// Encoding is deterministic: saving the same model twice yields
			// identical bytes (no map state anywhere in the model).
			var buf2 bytes.Buffer
			if err := m.Save(&buf2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
				t.Fatal("two saves of the same model produced different bytes")
			}
		})
	}
}

// TestSavedBytesIndependentOfWorkers trains every kind under 1 and under 4
// workers: the two models predict alike, so they must also save to the same
// bytes and hence the same fleet-store hash.
func TestSavedBytesIndependentOfWorkers(t *testing.T) {
	sc := smallScenario(t, 39, false)
	year := sc.Data.Steps[len(sc.Data.Steps)-1].Year
	split, err := sc.Data.SplitByTestYear(year, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []ModelKind{SVB, DTB, GPB, SVBiW, DTBiW, GPBiW} {
		t.Run(kind.String(), func(t *testing.T) {
			var saved [2][]byte
			for i, workers := range []int{1, 4} {
				m, err := NewService(WithWorkers(workers)).Train(context.Background(), split.Train, quickOpts(kind, 49)...)
				if err != nil {
					t.Fatal(err)
				}
				if saved[i], err = m.SaveBytes(); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(saved[0], saved[1]) {
				t.Fatalf("1 worker saves %d bytes (hash %s), 4 workers %d bytes (hash %s)",
					len(saved[0]), store.HashBytes(saved[0]), len(saved[1]), store.HashBytes(saved[1]))
			}
		})
	}
}

// TestModelPersistenceFile exercises the SaveFile/LoadModelFile convenience
// path and the PlannerModel construction on a loaded model.
func TestModelPersistenceFile(t *testing.T) {
	sc := smallScenario(t, 33, false)
	year := sc.Data.Steps[len(sc.Data.Steps)-1].Year
	split, err := sc.Data.SplitByTestYear(year, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewService().Train(context.Background(), split.Train, quickOpts(GPBiW, 43)...)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.paws")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	testFrom, _ := sc.Data.StepsForYear(year)
	pm0, err := newPlannerModel(context.Background(), m, sc.Data, testFrom-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	pm1, err := newPlannerModel(context.Background(), loaded, sc.Data, testFrom-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	risk0, unc0 := maps(t, pm0, 1.5)
	risk1, unc1 := maps(t, pm1, 1.5)
	assertSameFloats(t, "RiskMap", risk0, risk1)
	assertSameFloats(t, "UncertaintyMap", unc0, unc1)
}

// TestLoadModelRejectsGarbage checks header validation fails loudly.
func TestLoadModelRejectsGarbage(t *testing.T) {
	if _, err := LoadModel(bytes.NewReader([]byte("not a model file at all"))); !errors.Is(err, ErrBadModelFile) {
		t.Fatalf("garbage magic: err = %v, want ErrBadModelFile", err)
	}
	if _, err := LoadModel(bytes.NewReader(nil)); !errors.Is(err, ErrBadModelFile) {
		t.Fatalf("empty input: err = %v, want ErrBadModelFile", err)
	}
	// Valid magic, future version.
	future := append([]byte(persistMagic), 0, 0, 0, 99)
	if _, err := LoadModel(bytes.NewReader(future)); err == nil || errors.Is(err, ErrBadModelFile) {
		t.Fatalf("future version: err = %v, want a version error distinct from ErrBadModelFile", err)
	}
	// Valid header, truncated payload.
	trunc := append([]byte(persistMagic), 0, 0, 0, 1)
	if _, err := LoadModel(bytes.NewReader(trunc)); !errors.Is(err, ErrBadModelFile) {
		t.Fatalf("truncated payload: err = %v, want ErrBadModelFile", err)
	}
}

// TestLoadedModelIsPredictOnly checks a decoded ensemble refuses to refit
// (its base-learner factory did not survive encoding).
func TestLoadedModelIsPredictOnly(t *testing.T) {
	sc := smallScenario(t, 35, false)
	year := sc.Data.Steps[len(sc.Data.Steps)-1].Year
	split, err := sc.Data.SplitByTestYear(year, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewService().Train(context.Background(), split.Train, quickOpts(DTB, 45)...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var X [][]float64
	var y []int
	for _, p := range split.Train[:10] {
		X = append(X, p.Features)
		y = append(y, p.Label)
	}
	if err := loaded.Ensemble().Fit(X, y); !errors.Is(err, bagging.ErrNoFactory) {
		t.Fatalf("refit of loaded ensemble: err = %v, want bagging.ErrNoFactory", err)
	}
}

// TestSavedV1ModelsLoad loads two format-1 model files that an earlier
// build wrote with SaveFile (testdata/persist: an SVB-iW and a GPB-iW model
// trained on every point of MFNP small at seed 7, with the options below)
// and requires their predictions to be bit-identical to the same models
// retrained now. That build's learner configurations still had the SVM,
// GP, bagging, iWare-E and ladder tuning fields that are now constants, and
// its files store them: so this shows each constant equals the value those
// models were trained with, and that a file holding a since-deleted field
// still decodes. The SVM model is unbalanced so its class weighting matters;
// the GP model covers balanced bags. The files were written on a host where
// math.Exp takes the fused (FMA) path of its amd64 algorithm, and their
// weights carry its bits: under GODEBUG=cpu.fma=off, math.Exp takes the
// plain path, the retrained weights differ in the last bits and this test
// fails. CI's cpu.fma=off step leaves the root package out for that reason.
func TestSavedV1ModelsLoad(t *testing.T) {
	ctx := context.Background()
	sc, err := NewService(WithScale(ScaleSmall), WithSeed(7)).Scenario(ctx, "MFNP")
	if err != nil {
		t.Fatal(err)
	}
	pts := sc.Data.AllPoints()
	X := make([][]float64, len(pts))
	for i, p := range pts {
		X[i] = p.Features
	}
	Xm := ml.MatrixFromRows(X)
	for _, c := range []struct {
		file string
		kind ModelKind
		opts []Option
	}{
		{"svb-iw.model", SVBiW, []Option{WithThresholds(3), WithEnsembleSize(3), WithCVFolds(2), WithSeed(11)}},
		{"gpb-iw.model", GPBiW, []Option{WithThresholds(3), WithEnsembleSize(2), WithBalancedBagging(true), WithGPMaxTrain(40), WithCVFolds(2), WithSeed(12)}},
	} {
		t.Run(c.kind.String(), func(t *testing.T) {
			saved, err := LoadModelFile(filepath.Join("testdata", "persist", c.file))
			if err != nil {
				t.Fatal(err)
			}
			if saved.Kind != c.kind {
				t.Fatalf("file holds a %v model, want %v", saved.Kind, c.kind)
			}
			fresh, err := NewService(WithKind(c.kind)).Train(ctx, pts, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "thresholds", saved.IWare().Thresholds(), fresh.IWare().Thresholds())
			sameBits(t, "weights", saved.IWare().Weights(), fresh.IWare().Weights())
			sameBits(t, "PredictPoints", saved.PredictPoints(pts), fresh.PredictPoints(pts))
			for _, e := range []float64{0, 0.5, 2, math.Inf(1)} {
				p0, v0 := saved.PredictWithVarianceFlat(Xm, e)
				p1, v1 := fresh.PredictWithVarianceFlat(Xm, e)
				sameBits(t, fmt.Sprintf("p at effort %v", e), p0, p1)
				sameBits(t, fmt.Sprintf("variance at effort %v", e), v0, v1)
			}
		})
	}
}

// sameBits fails unless the saved model's floats a and the retrained
// model's floats b have the same bit patterns.
func sameBits(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d saved values, %d retrained", label, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d]: saved model %v, retrained %v", label, i, a[i], b[i])
		}
	}
}
