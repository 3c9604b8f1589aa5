package iware

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"paws/internal/ml"
)

// configState is Config without the WeakLearner factory, which is a function
// and cannot be encoded, and without Workers, so that one model trained
// under any worker count encodes to the same bytes. A decoded model is
// predict-only, which is all the serving path needs, and fans its batch
// predictions out over par.Workers(0). Files that hold a Workers field
// still decode: gob skips a field the type lacks.
type configState struct {
	Thresholds []float64
	CVFolds    int
	Seed       int64
}

// modelState is the exported gob image of a fitted iWare-E ensemble.
type modelState struct {
	Cfg         configState
	Thresholds  []float64
	Classifiers []ml.Classifier
	Weights     []float64
}

// GobEncode implements gob.GobEncoder.
func (m *Model) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(modelState{
		Cfg: configState{
			Thresholds: m.cfg.Thresholds,
			CVFolds:    m.cfg.CVFolds,
			Seed:       m.cfg.Seed,
		},
		Thresholds:  m.thresholds,
		Classifiers: m.classifiers,
		Weights:     m.weights,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder. Save only writes fitted ladders: one
// classifier and weight per threshold, thresholds ascending (qualification
// binary-searches them), and every rung of one feature width.
func (m *Model) GobDecode(b []byte) error {
	var st modelState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return err
	}
	if len(st.Thresholds) == 0 || len(st.Classifiers) != len(st.Thresholds) || len(st.Weights) != len(st.Thresholds) {
		return errors.New("iware: corrupt encoding: ladder size mismatch")
	}
	for i := 1; i < len(st.Thresholds); i++ {
		// Negated so a NaN threshold fails too.
		if !(st.Thresholds[i-1] <= st.Thresholds[i]) {
			return fmt.Errorf("iware: corrupt encoding: thresholds %v are not ascending", st.Thresholds)
		}
	}
	if _, err := ml.CommonWidth(st.Classifiers); err != nil {
		return fmt.Errorf("iware: corrupt encoding: %w", err)
	}
	m.cfg = Config{
		Thresholds: st.Cfg.Thresholds,
		CVFolds:    st.Cfg.CVFolds,
		Seed:       st.Cfg.Seed,
	}
	m.thresholds = st.Thresholds
	m.classifiers = st.Classifiers
	m.weights = st.Weights
	return nil
}
