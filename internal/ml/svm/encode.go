package svm

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"paws/internal/ml"
)

func init() {
	// Stable name for encoding *SVM behind the ml.Classifier interface.
	gob.RegisterName("paws/internal/ml/svm.SVM", &SVM{})
}

// svmState is the exported gob image of a fitted SVM.
type svmState struct {
	Cfg    Config
	Std    *ml.Standardizer
	W      []float64
	B      float64
	PlattA float64
	PlattB float64
	Fitted bool
}

// GobEncode implements gob.GobEncoder over the model's fitted state.
func (s *SVM) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(svmState{
		Cfg: s.cfg, Std: s.std, W: s.w, B: s.b,
		PlattA: s.plattA, PlattB: s.plattB, Fitted: s.fitted,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder. Save only writes fitted models, and
// predicting standardizes the input and dots it with the weights, so an
// unfitted encoding or one whose widths disagree is rejected.
func (s *SVM) GobDecode(b []byte) error {
	var st svmState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return err
	}
	if !st.Fitted || st.Std == nil || len(st.W) == 0 {
		return errors.New("svm: corrupt encoding: unfitted model")
	}
	if len(st.Std.Mean) != len(st.W) || len(st.Std.Scale) != len(st.W) {
		return fmt.Errorf("svm: corrupt encoding: %d weights but a standardizer of %d means and %d scales", len(st.W), len(st.Std.Mean), len(st.Std.Scale))
	}
	s.cfg, s.std, s.w, s.b = st.Cfg, st.Std, st.W, st.B
	s.plattA, s.plattB, s.fitted = st.PlattA, st.PlattB, st.Fitted
	return nil
}
