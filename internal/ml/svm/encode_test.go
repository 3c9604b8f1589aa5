package svm

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// TestGobDecodeRejectsCorruptState: an SVM state Save never writes fails to
// decode instead of panicking at the model's first prediction.
func TestGobDecodeRejectsCorruptState(t *testing.T) {
	X, y := linearData(40, 1)
	s := New(Config{Seed: 2})
	if err := s.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	b, err := s.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		corrupt func(st *svmState)
	}{
		{"well-formed", func(st *svmState) {}},
		{"unfitted", func(st *svmState) { st.Fitted = false }},
		{"no standardizer", func(st *svmState) { st.Std = nil }},
		{"weights wider than the standardizer", func(st *svmState) { st.W = append(st.W, 0) }},
		{"short standardizer scale", func(st *svmState) { st.Std.Scale = st.Std.Scale[:1] }},
	} {
		var st svmState
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
			t.Fatal(err)
		}
		c.corrupt(&st)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		err := new(SVM).GobDecode(buf.Bytes())
		if wellFormed := c.name == "well-formed"; (err == nil) != wellFormed {
			t.Errorf("%s: GobDecode err = %v", c.name, err)
		}
	}
}
