package gp

import (
	"bytes"
	"encoding/gob"
	"testing"

	"paws/internal/mat"
)

// TestGobDecodeRejectsCorruptState: a GP state Save never writes fails to
// decode, instead of panicking in the decoder (a ragged training matrix) or
// at the model's first prediction (Laplace state shorter than the matrix).
func TestGobDecodeRejectsCorruptState(t *testing.T) {
	X, y := blobs(15, 15, 6)
	g := New(Config{Seed: 7})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	b, err := g.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		corrupt func(st *gpState)
	}{
		{"well-formed", func(st *gpState) {}},
		{"unfitted", func(st *gpState) { st.Fitted = false }},
		{"ragged training rows", func(st *gpState) { st.X[1] = st.X[1][:1] }},
		{"short posterior mode", func(st *gpState) { st.Fhat = st.Fhat[1:] }},
		{"short gradient", func(st *gpState) { st.Grad = st.Grad[1:] }},
		{"short W^½", func(st *gpState) { st.WSqrt = st.WSqrt[1:] }},
		{"factor smaller than the training set", func(st *gpState) { st.L = mat.NewDense(1, 1) }},
		{"narrow standardizer", func(st *gpState) { st.Std.Mean = st.Std.Mean[:1] }},
	} {
		var st gpState
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
			t.Fatal(err)
		}
		c.corrupt(&st)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		err := new(GP).GobDecode(buf.Bytes())
		if wellFormed := c.name == "well-formed"; (err == nil) != wellFormed {
			t.Errorf("%s: GobDecode err = %v", c.name, err)
		}
	}
}
