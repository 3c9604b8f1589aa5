package gp

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"paws/internal/mat"
	"paws/internal/ml"
)

func init() {
	// Stable name for encoding *GP behind the ml.Classifier interface.
	gob.RegisterName("paws/internal/ml/gp.GP", &GP{})
}

// gpState is the exported gob image of a fitted GP. The Laplace state is
// stored verbatim (posterior mode, gradient, W^{1/2} and the lower Cholesky
// factor of B), so a decoded model runs the exact same prediction arithmetic
// as the original — no refactorization, no refit.
type gpState struct {
	Cfg           Config
	Std           *ml.Standardizer
	X             [][]float64
	LS            float64
	Fhat          []float64
	Grad          []float64
	WSqrt         []float64
	L             *mat.Dense // lower Cholesky factor of B
	OddsInflation float64
	Fitted        bool
}

// GobEncode implements gob.GobEncoder.
func (g *GP) GobEncode() ([]byte, error) {
	st := gpState{
		Cfg: g.cfg, Std: g.std, X: g.xf.ToRows(), LS: g.ls,
		Fhat: g.fhat, Grad: g.grad, WSqrt: g.wSqrt,
		OddsInflation: g.oddsInflation, Fitted: g.fitted,
	}
	if g.chB != nil {
		st.L = g.chB.L()
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(st)
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder. It validates the state before it
// builds anything from it (see check).
func (g *GP) GobDecode(b []byte) error {
	var st gpState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return err
	}
	if err := st.check(); err != nil {
		return err
	}
	ch, err := mat.CholeskyFromFactor(st.L)
	if err != nil {
		return err
	}
	g.cfg, g.std, g.ls = st.Cfg, st.Std, st.LS
	g.xf = ml.MatrixFromRows(st.X)
	g.fhat, g.grad, g.wSqrt = st.Fhat, st.Grad, st.WSqrt
	g.oddsInflation, g.fitted = st.OddsInflation, true
	g.chB = ch
	return nil
}

// check reports the first inconsistency in a decoded state. Save only writes
// fitted models; the training matrix must be rectangular (MatrixFromRows
// panics otherwise), and the Laplace vectors, the n×n factor and the
// standardizer must match its shape, or the first prediction would index
// out of range.
func (st *gpState) check() error {
	if !st.Fitted || len(st.X) == 0 || len(st.X[0]) == 0 || st.Std == nil || st.L == nil {
		return errors.New("gp: corrupt encoding: unfitted model")
	}
	n, k := len(st.X), len(st.X[0])
	for i, row := range st.X {
		if len(row) != k {
			return fmt.Errorf("gp: corrupt encoding: training row %d has %d features, want %d", i, len(row), k)
		}
	}
	if len(st.Fhat) != n || len(st.Grad) != n || len(st.WSqrt) != n {
		return fmt.Errorf("gp: corrupt encoding: Laplace state of %d/%d/%d entries for %d training rows", len(st.Fhat), len(st.Grad), len(st.WSqrt), n)
	}
	if r, c := st.L.Dims(); r != n || c != n {
		return fmt.Errorf("gp: corrupt encoding: %d×%d Cholesky factor for %d training rows", r, c, n)
	}
	if len(st.Std.Mean) != k || len(st.Std.Scale) != k {
		return fmt.Errorf("gp: corrupt encoding: standardizer of %d means and %d scales for %d features", len(st.Std.Mean), len(st.Std.Scale), k)
	}
	return nil
}
