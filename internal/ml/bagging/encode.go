package bagging

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"

	"paws/internal/ml"
)

func init() {
	// Stable name for encoding *Ensemble behind the ml.Classifier interface
	// (iWare-E ladders store their weak learners this way).
	gob.RegisterName("paws/internal/ml/bagging.Ensemble", &Ensemble{})
}

// ensembleState is the exported gob image of a fitted ensemble. Members are
// interface values; every concrete learner registers itself with gob in its
// own package init. The base factory is a function and cannot be encoded —
// a decoded ensemble is predict-only (Fit reports ErrNoFactory).
type ensembleState struct {
	Cfg           Config
	Members       []ml.Classifier
	InBag         [][]int
	NTrain        int
	OddsInflation float64
}

// ErrNoFactory is returned by Fit on an ensemble decoded from a persisted
// model: the base-learner factory is a function and does not survive
// encoding, so such ensembles are predict-only.
var ErrNoFactory = errors.New("bagging: ensemble has no base factory (decoded from a persisted model); predict-only")

// GobEncode implements gob.GobEncoder. The in-bag counts go out as the
// [][]int they have always been encoded as. Config.Workers goes out as 0,
// which gob omits, so that one ensemble fitted under any worker count
// encodes to the same bytes; a decoded ensemble fans out over
// par.Workers(0).
func (e *Ensemble) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	inBag := make([][]int, len(e.inBag))
	for m, counts := range e.inBag {
		inBag[m] = make([]int, len(counts))
		for i, c := range counts {
			inBag[m][i] = int(c)
		}
	}
	cfg := e.cfg
	cfg.Workers = 0
	err := gob.NewEncoder(&buf).Encode(ensembleState{
		Cfg: cfg, Members: e.members, InBag: inBag,
		NTrain: e.nTrain, OddsInflation: e.oddsInflation,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder. Save only writes fitted ensembles: at
// least one member, all of one feature width, and one in-bag count row of
// NTrain entries per member (the jackknife indexes it).
func (e *Ensemble) GobDecode(b []byte) error {
	var st ensembleState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return err
	}
	if _, err := ml.CommonWidth(st.Members); err != nil {
		return fmt.Errorf("bagging: corrupt encoding: %w", err)
	}
	if len(st.InBag) != len(st.Members) {
		return fmt.Errorf("bagging: corrupt encoding: %d in-bag rows for %d members", len(st.InBag), len(st.Members))
	}
	inBag := make([][]int32, len(st.InBag))
	for m, counts := range st.InBag {
		if len(counts) != st.NTrain {
			return fmt.Errorf("bagging: corrupt encoding: in-bag row %d has %d counts, want %d", m, len(counts), st.NTrain)
		}
		inBag[m] = make([]int32, len(counts))
		for i, c := range counts {
			if c < 0 || c > math.MaxInt32 {
				return fmt.Errorf("bagging: corrupt encoding: in-bag row %d has count %d", m, c)
			}
			inBag[m][i] = int32(c)
		}
	}
	e.cfg, e.members, e.inBag = st.Cfg, st.Members, inBag
	e.cfg.Workers = 0 // files from older builds may hold their trainer's count
	e.nTrain, e.oddsInflation = st.NTrain, st.OddsInflation
	e.base = nil
	return nil
}
