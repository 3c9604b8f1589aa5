package paws

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"

	"paws/internal/iware"
	"paws/internal/ml/bagging"
)

// Model persistence: a versioned binary encoding of a trained model, so a
// model trained once (minutes of CPU for the full parks) can be served
// forever without retraining. The format is an 8-byte magic, a big-endian
// uint32 format version, then a gob stream of the model state. Every learner
// serializes its exact fitted state — float64 bit patterns included, down to
// the GP's Cholesky factor — so a loaded model's predictions are
// byte-identical to the original's (asserted for all six ModelKinds by
// TestModelPersistenceRoundTrip).
//
// Version history:
//
//	1: initial format (Kind + TrainOptions + bagging/iWare-E state).
//	   Later builds write no training options and no worker count, so a
//	   model saves to the same bytes whatever worker count trained it.
//	   Files that hold them still load: gob skips a field the decoding
//	   type lacks, so the version stays 1.
//
// Decoded models are predict-only: learner factories are functions and do
// not survive encoding, so refitting a loaded model returns an error rather
// than silently retraining with different hyper-parameters.

// persistMagic identifies a PAWS model file.
const persistMagic = "PAWSMODL"

// PersistVersion is the format version written by Save.
const PersistVersion = 1

// ErrBadModelFile is wrapped by LoadModel errors for malformed input.
var ErrBadModelFile = errors.New("paws: not a PAWS model file")

// modelEnvelope is the gob payload behind the versioned header.
type modelEnvelope struct {
	Kind        ModelKind
	NumFeatures int
	Plain       *bagging.Ensemble
	IW          *iware.Model
}

// Save writes the model in the versioned binary format. Encoding the same
// model twice yields identical bytes (the state contains no maps), which
// makes saved artifacts content-addressable.
func (m *Model) Save(w io.Writer) error {
	if m.plain == nil && m.iw == nil {
		return errors.New("paws: cannot save an untrained model")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(persistMagic); err != nil {
		return fmt.Errorf("paws: save model: %w", err)
	}
	if err := binary.Write(bw, binary.BigEndian, uint32(PersistVersion)); err != nil {
		return fmt.Errorf("paws: save model: %w", err)
	}
	env := modelEnvelope{Kind: m.Kind, NumFeatures: m.numFeatures, Plain: m.plain, IW: m.iw}
	if err := gob.NewEncoder(bw).Encode(env); err != nil {
		return fmt.Errorf("paws: save model: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("paws: save model: %w", err)
	}
	return nil
}

// SaveBytes returns the model's versioned binary encoding in memory. The
// encoding is deterministic (same model → identical bytes), which is what
// lets the fleet store (internal/store) address artifacts by content hash.
func (m *Model) SaveBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SaveFile writes the model to a file via Save, creating or truncating it.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("paws: save model: %w", err)
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadModel reads a model written by Save. It validates the magic and
// rejects versions this build does not understand, so format evolution fails
// loudly instead of mis-decoding.
func LoadModel(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrBadModelFile, err)
	}
	if !bytes.Equal(magic, []byte(persistMagic)) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadModelFile, magic)
	}
	var version uint32
	if err := binary.Read(br, binary.BigEndian, &version); err != nil {
		return nil, fmt.Errorf("%w: reading version: %v", ErrBadModelFile, err)
	}
	if version == 0 || version > PersistVersion {
		return nil, fmt.Errorf("paws: model file has format version %d; this build reads up to %d", version, PersistVersion)
	}
	var env modelEnvelope
	if err := gob.NewDecoder(br).Decode(&env); err != nil {
		return nil, fmt.Errorf("%w: decoding payload: %v", ErrBadModelFile, err)
	}
	if (env.Plain == nil) == (env.IW == nil) {
		return nil, fmt.Errorf("%w: payload must hold exactly one of plain/iWare state", ErrBadModelFile)
	}
	if env.Kind.IsIWare() != (env.IW != nil) {
		return nil, fmt.Errorf("%w: kind %v does not match stored state", ErrBadModelFile, env.Kind)
	}
	width := 0
	if env.IW != nil {
		width = env.IW.NumFeatures()
	} else {
		width = env.Plain.NumFeatures()
	}
	if width != env.NumFeatures {
		return nil, fmt.Errorf("%w: learners are %d features wide, header says %d", ErrBadModelFile, width, env.NumFeatures)
	}
	return &Model{Kind: env.Kind, numFeatures: env.NumFeatures, plain: env.Plain, iw: env.IW}, nil
}

// LoadModelBytes reads a model from its in-memory encoding (SaveBytes) —
// the decode half of the fleet store's artifact path.
func LoadModelBytes(b []byte) (*Model, error) {
	return LoadModel(bytes.NewReader(b))
}

// LoadModelFile reads a model file written by SaveFile.
func LoadModelFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("paws: load model: %w", err)
	}
	defer f.Close()
	m, err := LoadModel(f)
	if err != nil {
		return nil, fmt.Errorf("paws: load model %s: %w", path, err)
	}
	return m, nil
}
