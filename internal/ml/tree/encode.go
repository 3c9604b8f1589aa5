package tree

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
)

func init() {
	// Stable name for encoding *Tree behind the ml.Classifier interface.
	gob.RegisterName("paws/internal/ml/tree.Tree", &Tree{})
}

// nodeState mirrors node with exported fields; gob handles the recursion.
type nodeState struct {
	Leaf      bool
	Prob      float64
	N         int
	Feature   int
	Threshold float64
	Left      *nodeState
	Right     *nodeState
}

func toState(n *node) *nodeState {
	if n == nil {
		return nil
	}
	return &nodeState{
		Leaf: n.leaf, Prob: n.prob, N: n.n,
		Feature: n.feature, Threshold: n.threshold,
		Left: toState(n.left), Right: toState(n.right),
	}
}

// fromState rebuilds the subtree at s, rejecting a split on a feature
// outside [0, nFeat): predicting through it would index past the input.
func fromState(s *nodeState, nFeat int) (*node, error) {
	if s == nil {
		return nil, nil
	}
	n := &node{
		leaf: s.Leaf, prob: s.Prob, n: s.N,
		feature: s.Feature, threshold: s.Threshold,
	}
	if n.leaf {
		return n, nil
	}
	if n.feature < 0 || n.feature >= nFeat {
		return nil, fmt.Errorf("tree: corrupt encoding: split on feature %d of %d", n.feature, nFeat)
	}
	var err error
	if n.left, err = fromState(s.Left, nFeat); err != nil {
		return nil, err
	}
	if n.right, err = fromState(s.Right, nFeat); err != nil {
		return nil, err
	}
	if n.left == nil || n.right == nil {
		return nil, errors.New("tree: corrupt encoding: internal node missing a child")
	}
	return n, nil
}

// treeState is the exported gob image of a fitted Tree.
type treeState struct {
	Cfg   Config
	Root  *nodeState
	NFeat int
}

// GobEncode implements gob.GobEncoder over the fitted tree structure.
func (t *Tree) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(treeState{Cfg: t.cfg, Root: toState(t.root), NFeat: t.nFeat})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder. Save only writes fitted trees, so an
// encoding without a root or features is rejected.
func (t *Tree) GobDecode(b []byte) error {
	var st treeState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return err
	}
	if st.Root == nil || st.NFeat < 1 {
		return fmt.Errorf("tree: corrupt encoding: unfitted tree (%d features)", st.NFeat)
	}
	root, err := fromState(st.Root, st.NFeat)
	if err != nil {
		return err
	}
	t.cfg, t.root, t.nFeat = st.Cfg, root, st.NFeat
	return nil
}
