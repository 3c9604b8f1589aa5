package tree

import (
	"bytes"
	"encoding/gob"
	"testing"
)

func decodeState(t *testing.T, st treeState) error {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return new(Tree).GobDecode(buf.Bytes())
}

// TestGobDecodeRejectsCorruptState: a tree state Save never writes fails to
// decode instead of panicking at the tree's first prediction.
func TestGobDecodeRejectsCorruptState(t *testing.T) {
	leaf := &nodeState{Leaf: true, Prob: 1, N: 1}
	split := func(f int) *nodeState { return &nodeState{Feature: f, Left: leaf, Right: leaf} }
	if err := decodeState(t, treeState{Root: split(1), NFeat: 2}); err != nil {
		t.Fatalf("well-formed state rejected: %v", err)
	}
	for _, c := range []struct {
		name string
		st   treeState
	}{
		{"unfitted", treeState{NFeat: 2}},
		{"no features", treeState{Root: leaf}},
		{"split past the width", treeState{Root: split(2), NFeat: 2}},
		{"negative split feature", treeState{Root: split(-1), NFeat: 2}},
		{"internal node missing a child", treeState{Root: &nodeState{Left: leaf}, NFeat: 2}},
	} {
		if err := decodeState(t, c.st); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
	}
}
