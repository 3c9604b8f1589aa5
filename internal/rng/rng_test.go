package rng

import (
	"fmt"
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must yield identical streams")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(1)
	a := root.Split("alpha")
	b := root.Split("beta")
	// Different labels must give different streams (overwhelmingly likely).
	same := true
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("split streams with different labels are identical")
	}
	// Same label from a fresh root must reproduce.
	c := New(1).Split("alpha")
	d := New(1).Split("alpha")
	for i := 0; i < 10; i++ {
		if c.Float64() != d.Float64() {
			t.Fatal("split streams with same label differ")
		}
	}
}

func TestSplitDoesNotConsumeParent(t *testing.T) {
	a := New(5)
	first := a.Float64()
	b := New(5)
	_ = b.Split("x")
	if b.Float64() != first {
		t.Fatal("Split must not consume the parent stream")
	}
}

func TestSplitHierarchical(t *testing.T) {
	r := New(9)
	ab := r.Split("a").Split("b")
	ba := r.Split("b").Split("a")
	if ab.Float64() == ba.Float64() {
		t.Fatal("hierarchical splits should depend on order")
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(3)
	for i := 0; i < 50; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(11)
	const n = 20000
	count := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			count++
		}
	}
	p := float64(count) / n
	if math.Abs(p-0.3) > 0.02 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", p)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(13)
	const n = 50000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.Normal(2, 3)
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-2) > 0.1 {
		t.Fatalf("mean = %v want 2", mean)
	}
	if math.Abs(variance-9) > 0.5 {
		t.Fatalf("variance = %v want 9", variance)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(19)
	got := r.SampleWithoutReplacement(10, 4)
	if len(got) != 4 {
		t.Fatalf("len = %d want 4", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 10 {
			t.Fatalf("index %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate index %d", v)
		}
		seen[v] = true
	}
	all := r.SampleWithoutReplacement(5, 10)
	if len(all) != 5 {
		t.Fatalf("k>n should return n items, got %d", len(all))
	}
}

func TestSeed(t *testing.T) {
	if New(77).Seed() != 77 {
		t.Fatal("Seed not recorded")
	}
}

// TestDeriveSeedLabelCollisions: the split labels actually used across the
// tree — fixed subsystem labels plus instances of the parameterized
// families (per-month draws, per-policy-season streams, campaign bootstrap
// streams) — must derive pairwise-distinct seeds from one root. A collision
// would silently correlate two "independent" streams, e.g. one simulated
// month's draws with another's, the exact failure common-random-number
// pairing cannot tolerate.
func TestDeriveSeedLabelCollisions(t *testing.T) {
	labels := []string{
		// Fixed subsystem labels.
		"randsim", "patrols", "attacks", "observations",
		"select", "effort", "robust", "blind",
		"randpark", "mask", "rivers", "roads", "villages", "posts",
		"folds", "cv-seeds",
	}
	for m := 0; m < 120; m++ {
		labels = append(labels, fmt.Sprintf("sim-month:%d", m))
	}
	for _, policy := range []string{"paws", "uniform", "historical", "random"} {
		for s := 0; s < 12; s++ {
			labels = append(labels, fmt.Sprintf("policy:%s:season:%d", policy, s))
		}
	}
	for _, park := range []string{"MFNP", "QENP", "SWS", "rand:16"} {
		for _, policy := range []string{"paws", "historical", "random"} {
			labels = append(labels, fmt.Sprintf("campaign-bootstrap:%s:%s:uniform", park, policy))
		}
	}
	for _, seed := range []int64{0, 1, 7, -42, 1 << 40} {
		seen := map[int64]string{}
		for _, label := range labels {
			d := deriveSeed(seed, label)
			if prev, ok := seen[d]; ok {
				t.Fatalf("seed %d: labels %q and %q derive the same stream seed %d", seed, prev, label, d)
			}
			seen[d] = label
		}
	}
}
