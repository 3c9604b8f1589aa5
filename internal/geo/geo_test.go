package geo

import (
	"container/heap"
	"math"
	"testing"
	"testing/quick"

	"paws/internal/rng"
)

func squareGrid(n int) *Grid {
	mask := make([]bool, n*n)
	for i := range mask {
		mask[i] = true
	}
	return NewGrid(n, n, mask)
}

func TestGridIndexRoundTrip(t *testing.T) {
	mask := []bool{true, false, true, true, true, false}
	g := NewGrid(3, 2, mask)
	if g.NumCells() != 4 {
		t.Fatalf("NumCells = %d want 4", g.NumCells())
	}
	for id := 0; id < g.NumCells(); id++ {
		x, y := g.CellXY(id)
		if g.CellID(x, y) != id {
			t.Fatalf("round trip failed for id %d", id)
		}
		if !g.InPark(x, y) {
			t.Fatalf("cell %d not in park", id)
		}
	}
	if g.CellID(1, 0) != -1 {
		t.Fatal("masked-out cell should have id -1")
	}
	if g.CellID(-1, 0) != -1 || g.CellID(3, 0) != -1 {
		t.Fatal("out-of-bounds should have id -1")
	}
}

func TestNeighbors(t *testing.T) {
	g := squareGrid(3)
	center := g.CellID(1, 1)
	n4 := g.Neighbors4(center, nil)
	if len(n4) != 4 {
		t.Fatalf("center should have 4 4-neighbors, got %d", len(n4))
	}
	n8 := g.Neighbors8(center, nil)
	if len(n8) != 8 {
		t.Fatalf("center should have 8 8-neighbors, got %d", len(n8))
	}
	corner := g.CellID(0, 0)
	if len(g.Neighbors4(corner, nil)) != 2 {
		t.Fatal("corner should have 2 4-neighbors")
	}
	if len(g.Neighbors8(corner, nil)) != 3 {
		t.Fatal("corner should have 3 8-neighbors")
	}
}

func TestOnBoundary(t *testing.T) {
	g := squareGrid(3)
	if !g.OnBoundary(g.CellID(0, 1)) {
		t.Fatal("edge cell should be boundary")
	}
	if g.OnBoundary(g.CellID(1, 1)) {
		t.Fatal("center of full 3×3 should not be boundary")
	}
}

func TestEuclidKM(t *testing.T) {
	g := squareGrid(5)
	a := g.CellID(0, 0)
	b := g.CellID(3, 4)
	if d := g.EuclidKM(a, b); math.Abs(d-5) > 1e-12 {
		t.Fatalf("distance = %v want 5", d)
	}
}

func TestRasterNormalizeAndMinMax(t *testing.T) {
	g := squareGrid(2)
	r := NewRaster(g)
	copy(r.V, []float64{2, 4, 6, 10})
	lo, hi := r.MinMax()
	if lo != 2 || hi != 10 {
		t.Fatalf("MinMax = %v,%v", lo, hi)
	}
	r.Normalize()
	if r.V[0] != 0 || r.V[3] != 1 {
		t.Fatalf("Normalize = %v", r.V)
	}
	// Constant raster is a no-op, not NaN.
	c := NewRaster(g)
	for i := range c.V {
		c.V[i] = 5
	}
	c.Normalize()
	for _, v := range c.V {
		if math.IsNaN(v) {
			t.Fatal("Normalize produced NaN on constant raster")
		}
	}
}

func TestNoiseDeterministicAndBounded(t *testing.T) {
	n1 := NewNoise(42, 4, 0.5, 0.05)
	n2 := NewNoise(42, 4, 0.5, 0.05)
	n3 := NewNoise(43, 4, 0.5, 0.05)
	differ := false
	for i := 0; i < 50; i++ {
		x, y := float64(i)*1.37, float64(i)*0.61
		v1, v2 := n1.At(x, y), n2.At(x, y)
		if v1 != v2 {
			t.Fatal("noise must be deterministic in seed")
		}
		if v1 < 0 || v1 > 1 {
			t.Fatalf("noise out of [0,1]: %v", v1)
		}
		if n3.At(x, y) != v1 {
			differ = true
		}
	}
	if !differ {
		t.Fatal("different seeds should give different noise")
	}
}

func TestNoiseSmoothness(t *testing.T) {
	n := NewNoise(7, 3, 0.5, 0.05)
	// Nearby points should have nearby values.
	for i := 0; i < 100; i++ {
		x := float64(i) * 0.9
		d := math.Abs(n.At(x, 10) - n.At(x+0.1, 10))
		if d > 0.2 {
			t.Fatalf("noise jump %v too large for 0.1-cell step", d)
		}
	}
}

func TestDistanceTransform(t *testing.T) {
	g := squareGrid(5)
	src := g.CellID(0, 0)
	d := DistanceTransform(g, []int{src})
	if d.V[src] != 0 {
		t.Fatal("source distance should be 0")
	}
	// Diagonal moves make (4,4) exactly 4√2 away.
	far := g.CellID(4, 4)
	if math.Abs(d.V[far]-4*math.Sqrt2) > 1e-9 {
		t.Fatalf("corner distance = %v want %v", d.V[far], 4*math.Sqrt2)
	}
	// (4,0): straight line 4.
	if math.Abs(d.V[g.CellID(4, 0)]-4) > 1e-9 {
		t.Fatal("straight-line distance wrong")
	}
}

func TestDistanceTransformRespectMask(t *testing.T) {
	// A 3-wide corridor with a wall: distances must route around it.
	// Mask layout (1=park):
	// 1 1 1
	// 0 0 1
	// 1 1 1
	mask := []bool{true, true, true, false, false, true, true, true, true}
	g := NewGrid(3, 3, mask)
	src := g.CellID(0, 0)
	d := DistanceTransform(g, []int{src})
	// (0,2) must be reached the long way around through (2,1).
	got := d.V[g.CellID(0, 2)]
	want := 1 + math.Sqrt2 + math.Sqrt2 + 1 // rough path (0,0)->(1,0)->(2,1)->(1,2)->(0,2)
	if math.Abs(got-want) > 0.5 {
		t.Fatalf("masked distance = %v want ≈ %v", got, want)
	}
}

func TestDistanceTransformEmptySources(t *testing.T) {
	g := squareGrid(3)
	d := DistanceTransform(g, nil)
	for _, v := range d.V {
		if !math.IsInf(v, 1) {
			t.Fatal("no sources should give all-Inf")
		}
	}
}

func TestDistanceTransformTriangleInequality(t *testing.T) {
	g := squareGrid(8)
	f := func(sx, sy uint8) bool {
		x, y := int(sx)%8, int(sy)%8
		src := g.CellID(x, y)
		d := DistanceTransform(g, []int{src})
		// Euclidean distance is a lower bound for the 8-connected path.
		for id := 0; id < g.NumCells(); id++ {
			if d.V[id]+1e-9 < g.EuclidKM(src, id)-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// refHeap is container/heap's view of distItem: the pop order distHeap
// must keep, ties included, for DistanceTransform to stay bit-identical.
type refHeap []distItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

func TestDistHeapMatchesContainerHeap(t *testing.T) {
	r := rng.New(3)
	var got distHeap
	want := &refHeap{}
	for step := 0; step < 20000; step++ {
		if len(got) == 0 || (step < 15000 && r.Float64() < 0.6) {
			// Few distinct distances, so most comparisons are ties.
			it := distItem{id: step, d: float64(r.Intn(16))}
			got.push(it)
			heap.Push(want, it)
			continue
		}
		if g, w := got.pop(), heap.Pop(want).(distItem); g != w {
			t.Fatalf("step %d: popped %+v, container/heap pops %+v", step, g, w)
		}
	}
}

func TestBoundaryCells(t *testing.T) {
	g := squareGrid(4)
	b := BoundaryCells(g)
	if len(b) != 12 {
		t.Fatalf("4×4 full grid should have 12 boundary cells, got %d", len(b))
	}
}

func TestASCIIRendering(t *testing.T) {
	g := squareGrid(2)
	r := NewRaster(g)
	copy(r.V, []float64{0, 0.33, 0.66, 1})
	s := r.ASCII()
	if len(s) != 6 { // 2 chars + newline, twice
		t.Fatalf("ASCII length = %d want 6", len(s))
	}
}
