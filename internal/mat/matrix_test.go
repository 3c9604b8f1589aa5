package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// denseOf wraps data (len r*c, row-major) as an r×c matrix.
func denseOf(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic("mat: test data does not fill the matrix")
	}
	return &Dense{rows: r, cols: c, data: data}
}

// mul returns the product a·b, the reference the checks of MulVec and of
// the Cholesky reconstruction compare against.
func mul(a, b *Dense) *Dense {
	c := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.cols; j++ {
			var s float64
			for k := 0; k < a.cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

// transpose returns aᵀ.
func transpose(a *Dense) *Dense {
	t := NewDense(a.cols, a.rows)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			t.Set(j, i, a.At(i, j))
		}
	}
	return t
}

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	r, c := m.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d want 3,4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestSetAt(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v want 0", got)
	}
}

func TestRowIsView(t *testing.T) {
	m := NewDense(2, 2)
	row := m.Row(1)
	row[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row must be a view into the matrix storage")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 5)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestMulVec(t *testing.T) {
	m := denseOf(2, 3, []float64{1, 2, 3, 4, 5, 6})
	y := m.MulVec([]float64{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec = %v want [6 15]", y)
	}
}

func TestDotAndNorm(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot wrong")
	}
	if v := []float64{3, 4}; !almostEq(math.Sqrt(Dot(v, v)), 5, 1e-12) {
		t.Fatal("norm from Dot wrong")
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		m := 1 + r.Intn(5)
		a := NewDense(n, m)
		for i := range a.data {
			a.data[i] = r.NormFloat64()
		}
		x := make([]float64, m)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		xm := denseOf(m, 1, append([]float64(nil), x...))
		y1 := a.MulVec(x)
		y2 := mul(a, xm)
		for i := 0; i < n; i++ {
			if !almostEq(y1[i], y2.At(i, 0), 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
