package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// NewCholesky factorizes the symmetric matrix a (only the lower triangle is
// read). It returns ErrNotPositiveDefinite if a pivot is ≤ 0.
func NewCholesky(a *Dense) (*Cholesky, error) {
	c := new(Cholesky)
	if err := c.FactorizeJitter(a, 0, 1); err != nil {
		return nil, err
	}
	return c, nil
}

// randomSPD builds a random symmetric positive definite matrix A = BᵀB + nI.
func randomSPD(r *rand.Rand, n int) *Dense {
	b := NewDense(n, n)
	for i := range b.data {
		b.data[i] = r.NormFloat64()
	}
	a := mul(transpose(b), b)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

func TestCholeskyReconstruct(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := randomSPD(r, n)
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		rec := mul(ch.L(), transpose(ch.L()))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(rec.At(i, j)-a.At(i, j)) > 1e-8*(1+math.Abs(a.At(i, j))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskySolve(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(10)
		a := randomSPD(r, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = r.NormFloat64()
		}
		b := a.MulVec(xTrue)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("factorization failed: %v", err)
		}
		x := ch.SolveVec(b)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-7 {
				t.Fatalf("solve error: got %v want %v", x[i], xTrue[i])
			}
		}
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := denseOf(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err != ErrNotPositiveDefinite {
		t.Fatalf("expected ErrNotPositiveDefinite, got %v", err)
	}
}

func TestCholeskyJitterRecovers(t *testing.T) {
	// Singular (rank-1) matrix: plain Cholesky fails, jitter succeeds.
	a := denseOf(2, 2, []float64{1, 1, 1, 1})
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("expected plain Cholesky to fail on singular matrix")
	}
	ch := new(Cholesky)
	if err := ch.FactorizeJitter(a, 1e-8, 12); err != nil {
		t.Fatalf("jittered Cholesky failed: %v", err)
	}
	if r, c := ch.L().Dims(); r != 2 || c != 2 {
		t.Fatalf("factor is %d×%d, want 2×2", r, c)
	}
}

func TestSolveLowerForwardBackward(t *testing.T) {
	a := denseOf(2, 2, []float64{4, 2, 2, 3})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2}
	y := ch.SolveLower(b)
	x := ch.SolveLowerT(y)
	// Verify A·x = b.
	r := a.MulVec(x)
	for i := range b {
		if math.Abs(r[i]-b[i]) > 1e-10 {
			t.Fatalf("residual %v", r)
		}
	}
}

// rowCholesky is the textbook row-form factorization, the reference the
// column kernels are held to: for each column j, the pivot
// d = a[j][j] − Σ L[j][k]² and then each row below it,
// s = a[i][j] − Σ L[i][k]·L[j][k], both for k ascending, one rounding per
// product and per difference, then L[i][j] = s·(1/√d).
func rowCholesky(a *Dense) (*Dense, error) {
	r := a.rows
	l := NewDense(r, r)
	for j := 0; j < r; j++ {
		d := a.At(j, j)
		lrowj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lrowj[k] * lrowj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		inv := 1 / d
		for i := j + 1; i < r; i++ {
			s := a.At(i, j)
			lrowi := l.Row(i)
			for k := 0; k < j; k++ {
				s -= lrowi[k] * lrowj[k]
			}
			l.Set(i, j, s*inv)
		}
	}
	return l, nil
}

// gpShaped returns the matrix the GP's Newton steps factor,
// B = I + W^{1/2} K W^{1/2}, for n random points in three dimensions,
// RBF kernel values K (length scale 1, jitter 1e-6 on the diagonal) and
// random weights W in (0, 1/4], built in the GP's operand order.
func gpShaped(r *rand.Rand, n int) *Dense {
	x := make([][3]float64, n)
	wsq := make([]float64, n)
	for i := range x {
		for f := range x[i] {
			x[i][f] = r.NormFloat64()
		}
		wsq[i] = math.Sqrt(0.25 * (1 - r.Float64()))
	}
	b := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var d2 float64
			for f := range x[i] {
				d := x[j][f] - x[i][f]
				d2 += d * d
			}
			k := math.Exp(-d2 / 2)
			if i == j {
				k += 1e-6
			}
			v := wsq[i] * k * wsq[j]
			if i == j {
				v++
			}
			b.Set(i, j, v)
		}
	}
	return b
}

// cholKernels are the column kernels the host can run, by name: the Go
// one everywhere, the AVX2 one where the host has it.
func cholKernels() map[string]func(w []float64, n, j int) {
	ks := map[string]func(w []float64, n, j int){"Go kernel": cholColGo}
	if hasAVX2 {
		ks["AVX2 kernel"] = cholColAsm
	}
	return ks
}

// skipNoAVX2 skips a test after it has run, naming what went untested, on
// a host without AVX2.
func skipNoAVX2(t *testing.T) {
	t.Helper()
	if !hasAVX2 {
		t.Skip("host has no AVX2 (or the OS does not enable YMM state): assembly kernel not tested; the Go kernel was")
	}
}

// factorWith runs the column-form factorization of a with one kernel,
// filling the upper triangle of a copy of a with NaN first: only the
// lower triangle may be read.
func factorWith(a *Dense, col func(w []float64, n, j int)) (*Dense, error) {
	b := a.Clone()
	for i := 0; i < b.rows; i++ {
		for j := i + 1; j < b.cols; j++ {
			b.Set(i, j, math.NaN())
		}
	}
	c := new(Cholesky)
	if err := c.factorize(b, col); err != nil {
		return nil, err
	}
	return c.L(), nil
}

// TestCholeskyKernelsMatchRowForm holds both column kernels, and
// NewCholesky, to the row-form loop bit for bit at every order from 1 to
// 160 and at 200, on random SPD matrices and on GP-shaped ones: every
// 32-row block count and tail width the AVX2 kernel can meet.
func TestCholeskyKernelsMatchRowForm(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	sizes := []int{200}
	for n := 1; n <= 160; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		for shape, a := range map[string]*Dense{"random SPD": randomSPD(r, n), "GP-shaped": gpShaped(r, n)} {
			want, err := rowCholesky(a)
			if err != nil {
				t.Fatalf("n=%d %s: reference failed: %v", n, shape, err)
			}
			for name, col := range cholKernels() {
				got, err := factorWith(a, col)
				if err != nil {
					t.Fatalf("n=%d %s: %s failed: %v", n, shape, name, err)
				}
				sameBits(t, name, got.data, want.data)
			}
			ch, err := NewCholesky(a)
			if err != nil {
				t.Fatalf("n=%d %s: NewCholesky failed: %v", n, shape, err)
			}
			sameBits(t, "NewCholesky", ch.L().data, want.data)
		}
	}
	skipNoAVX2(t)
}

// TestCholeskyKernelsFailAlike asserts both kernels report
// ErrNotPositiveDefinite exactly where the row form does: a pivot pushed
// to −1 at column 0, at a middle column and at the last; a NaN pivot; a
// NaN below the diagonal, which reaches its row's pivot.
func TestCholeskyKernelsFailAlike(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 5, 33, 40, 70} {
		base := gpShaped(r, n)
		l, err := rowCholesky(base)
		if err != nil {
			t.Fatal(err)
		}
		type breakage struct {
			what string
			edit func(a *Dense)
		}
		var cases []breakage
		for _, m := range []int{0, n / 2, n - 1} {
			m := m
			cases = append(cases,
				breakage{fmt.Sprintf("pivot %d below zero", m), func(a *Dense) {
					// The pivot is a[m][m] − Σ L[m][k]² = L[m][m]²; take
					// L[m][m]² + 1 off it.
					a.Set(m, m, a.At(m, m)-(l.At(m, m)*l.At(m, m)+1))
				}},
				breakage{fmt.Sprintf("NaN pivot %d", m), func(a *Dense) { a.Set(m, m, math.NaN()) }},
				breakage{fmt.Sprintf("NaN in row %d below the diagonal", m), func(a *Dense) {
					if m > 0 {
						a.Set(m, m/2, math.NaN())
					}
				}},
			)
		}
		for _, c := range cases {
			a := base.Clone()
			c.edit(a)
			_, want := rowCholesky(a)
			for name, col := range cholKernels() {
				if _, err := factorWith(a, col); err != want {
					t.Fatalf("n=%d %s: %s returned %v, row form %v", n, c.what, name, err, want)
				}
			}
			if _, err := NewCholesky(a); err != want {
				t.Fatalf("n=%d %s: NewCholesky returned %v, row form %v", n, c.what, err, want)
			}
		}
	}
	skipNoAVX2(t)
}

// TestFactorizeJitterRetries asserts FactorizeJitter's retry path on a
// singular matrix (two equal rows) whose first few jitters are too small
// to matter: it fails with one try fewer than the row form needs, and
// with that many it returns the row form of a + jitter·I, with the
// jitter of the try that succeeded, bit for bit; a is left as it was.
// Factoring into a Cholesky that already holds a factor, of another order
// or of the same, gives the same bits as a fresh one.
func TestFactorizeJitterRetries(t *testing.T) {
	a := denseOf(3, 3, []float64{
		1, 1, 0.5,
		1, 1, 0.5,
		0.5, 0.5, 2,
	})
	orig := a.Clone()
	const jitter0 = 1e-19
	var want *Dense
	tries := 0
	for jit, next := 0.0, jitter0; want == nil; jit, next = next, next*10 {
		if tries++; tries > 12 {
			t.Fatal("the row form never succeeded")
		}
		b := a.Clone()
		for i := 0; i < 3; i++ {
			b.Set(i, i, a.At(i, i)+jit)
		}
		want, _ = rowCholesky(b)
	}
	if tries < 3 {
		t.Fatalf("the row form succeeded at try %d; the test needs a matrix that retries at least twice", tries)
	}
	c, err := NewCholesky(randomSPD(rand.New(rand.NewSource(1)), 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FactorizeJitter(a, jitter0, tries-1); err != ErrNotPositiveDefinite {
		t.Fatalf("%d tries: %v, want ErrNotPositiveDefinite", tries-1, err)
	}
	if err := c.FactorizeJitter(a, jitter0, tries); err != nil {
		t.Fatalf("%d tries: %v", tries, err)
	}
	sameBits(t, "jittered factor", c.L().data, want.data)
	sameBits(t, "input", a.data, orig.data)

	b := gpShaped(rand.New(rand.NewSource(2)), 40)
	want, err = rowCholesky(b)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := c.FactorizeJitter(b, 1e-10, 8); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "reused factor", c.L().data, want.data)
	}
}

// TestCholColAsmStaysInWorkspace runs the AVX2 column kernel on a
// workspace carved from a larger buffer, for every column of orders whose
// last block is 1 to 32 rows long, and asserts the entries around the
// workspace keep their sentinel bits.
func TestCholColAsmStaysInWorkspace(t *testing.T) {
	if !hasAVX2 {
		t.Skip("host has no AVX2 (or the OS does not enable YMM state): assembly kernel not tested")
	}
	const guard = 64
	sentinel := math.Float64frombits(0x7ff8dead0000beef)
	for n := 1; n <= 70; n++ {
		size := n*n + cholSlack
		buf := make([]float64, size+2*guard)
		for i := range buf {
			buf[i] = sentinel
		}
		w := buf[guard : guard+size : guard+size]
		for i := range w {
			w[i] = 0.5
		}
		for j := 0; j < n; j++ {
			cholColAsm(w, n, j)
		}
		for i, v := range append(buf[:guard:guard], buf[guard+size:]...) {
			if math.Float64bits(v) != math.Float64bits(sentinel) {
				t.Fatalf("n=%d: entry %d outside the workspace changed to %v", n, i, v)
			}
		}
	}
}

// BenchmarkCholesky times one factorization of a GP-shaped matrix of the
// GP's usual training sizes by the row-form reference and by each column
// kernel the host can run.
func BenchmarkCholesky(b *testing.B) {
	for _, n := range []int{120, 150} {
		a := gpShaped(rand.New(rand.NewSource(int64(n))), n)
		b.Run(fmt.Sprintf("n=%d/row form", n), func(b *testing.B) {
			for range b.N {
				if _, err := rowCholesky(a); err != nil {
					b.Fatal(err)
				}
			}
		})
		for name, col := range cholKernels() {
			b.Run(fmt.Sprintf("n=%d/%s", n, name), func(b *testing.B) {
				c := new(Cholesky)
				for range b.N {
					if err := c.factorize(a, col); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
