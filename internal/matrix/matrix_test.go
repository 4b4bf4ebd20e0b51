package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randDense(r *rand.Rand, rows, cols int) *Dense {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 3) did not panic")
		}
	}()
	New(0, 3)
}

func TestFromRowsAndAccess(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatal("element access wrong")
	}
	m.Set(1, 1, 9)
	if m.At(1, 1) != 9 {
		t.Fatal("Set failed")
	}
	if r := m.Row(0); r[0] != 1 || r[1] != 2 {
		t.Fatal("Row wrong")
	}
	if c := m.Col(1); c[0] != 2 || c[1] != 9 {
		t.Fatal("Col wrong")
	}
}

func TestIdentityDiag(t *testing.T) {
	i3 := Identity(3)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			want := 0.0
			if r == c {
				want = 1
			}
			if i3.At(r, c) != want {
				t.Fatalf("I[%d][%d] = %g", r, c, i3.At(r, c))
			}
		}
	}
	d := Diag([]float64{2, 5})
	if d.At(0, 0) != 2 || d.At(1, 1) != 5 || d.At(0, 1) != 0 {
		t.Fatal("Diag wrong")
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := Mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !Equal(got, want, 0) {
		t.Fatalf("Mul:\n%v", got)
	}
}

func TestMulTAndTMulAgree(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := randDense(r, 4, 6)
	b := randDense(r, 5, 6)
	if !Equal(MulT(a, b), Mul(a, b.T()), 1e-12) {
		t.Error("MulT != Mul(a, bᵀ)")
	}
	c := randDense(r, 4, 3)
	if !Equal(TMul(a, c), Mul(a.T(), c), 1e-12) {
		t.Error("TMul != Mul(aᵀ, c)")
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a := randDense(r, 3, 7)
	if !Equal(a.T().T(), a, 0) {
		t.Error("(Aᵀ)ᵀ != A")
	}
}

// TestTransposeInPlaceMatchesT checks the in-place transpose against the
// out-of-place one bitwise, over square, single-row/column and
// rectangular shapes whose permutation has many short or few long cycles.
func TestTransposeInPlaceMatchesT(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, s := range [][2]int{{1, 1}, {1, 9}, {9, 1}, {2, 2}, {5, 5}, {2, 3}, {3, 2},
		{4, 8}, {7, 13}, {64, 3}, {3, 64}, {141, 252}, {384, 120}} {
		a := randDense(r, s[0], s[1])
		want := a.T()
		got := a.Clone()
		got.TransposeInPlace()
		requireBitwiseEqual(t, "TransposeInPlace", want, got)
	}
}

func TestAddSubScaleMean(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3, 10}})
	if got := Add(a, b); got.At(0, 1) != 12 {
		t.Error("Add wrong")
	}
	if got := Sub(b, a); got.At(0, 0) != 2 {
		t.Error("Sub wrong")
	}
	if got := a.Scale(3); got.At(0, 1) != 6 {
		t.Error("Scale wrong")
	}
	if got := Mean(a, b); got.At(0, 0) != 2 || got.At(0, 1) != 6 {
		t.Error("Mean wrong")
	}
}

func TestFrobeniusAndMaxAbs(t *testing.T) {
	m := FromRows([][]float64{{3, 0}, {0, -4}})
	if m.Frobenius() != 5 {
		t.Errorf("Frobenius = %g", m.Frobenius())
	}
	if m.MaxAbs() != 4 {
		t.Errorf("MaxAbs = %g", m.MaxAbs())
	}
}

func TestNormalizeColumns(t *testing.T) {
	m := FromRows([][]float64{{3, 0}, {4, 0}})
	norms := m.NormalizeColumns()
	if math.Abs(norms[0]-5) > 1e-12 || norms[1] != 0 {
		t.Fatalf("norms = %v", norms)
	}
	if math.Abs(m.ColNorm(0)-1) > 1e-12 {
		t.Error("column not unit after normalize")
	}
	if m.At(0, 1) != 0 {
		t.Error("zero column modified")
	}
}

func TestSubMatrix(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := m.SubMatrix(1, 3, 0, 2)
	want := FromRows([][]float64{{4, 5}, {7, 8}})
	if !Equal(s, want, 0) {
		t.Fatalf("SubMatrix:\n%v", s)
	}
}

func TestInverseKnown(t *testing.T) {
	a := FromRows([][]float64{{4, 7}, {2, 6}})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(Mul(a, inv), Identity(2), 1e-12) {
		t.Fatalf("A·A⁻¹ != I:\n%v", Mul(a, inv))
	}
}

func TestInverseSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Inverse(a); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestSolve(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	b := FromRows([][]float64{{5}, {10}})
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(Mul(a, x), b, 1e-12) {
		t.Fatalf("Solve residual: %v", Sub(Mul(a, x), b))
	}
}

func TestIsFinite(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	if !m.IsFinite() {
		t.Error("finite matrix reported non-finite")
	}
	m.Set(0, 0, math.NaN())
	if m.IsFinite() {
		t.Error("NaN matrix reported finite")
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestPropTransposeOfProduct(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randDense(r, 2+r.Intn(4), 2+r.Intn(4))
		b := randDense(r, a.Cols, 2+r.Intn(4))
		return Equal(Mul(a, b).T(), Mul(b.T(), a.T()), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: random well-conditioned matrices invert to identity.
func TestPropInverseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		a := randDense(r, n, n)
		// Diagonal dominance guarantees invertibility.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		inv, err := Inverse(a)
		if err != nil {
			return false
		}
		return Equal(Mul(a, inv), Identity(n), 1e-8) && Equal(Mul(inv, a), Identity(n), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Solve agrees with Inverse·b.
func TestPropSolveAgainstInverse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		a := randDense(r, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		b := randDense(r, n, 2)
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		inv, err := Inverse(a)
		if err != nil {
			return false
		}
		return Equal(x, Mul(inv, b), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
