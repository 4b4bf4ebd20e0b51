package eig

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/matrix"
)

func TestSymEig1x1(t *testing.T) {
	vals, vecs, err := SymEig(matrix.FromRows([][]float64{{7}}))
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 7 || math.Abs(math.Abs(vecs.At(0, 0))-1) > 1e-12 {
		t.Fatalf("vals=%v vecs=%v", vals, vecs)
	}
}

func TestSymEigRepeatedEigenvalues(t *testing.T) {
	// 3·I has a triple eigenvalue; eigenvectors must still be orthonormal.
	a := matrix.Identity(4).Scale(3)
	vals, vecs, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if math.Abs(v-3) > 1e-12 {
			t.Fatalf("vals = %v", vals)
		}
	}
	if !matrix.Equal(matrix.TMul(vecs, vecs), matrix.Identity(4), 1e-10) {
		t.Fatal("eigenvectors not orthonormal under degeneracy")
	}
}

func TestSymEigExtremeScales(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, scale := range []float64{1e-12, 1e-6, 1e6, 1e12} {
		n := 8
		a := matrix.New(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := r.NormFloat64() * scale
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, vecs, err := SymEig(a)
		if err != nil {
			t.Fatalf("scale %g: %v", scale, err)
		}
		recon := matrix.Mul(matrix.Mul(vecs, matrix.Diag(vals)), vecs.T())
		if matrix.Sub(recon, a).Frobenius()/a.Frobenius() > 1e-9 {
			t.Fatalf("scale %g: relative error %g", scale,
				matrix.Sub(recon, a).Frobenius()/a.Frobenius())
		}
	}
}

func TestSymEigZeroMatrix(t *testing.T) {
	vals, vecs, err := SymEig(matrix.New(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if v != 0 {
			t.Fatalf("vals = %v", vals)
		}
	}
	if !matrix.Equal(matrix.TMul(vecs, vecs), matrix.Identity(3), 1e-12) {
		t.Fatal("zero matrix eigenvectors not orthonormal")
	}
}

func TestSVDSingleRowAndColumn(t *testing.T) {
	row := matrix.FromRows([][]float64{{3, 4}})
	res, err := SVD(row)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.S[0]-5) > 1e-12 {
		t.Fatalf("row σ = %v", res.S)
	}
	col := matrix.FromRows([][]float64{{3}, {4}})
	res, err = SVD(col)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.S[0]-5) > 1e-12 {
		t.Fatalf("col σ = %v", res.S)
	}
}

func TestSVDIllConditioned(t *testing.T) {
	// Hilbert-like matrix: notoriously ill-conditioned, still must
	// reconstruct to near machine precision.
	n := 8
	a := matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, 1/float64(i+j+1))
		}
	}
	res, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	recon := matrix.Mul(matrix.Mul(res.U, matrix.Diag(res.S)), res.V.T())
	if matrix.Sub(recon, a).Frobenius()/a.Frobenius() > 1e-10 {
		t.Fatal("Hilbert reconstruction failed")
	}
	// Singular values strictly descending, positive, spanning many orders.
	if res.S[0]/res.S[n-1] < 1e8 {
		t.Fatalf("Hilbert condition suspiciously small: %g", res.S[0]/res.S[n-1])
	}
}

func TestSVDDuplicateSingularValues(t *testing.T) {
	// Orthogonal matrix: all singular values 1.
	a := matrix.FromRows([][]float64{
		{0, 1, 0},
		{0, 0, 1},
		{1, 0, 0},
	})
	res, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.S {
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("σ = %v", res.S)
		}
	}
}

// TestSVDNearOrthonormalConverges pins solver totality on the input that
// used to stall Golub-Reinsch: the 384×16 V midpoint ISVD4 inverts for
// a window-churn base (servebench's windowTenant("t3", 384, 24000, 16,
// 120, 120, 4, 0.95, 0.85) drawn from rand.NewSource(6000027003)),
// checked in bit-exact as little-endian float64s in row order. Its
// columns are nearly orthonormal, so all 16 singular values are
// 1 ± 3e-15; at k=6 rv1 settles at half an ulp of anorm, where the
// textbook split test |rv1|+anorm == anorm rounds up and never fires.
func TestSVDNearOrthonormalConverges(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "svd_stall_384x16.bin"))
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.New(384, 16)
	if len(raw) != 8*len(a.Data) {
		t.Fatalf("fixture holds %d bytes, want %d", len(raw), 8*len(a.Data))
	}
	for i := range a.Data {
		a.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	res, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	checkSVD(t, a, res, "near-orthonormal 384x16")
	for _, s := range res.S {
		if math.Abs(s-1) > 1e-13 {
			t.Fatalf("σ = %v, want all ≈ 1", res.S)
		}
	}
	if _, err := PInv(a, 0); err != nil {
		t.Fatalf("PInv: %v", err)
	}
}

func TestPInvZeroMatrix(t *testing.T) {
	p, err := PInv(matrix.New(3, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range p.Data {
		if v != 0 {
			t.Fatal("pinv of zero matrix not zero")
		}
	}
}
