package update

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/matrix"
)

// gsDigest hashes the exact bits of a Gram-Schmidt result: the shapes
// of q and r, then every float64 of q and r in storage order (FNV-64a).
func gsDigest(q, r *matrix.Dense) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, d := range []int{q.Rows, q.Cols, r.Rows, r.Cols} {
		put(uint64(d))
	}
	for _, block := range [][]float64{q.Data, r.Data} {
		for _, x := range block {
			put(math.Float64bits(x))
		}
	}
	return h.Sum64()
}

func gsRand(seed int64, rows, cols int) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// gsDependent returns a dim×6 block whose column 3 is exactly
// 2·col0 − col1 (its residual collapses below gsDropTol and is dropped)
// and whose column 5 is exactly zero.
func gsDependent(seed int64, dim int) *matrix.Dense {
	m := gsRand(seed, dim, 6)
	for i := 0; i < dim; i++ {
		m.Set(i, 3, 2*m.At(i, 0)-m.At(i, 1))
		m.Set(i, 5, 0)
	}
	return m
}

// gsDigestCases are the inputs of TestGramSchmidtBitwiseDigests, given
// in gsCols orientation (dim×c); gsRowsInPlace is pinned on their
// transposes.
var gsDigestCases = []struct {
	name               string
	gen                func() *matrix.Dense
	wantCols, wantRows uint64
}{
	{"cellpatch-384x120", func() *matrix.Dense { return gsRand(1, 384, 120) }, 0x8c3aa12499b848d9, 0xb5aa20b816dd3bdd},
	{"tall-141x9", func() *matrix.Dense { return gsRand(2, 141, 9) }, 0x410af8d74ddfbe4a, 0xf042aadc8bf8a362},
	{"single-50x1", func() *matrix.Dense { return gsRand(3, 50, 1) }, 0xbd9f3cede954809f, 0x957160f0fbe8ba7f},
	{"dependent-and-zero-50x6", func() *matrix.Dense { return gsDependent(4, 50) }, 0xa9631067386ace8e, 0x91a4e2b532974a2a},
}

// TestGramSchmidtBitwiseDigests pins the exact bits of both
// Gram-Schmidt orientations, including a column that collapses below
// gsDropTol and an all-zero column, and checks that gsCols is exactly
// the transpose of gsRowsInPlace on a copy of the transposed input.
// Like the SVD digests these assume amd64 floating point (no fused
// multiply-add).
func TestGramSchmidtBitwiseDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are recorded for amd64 floating point; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	for _, tc := range gsDigestCases {
		a := tc.gen()
		qc, rc := gsCols(a)
		qr := a.T()
		rr := gsRowsInPlace(qr)
		if got := gsDigest(qc, rc); got != tc.wantCols {
			t.Errorf("%s: gsCols digest %#016x, want %#016x", tc.name, got, tc.wantCols)
		}
		if got := gsDigest(qr, rr); got != tc.wantRows {
			t.Errorf("%s: gsRowsInPlace digest %#016x, want %#016x", tc.name, got, tc.wantRows)
		}
		if gsDigest(qc, rc) != gsDigest(qr.T(), rr.T()) {
			t.Errorf("%s: gsCols(a) differs from gsRowsInPlace(aᵀ)ᵀ", tc.name)
		}
	}
}

// TestGSColsDropsCollapsedColumn checks the drop rule on the dependent
// input: the collapsed and zero columns of q are exactly zero, their
// diagonal r entries are zero, and the dependent column's coefficients
// survive in r (a = q·r still holds).
func TestGSColsDropsCollapsedColumn(t *testing.T) {
	a := gsDependent(4, 50)
	q, r := gsCols(a)
	for _, j := range []int{3, 5} {
		if r.At(j, j) != 0 {
			t.Errorf("r[%d][%d] = %g, want 0", j, j, r.At(j, j))
		}
		for i := 0; i < q.Rows; i++ {
			if q.At(i, j) != 0 {
				t.Fatalf("q[%d][%d] = %g, want exactly 0", i, j, q.At(i, j))
			}
		}
	}
	if !matrix.Equal(matrix.Mul(q, r), a, 1e-12) {
		t.Fatal("q·r does not reproduce a")
	}
}
