package eig

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/sparse"
)

// benchGram builds an n×n PSD matrix as the Gram of a 64×n data block
// with geometrically scaled rows — the ISVD workload shape (Gram of a
// wide data matrix with spectral decay, intrinsic rank 64).
func benchGram(n int) *matrix.Dense {
	rng := rand.New(rand.NewSource(91))
	w := matrix.New(64, n)
	scale := 1.0
	for i := 0; i < 64; i++ {
		row := w.RowView(i)
		for j := range row {
			row[j] = scale * rng.NormFloat64()
		}
		scale *= 0.9
	}
	return matrix.TMul(w, w)
}

// BenchmarkEigFullSymEig is the full-solver baseline of BENCH_eig.json
// (seed column: the solver every consumer ran before the truncated path).
func BenchmarkEigFullSymEig(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		a := benchGram(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := SymEig(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTruncatedSymEig(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		a := benchGram(n)
		op := NewDenseSymOp(a)
		b.Run(fmt.Sprintf("n=%d/r=20", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := TruncatedSymEig(op, 20, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchWide(n int) *matrix.Dense {
	rng := rand.New(rand.NewSource(93))
	w := matrix.New(64, n)
	scale := 1.0
	for i := 0; i < 64; i++ {
		row := w.RowView(i)
		for j := range row {
			row[j] = scale * rng.NormFloat64()
		}
		scale *= 0.9
	}
	return w
}

// BenchmarkEigFullSVD / BenchmarkTruncatedSVD compare the endpoint-SVD
// path (ISVD0/1) on a wide 64×n data matrix.
func BenchmarkEigFullSVD(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		a := benchWide(n)
		b.Run(fmt.Sprintf("64x%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SVD(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTruncatedSVD(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		a := benchWide(n)
		op := NewDenseOp(a)
		b.Run(fmt.Sprintf("64x%d/r=20", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := TruncatedSVD(op, 20, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sparseDecayOp builds an n×n CSR operator (the production
// sparse.Operator) with a fixed stored-entry budget regardless of n:
// decaying rank-1 patches of 8×8 cells. Per-sweep solver cost is
// O(NNZ·(r+p)), so ns/op should stay roughly flat as n² grows — the
// matrix-free scaling the ISVD sparse path relies on.
func sparseDecayOp(n, nnz int) (Op, int) {
	rng := rand.New(rand.NewSource(97))
	acc := map[[2]int]float64{}
	scale := 1.0
	for len(acc) < nnz {
		ris := rng.Perm(n)[:8]
		cis := rng.Perm(n)[:8]
		for _, r := range ris {
			for _, c := range cis {
				acc[[2]int{r, c}] += scale * rng.NormFloat64()
			}
		}
		scale *= 0.85
		if scale < 1e-4 {
			scale = 1e-4
		}
	}
	ts := make([]sparse.Triplet, 0, len(acc))
	for rc, v := range acc {
		ts = append(ts, sparse.Triplet{Row: rc[0], Col: rc[1], Val: v})
	}
	csr, err := sparse.FromCOO(n, n, ts)
	if err != nil {
		panic(err)
	}
	return sparse.NewOperator(csr), csr.NNZ()
}

func BenchmarkTruncatedSVDSparseFixedNNZ(b *testing.B) {
	const nnz = 40000
	for _, n := range []int{512, 1024, 2048} {
		op, gotNNZ := sparseDecayOp(n, nnz)
		b.Run(fmt.Sprintf("n=%d/nnz=%d/r=20", n, gotNNZ), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := TruncatedSVD(op, 20, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSVDWide141x252 times the full SVD on the shape of a ratings
// endpoint (MovieLensLike at scale 0.15, ~5% of cells stored): the
// dense fallback a warm refresh ran per endpoint, when its truncated
// solve gave up on a flat spectrum, before BenchmarkGramSVD141x252's
// solver replaced it.
func BenchmarkSVDWide141x252(b *testing.B) {
	a := ratingsLike(rand.New(rand.NewSource(10)), 141, 252, 0.05)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SVD(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGramSVD141x252 times the warm refresh's per-endpoint solve
// on the same ratings shape as BenchmarkSVDWide141x252, through the
// sparse operator the refresh uses: the rank-10 truncated attempt on
// the 141×141 Gram gives up on the flat spectrum, then the SymEig of
// the Gram built from the CSR runs and U, Σ, V are recovered.
func BenchmarkGramSVD141x252(b *testing.B) {
	a := ratingsLike(rand.New(rand.NewSource(10)), 141, 252, 0.05)
	op := sparse.NewOperator(sparse.FromDense(a))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GramSVD(op, 10, SolverAuto, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
