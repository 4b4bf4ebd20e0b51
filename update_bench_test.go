package ivmf_test

// Streaming-update benchmarks backing BENCH_update.json: cold full
// decomposition vs additive factor update vs warm-started refresh on
// n×n sparse interval matrices with a fixed stored-cell budget and
// spectral decay (the regime the truncated solver serves; same
// construction family as the internal/eig solver benchmarks). Batches
// patch the stored cells of whole rows — the arriving-ratings shape,
// where a batch's factor rank is its touched-row count — at 0.1%, 1%,
// and 10% of NNZ.
//
// The committed BENCH_update.json pins the acceptance numbers: the
// additive update is >=5x faster than a full redecomposition at batches
// <=1% of NNZ (1024^2, r=20), and a warm-started truncated re-solve of
// drifted data is >=2x faster than the cold solve.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eig"
	"repro/internal/sparse"
)

// benchStreamMatrix builds an n×n non-negative sparse interval matrix
// with ~nnz stored cells from decaying rank-1 8×8 patches (spectral
// decay → the truncated solver converges; non-negative endpoints → every
// ISVD method is updatable).
func benchStreamMatrix(n, nnz int) *sparse.ICSR {
	rng := rand.New(rand.NewSource(101))
	acc := map[[2]int]float64{}
	scale := 1.0
	for len(acc) < nnz {
		ris := rng.Perm(n)[:8]
		cis := rng.Perm(n)[:8]
		for _, r := range ris {
			for _, c := range cis {
				acc[[2]int{r, c}] += scale * math.Abs(rng.NormFloat64())
			}
		}
		scale *= 0.85
		if scale < 1e-4 {
			scale = 1e-4
		}
	}
	ts := make([]sparse.ITriplet, 0, len(acc))
	for rc, v := range acc {
		ts = append(ts, sparse.ITriplet{Row: rc[0], Col: rc[1], Lo: v, Hi: 1.2 * v})
	}
	m, err := sparse.FromICOO(n, n, ts)
	if err != nil {
		panic(err)
	}
	return m
}

// rowBatch builds a cell-patch delta over whole stored rows totalling
// roughly frac of the matrix's NNZ (scaling every touched cell by 1.01)
// — the arriving-ratings batch shape whose factor rank is the touched
// row count.
func rowBatch(m *sparse.ICSR, frac float64) core.Delta {
	target := int(float64(m.NNZ()) * frac)
	if target < 1 {
		target = 1
	}
	var patch []sparse.ITriplet
	for i := 0; i < m.Rows && len(patch) < target; i++ {
		cols, lo, hi := m.RowView(i)
		for p, j := range cols {
			patch = append(patch, sparse.ITriplet{Row: i, Col: j, Lo: lo[p] * 1.01, Hi: hi[p] * 1.01})
		}
	}
	return core.Delta{Patch: patch}
}

const benchUpdateNNZ = 40000

func benchUpdateOpts() core.Options {
	return core.Options{Rank: 20, Target: core.TargetB, Updatable: true}
}

// BenchmarkUpdateColdDecompose is the from-scratch baseline every
// arriving batch previously paid: a full sparse redecomposition.
func BenchmarkUpdateColdDecompose(b *testing.B) {
	for _, n := range []int{512, 1024} {
		m := benchStreamMatrix(n, benchUpdateNNZ)
		// The baseline pays exactly what a non-streaming consumer would:
		// no Updatable state capture.
		opts := benchUpdateOpts()
		opts.Updatable = false
		b.Run(fmt.Sprintf("n=%d/r=20", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.DecomposeSparse(m, core.ISVD4, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUpdateAdditive is the engine's additive path: Brand factor
// fold plus the factor-sized pipeline re-run, no re-solve.
func BenchmarkUpdateAdditive(b *testing.B) {
	for _, n := range []int{512, 1024} {
		m := benchStreamMatrix(n, benchUpdateNNZ)
		d, err := core.DecomposeSparse(m, core.ISVD4, benchUpdateOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, frac := range []float64{0.001, 0.01, 0.10} {
			delta := rowBatch(m, frac)
			b.Run(fmt.Sprintf("n=%d/r=20/batch=%g%%", n, frac*100), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := d.Update(delta, core.Options{RefreshBudget: math.Inf(1)}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkUpdateWarmRefresh forces the refresh path on every batch:
// additive fold plus a warm-started re-solve of both endpoints from the
// updated matrix. The decaying n×n cases converge on the truncated
// solver; the flat ratings case is the read-under-write shape, whose
// truncated solve gives up and falls back to the Gram SymEig.
func BenchmarkUpdateWarmRefresh(b *testing.B) {
	for _, n := range []int{512, 1024} {
		m := benchStreamMatrix(n, benchUpdateNNZ)
		d, err := core.DecomposeSparse(m, core.ISVD4, benchUpdateOpts())
		if err != nil {
			b.Fatal(err)
		}
		delta := rowBatch(m, 0.01)
		b.Run(fmt.Sprintf("n=%d/r=20/batch=1%%", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.Update(delta, core.Options{RefreshBudget: math.Inf(-1)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	d, delta := ratingsStream(b)
	b.Run("ratings141x252/r=10/patch=0.3%", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := d.Update(delta, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ratingsStream returns the read-under-write tenant shape: an updatable
// ISVD4 rank-10 decomposition of the base cells of a
// MovieLensLike().Scaled(0.15) ratings matrix (141×252, flat spectrum
// past rank 10) and its first arriving 0.3% patch, which warm-refreshes
// under the default budget (checked here).
func ratingsStream(b *testing.B) (*core.Decomposition, core.Delta) {
	rng := rand.New(rand.NewSource(41))
	data, err := dataset.GenerateRatings(dataset.MovieLensLike().Scaled(0.15), rng)
	if err != nil {
		b.Fatal(err)
	}
	m := data.CFIntervalsCSR()
	base, patches, err := dataset.StreamSplit(m, 0.003*150, 150, rng)
	if err != nil {
		b.Fatal(err)
	}
	bm, err := sparse.FromICOO(m.Rows, m.Cols, base)
	if err != nil {
		b.Fatal(err)
	}
	d, err := core.DecomposeSparse(bm, core.ISVD4, core.Options{Rank: 10, Target: core.TargetB, Updatable: true})
	if err != nil {
		b.Fatal(err)
	}
	delta := core.Delta{Patch: patches[0]}
	d2, err := d.Update(delta, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if h := d2.Health(); h.Refreshes != 1 || h.Redecomposes != 0 {
		b.Fatalf("ratings patch: health %+v, want one warm refresh", h)
	}
	return d, delta
}

// BenchmarkWarmStartTruncatedSVD isolates the warm-start win inside the
// solver: re-decomposing a drifted sparse matrix cold vs seeded with the
// pre-drift factors (eig.Options.StartU/StartV).
func BenchmarkWarmStartTruncatedSVD(b *testing.B) {
	for _, n := range []int{512, 1024} {
		m := benchStreamMatrix(n, benchUpdateNNZ)
		prev, err := eig.TruncatedSVD(sparse.NewOperator(m.LoCSR()), 20, eig.Options{})
		if err != nil {
			b.Fatal(err)
		}
		// Drift: scale one small row batch, ~0.1% of NNZ — the
		// accumulated-drift scale at which the default budget re-solves.
		drifted, err := m.ApplyCells(rowBatch(m, 0.001).Patch, nil)
		if err != nil {
			b.Fatal(err)
		}
		op := sparse.NewOperator(drifted.LoCSR())
		b.Run(fmt.Sprintf("n=%d/r=20/cold", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eig.TruncatedSVD(op, 20, eig.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/r=20/warm", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eig.TruncatedSVD(op, 20, eig.Options{StartU: prev.U, StartV: prev.V}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
