package update

import (
	"math"
	"math/rand"

	"repro/internal/eig"
	"repro/internal/matrix"
	"repro/internal/sparse"
)

// The compressed Brand step for wide cell patches. A scattered patch
// that touches c distinct rows and c' distinct columns is a rank
// min(c, c') batch, and the exact step (LowRank) pays an in-order
// Gram-Schmidt over (m+n)×c and a (r+c)² core for it — yet at most
// `rank` new directions survive the truncation. sketchedPatch instead
// extends the bases by a fixed number of directions:
//
//   - right: Q = orth((I−VVᵀ)·ΔAᵀ·[U G]), k = r + g columns, where G is
//     a seeded m×g Gaussian block (a randomized range finder, Halko,
//     Martinsson & Tropp, SIAM Review 2011) with g = sketchOversample
//     plus any rank growth. ΔAᵀ·U is the first-order tilt of the kept
//     right singular vectors, (I−VVᵀ)·ΔAᵀ·uᵢ/σᵢ, so the kept subspace
//     follows the exact step; G catches patch structure U does not see.
//     With a purely Gaussian block the ISVD4 U rebuild drifted about 3×
//     faster than on the exact step over a 120-update window-churn
//     chain (3 redecomposes against 1); with [U G] the drift, refresh
//     and redecompose trajectory matched the exact step's;
//   - left: P = orth((I−UUᵀ)·ΔA·[V Q]), exact on the extended right
//     basis R = [V Q].
//
// The core K = Lᵀ(UΣVᵀ + ΔA)R over L = [U P] is (2r+k)×(r+k), and
// because ΔA·R lies in span L the step satisfies (A+ΔA)·V′ = U′·Σ′ to
// rounding for every kept pair — the mass it drops is orthogonal to
// every kept right vector. That identity is what keeps the ISVD3/4 U
// rebuild from the data (U = A·V·Σ⁻¹) orthonormal across a chain of
// sketched updates; a one-sided sketch (L from a random block too)
// breaks it. The dropped mass ‖(A+ΔA)(I−RRᵀ)‖_F is returned in the
// discarded total so the caller's refresh budget sees it.

// sketchOversample is the number of Gaussian columns in the right
// test block beyond the kept rank: k = rank + sketchOversample.
const sketchOversample = 8

// sketchSeed seeds the Gaussian columns. A fixed constant, so a
// sketched update is a pure function of the factors and the patch.
const sketchSeed = 0x5ce7c4ed

// sketchedPatch is CellPatch's compressed step: the rank-truncated SVD
// of A + ΔA for the (row, col)-sorted, validated cells of ΔA, with a
// k-column right sketch (k > r). Cost O(nnz·(r+k) + (m+n)·(r+k)²)
// against the exact step's O((m+n)·c²). The second return value is the
// core's truncation tail plus the mass outside the extended right
// basis.
func sketchedPatch(f *eig.SVDResult, cells []sparse.Triplet, rank, k int) (*eig.SVDResult, float64, error) {
	m, n, r := f.U.Rows, f.V.Rows, len(f.S)
	rank = clampRank(rank, r, r+k, m, n)

	// Y = ΔAᵀ·[U G] straight from the cells; G is filled serially in
	// row-major order, so it depends only on (m, k−r).
	omega := matrix.New(m, k)
	rng := rand.New(rand.NewSource(sketchSeed))
	for i := 0; i < m; i++ {
		row := omega.RowView(i)
		copy(row, f.U.RowView(i))
		for j := r; j < k; j++ {
			row[j] = rng.NormFloat64()
		}
	}
	y := matrix.New(n, k)
	for _, t := range cells {
		axpy(y.RowView(t.Col), t.Val, omega.RowView(t.Row))
	}
	_, q, _ := extendBasis(f.V, y) // n×k

	// Z = ΔA·R for R = [V Q], again from the cells; the left extension
	// is exact on it.
	z := matrix.New(m, r+k)
	var deltaSq float64
	for _, t := range cells {
		zrow := z.RowView(t.Row)
		axpy(zrow[:r], t.Val, f.V.RowView(t.Col))
		axpy(zrow[r:], t.Val, q.RowView(t.Col))
		deltaSq += t.Val * t.Val
	}
	// Mass outside span R: ‖(A+ΔA)(I−RRᵀ)‖² = ‖ΔA‖² − ‖ΔA·R‖², since
	// the model's rows already lie in span V ⊆ span R. This equals
	// ‖A+ΔA‖² − ‖K‖² without the cancellation against ‖Σ‖².
	lost := deltaSq - sumSq(z.Data)
	mz, p, rz := extendBasis(f.U, z) // Z = U·Mz + P·Rz, P m×(r+k)

	// Core K = Lᵀ·([U·Σ 0] + Z) = [diag(S) 0; 0 0] + [Mz; Rz]: the
	// extension's own coefficients are UᵀZ and PᵀZ, as in LowRank.
	kc := stack(mz, rz)
	for i := 0; i < r; i++ {
		kc.Data[i*kc.Cols+i] += f.S[i]
	}

	uk, s, vk, disc, err := coreSVD(kc, rank)
	if err != nil {
		return nil, 0, err
	}
	if lost > 0 {
		disc = math.Sqrt(disc*disc + lost)
	}
	return rotate(f, p, q, uk, s, vk), disc, nil
}

// axpy adds a·x to y in place (len(x) = len(y)).
func axpy(y []float64, a float64, x []float64) {
	x = x[:len(y)]
	for i, xv := range x {
		y[i] += a * xv
	}
}
