package eig

import (
	"math"

	"repro/internal/matrix"
)

// PInv returns the Moore-Penrose pseudo-inverse of a, computed from the
// SVD. Singular values below cutoff are treated as zero, mirroring the
// paper's Section 4.4.2.2 ("replace singular values smaller than 0.1 with
// zero") — pass 0.1 for paper-faithful behaviour, or a relative threshold
// of your own. A cutoff <= 0 selects the conventional machine-precision
// threshold max(m,n)·σ₁·1e-15.
func PInv(a *matrix.Dense, cutoff float64) (*matrix.Dense, error) {
	return PInvWith(a, cutoff, SolverFull, 0)
}

// PInvWith is PInv with an explicit solver choice. rank bounds the
// truncated decomposition (0 or anything at or above min(m, n) means the
// full minimum dimension); when the truncated path is taken, singular
// triplets beyond rank are treated as zero — callers that know their
// matrix has at most rank meaningful singular values (the ISVD factor
// inversions) lose nothing. SolverAuto only routes to the truncated
// solver when rank is well below min(m, n) (see Solver.UseTruncated), and
// RoutedSVD falls back to the full decomposition on any truncated
// non-convergence, so PInvWith never fails where PInv would succeed.
func PInvWith(a *matrix.Dense, cutoff float64, solver Solver, rank int) (*matrix.Dense, error) {
	res, err := RoutedSVD(NewDenseOp(a), rank, solver, func() *matrix.Dense { return a })
	if err != nil {
		return nil, err
	}
	if cutoff <= 0 {
		dim := a.Rows
		if a.Cols > dim {
			dim = a.Cols
		}
		if len(res.S) > 0 {
			cutoff = float64(dim) * res.S[0] * 1e-15
		}
	}
	// pinv = V · diag(1/s) · Uᵀ for s > cutoff: scale V's columns by the
	// inverted singular values, then run the blocked MulT kernel —
	// out[i][j] = Σ_t (V[i][t]·inv[t]) · U[j][t] in the same ascending t
	// order as the former triple loop (bitwise identical for the finite
	// factors an SVD produces), but cache-blocked and pool-sharded.
	k := len(res.S)
	inv := make([]float64, k)
	for i, s := range res.S {
		if s > cutoff {
			inv[i] = 1 / s
		}
	}
	vs := matrix.New(a.Cols, k)
	for i := 0; i < a.Cols; i++ {
		row := res.V.RowView(i)
		out := vs.RowView(i)
		for t, v := range row[:k] {
			out[t] = v * inv[t]
		}
	}
	return matrix.MulTInto(matrix.New(a.Cols, a.Rows), vs, res.U), nil
}

// Cond2 returns the 2-norm condition number σ_max/σ_min of a.
// A singular matrix reports +Inf (as does an SVD failure).
func Cond2(a *matrix.Dense) float64 {
	res, err := SVD(a)
	if err != nil || len(res.S) == 0 {
		return inf()
	}
	smin := res.S[len(res.S)-1]
	if smin == 0 {
		return inf()
	}
	return res.S[0] / smin
}

func inf() float64 { return math.Inf(1) }
