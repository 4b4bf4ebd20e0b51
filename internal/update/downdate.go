package update

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/eig"
	"repro/internal/matrix"
	"repro/internal/sparse"
)

// The decremental half of the engine: sliding windows expire rows,
// columns, and cells, and long-lived streams decay old evidence with a
// forgetting factor. A downdate is algebraically just a low-rank update
// with the removed content negated — RemoveRows zeroes the departing
// rows by adding p·qᵀ where p holds row indicators and q the negated
// model rows, then compacts the zeroed rows out of the left factor; an
// expired cell is a CellPatch of its negated value — but numerically it
// is the dangerous direction: where an append can only grow the
// spectrum, a removal cancels mass against the retained singular
// values, and when the removed mass approaches σ_r the trailing
// directions are recovered from a near-zero difference. RemoveRows
// therefore measures the one damage only it can see — the zeroing
// residual of the removed rows, which the compaction deletes — and
// refuses to return garbage: a residual past tolerance surfaces as an
// *IllConditionedError (errors.Is ErrIllConditioned) so the engine in
// internal/core can escalate to a redecompose. Orthogonality loss is
// left to that engine's health gate (FactorDrift against
// Options.OrthoBudget), which sees every step's output, and mass that
// the core eigensolve silently floors to zero is folded into the
// Discarded return value so the RefreshBudget accounting sees it.

// downdateZeroTol bounds the relative zeroing residual of a removal:
// the updated factors' claim about a removed row must vanish against
// σ₁, since the model removes its own reconstruction of the row. Above
// this the downdate destroyed information it meant to keep.
const downdateZeroTol = 1e-8

// ErrIllConditioned marks a removal whose cancellation left the
// removed rows (or columns) in the factors beyond downdateZeroTol. The
// factors are withheld; the caller keeps its previous state and should
// rebuild the factors from the post-removal matrix.
var ErrIllConditioned = errors.New("update: downdate is ill-conditioned")

// ErrNonFinite marks a NaN or Inf appearing in a factor. A non-finite
// state must never be published: every entry it touches in a product is
// poisoned.
var ErrNonFinite = errors.New("update: non-finite factor entry")

// IllConditionedError carries the removal health measurements that
// tripped; it unwraps to ErrIllConditioned.
type IllConditionedError struct {
	Op           string  // "RemoveRows" or "RemoveCols"
	RemovedMass  float64 // Frobenius mass of the removed content
	SigmaMin     float64 // smallest non-zero retained σ before the downdate
	ZeroResidual float64 // max relative residual of a removed row/col
}

func (e *IllConditionedError) Error() string {
	return fmt.Sprintf("update: %s: downdate is ill-conditioned (removed mass %.3g vs σ_min %.3g, zero residual %.3g)",
		e.Op, e.RemovedMass, e.SigmaMin, e.ZeroResidual)
}

func (e *IllConditionedError) Unwrap() error { return ErrIllConditioned }

// FactorDrift is the worst ‖QᵀQ−I‖∞ over both factors of f: the
// orthogonality-drift measure of the engine's health gate
// (internal/core), the one place the update engine checks it.
func FactorDrift(f *eig.SVDResult) float64 {
	return math.Max(OrthoResidual(f.U, f.S), OrthoResidual(f.V, f.S))
}

// RemoveRows returns the rank-truncated SVD of A with the given rows
// deleted (surviving rows keep their relative order), given the factors
// f of A. The removal subtracts the model's own reconstruction of the
// departing rows — exact in the model's world regardless of how much of
// the true matrix the truncated factors carry — then compacts the
// zeroed rows out of U. rank <= 0 keeps len(f.S), clamped to the
// surviving dimensions. The second return value is the Frobenius mass
// the downdate discarded: core-truncation discard plus any retained
// mass the cancellation silently floored to zero (detected by Frobenius
// accounting ‖A'‖F² = ‖A‖F² − ‖B‖F²), so budget-driven refresh logic
// sees cancellation damage even when it stays below the zeroing
// tolerance.
func RemoveRows(f *eig.SVDResult, rows []int, rank int) (*eig.SVDResult, float64, error) {
	m, n, r := f.U.Rows, f.V.Rows, len(f.S)
	sorted, err := sparse.CheckRemovalIndices("RemoveRows", rows, m)
	if err != nil {
		return nil, 0, err
	}
	c := len(sorted)
	rank = clampRank(rank, r, r+c, m-c, n)

	// w[k, l] = −S[l]·U[rows[k], l]: the removed rows in factor
	// coordinates, negated. B = U_R·Σ·Vᵀ, so q = −V·Σ·U_Rᵀ = V·wᵀ and
	// ‖B‖F = ‖w‖F (V has orthonormal-or-zero columns).
	w := matrix.New(c, r)
	for k, i := range sorted {
		urow := f.U.RowView(i)
		wrow := w.RowView(k)
		for l, sv := range f.S {
			wrow[l] = -sv * urow[l]
		}
	}
	mass := vecNorm(w.Data)
	smin := SigmaMinNonzero(f.S)

	p := matrix.New(m, c)
	for k, i := range sorted {
		p.Set(i, k, 1)
	}
	q := matrix.MulT(f.V, w) // n×c

	res, disc, err := LowRank(f, p, q, rank)
	if err != nil {
		return nil, 0, err
	}

	// Frobenius accounting: mass neither kept, counted as discarded,
	// nor removed on purpose was silently floored by the core
	// eigensolve's zero clamp — fold it into the discard so the
	// caller's residual budget accumulates it.
	preSq, postSq := sumSq(f.S), sumSq(res.S)
	if lost := preSq - mass*mass - postSq - disc*disc; lost > 0 {
		disc = math.Sqrt(disc*disc + lost)
	}

	// Zeroing residual: the rows about to be compacted away, as the
	// updated factors represent them, relative to σ₁.
	var zres float64
	for _, i := range sorted {
		var ss float64
		urow := res.U.RowView(i)
		for l, v := range urow {
			t := v * res.S[l]
			ss += t * t
		}
		zres = math.Max(zres, math.Sqrt(ss))
	}
	if len(res.S) > 0 && res.S[0] > 0 {
		zres /= res.S[0]
	}

	// Compact the zeroed rows out of U.
	u := matrix.New(m-c, rank)
	next, out := 0, 0
	for i := 0; i < m; i++ {
		if next < c && sorted[next] == i {
			next++
			continue
		}
		copy(u.RowView(out), res.U.RowView(i))
		out++
	}

	if zres > downdateZeroTol {
		return nil, 0, &IllConditionedError{
			Op: "RemoveRows", RemovedMass: mass, SigmaMin: smin, ZeroResidual: zres,
		}
	}
	return &eig.SVDResult{U: u, S: res.S, V: res.V}, disc, nil
}

// RemoveCols returns the rank-truncated SVD of A with the given columns
// deleted: the transposed counterpart of RemoveRows (swap the factor
// sides, remove as rows, swap back).
func RemoveCols(f *eig.SVDResult, cols []int, rank int) (*eig.SVDResult, float64, error) {
	res, disc, err := RemoveRows(&eig.SVDResult{U: f.V, S: f.S, V: f.U}, cols, rank)
	if err != nil {
		var ill *IllConditionedError
		if errors.As(err, &ill) {
			ill.Op = "RemoveCols"
		}
		return nil, 0, err
	}
	return &eig.SVDResult{U: res.V, S: res.S, V: res.U}, disc, nil
}

// Forget scales the retained singular values by the forgetting factor
// lambda in (0, 1]: older evidence decays exponentially with each
// applied batch, the classical forgetting of recursive least squares
// carried over to the SVD factors (the bases are untouched — decay is
// isotropic across the retained subspace). lambda = 1 is pinned as a
// bitwise no-op: the input factors are returned unchanged, no multiply
// runs. The result shares U and V with f (both engines treat factor
// states as immutable).
func Forget(f *eig.SVDResult, lambda float64) (*eig.SVDResult, error) {
	if math.IsNaN(lambda) || lambda <= 0 || lambda > 1 {
		return nil, fmt.Errorf("update: Forget: factor %v outside (0, 1]", lambda)
	}
	if lambda == 1 {
		return f, nil
	}
	s := make([]float64, len(f.S))
	for i, sv := range f.S {
		s[i] = lambda * sv
	}
	return &eig.SVDResult{U: f.U, S: s, V: f.V}, nil
}

// CheckFinite reports the first NaN or Inf in the factors as an error
// wrapping ErrNonFinite, or nil if every entry is finite.
func CheckFinite(f *eig.SVDResult) error {
	for i, sv := range f.S {
		if math.IsNaN(sv) || math.IsInf(sv, 0) {
			return fmt.Errorf("S[%d] = %v: %w", i, sv, ErrNonFinite)
		}
	}
	for i, v := range f.U.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("U[%d, %d] = %v: %w", i/f.U.Cols, i%f.U.Cols, v, ErrNonFinite)
		}
	}
	for i, v := range f.V.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("V[%d, %d] = %v: %w", i/f.V.Cols, i%f.V.Cols, v, ErrNonFinite)
		}
	}
	return nil
}

// OrthoResidual measures ‖QᵀQ − D‖∞ where D is the expected Gram
// diagonal under the factor convention of this package: 1 for columns
// carrying a non-zero singular value, 0 for the exactly-zero columns of
// null directions. Zero means a perfectly orthonormal-or-zero factor.
func OrthoResidual(q *matrix.Dense, s []float64) float64 {
	if q.Cols == 0 {
		return 0
	}
	g := matrix.TMul(q, q)
	var worst float64
	for i := 0; i < g.Rows; i++ {
		grow := g.RowView(i)
		for j, v := range grow {
			want := 0.0
			if i == j && i < len(s) && s[i] != 0 {
				want = 1
			}
			worst = math.Max(worst, math.Abs(v-want))
		}
	}
	return worst
}

// SigmaMinNonzero returns the smallest non-zero singular value of a
// descending spectrum, or 0 if the spectrum is entirely zero.
func SigmaMinNonzero(s []float64) float64 {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] > 0 {
			return s[i]
		}
	}
	return 0
}

func sumSq(s []float64) float64 {
	var t float64
	for _, v := range s {
		t += v * v
	}
	return t
}
