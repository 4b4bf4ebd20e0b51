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
// model rows, then compacts the zeroed rows out of the left factor —
// but numerically it is the dangerous direction: where an append can
// only grow the spectrum, a removal cancels mass against the retained
// singular values, and when the removed mass approaches σ_r the
// trailing directions are recovered from a near-zero difference. The
// functions here therefore measure the damage they cause (zeroing
// residual of the removed rows, ‖QᵀQ−I‖∞ orthogonality loss of the
// compacted basis) and refuse to return garbage: hard damage surfaces
// as an *IllConditionedError (errors.Is ErrIllConditioned) so the
// engine in internal/core can escalate to a refresh, and mass that the
// core eigensolve silently floors to zero is folded into the Discarded
// return value so the RefreshBudget accounting sees it.

// downdateZeroTol bounds the relative zeroing residual of a removal:
// the updated factors' claim about a removed row must vanish against
// σ₁, since the model removes its own reconstruction of the row. Above
// this the downdate destroyed information it meant to keep.
const downdateZeroTol = 1e-8

// downdateOrthoTol bounds the post-downdate ‖QᵀQ−I‖∞ of each factor:
// compaction only deletes (near-)zero rows, so orthonormality above
// this threshold means the cancellation corrupted the basis.
const downdateOrthoTol = 1e-8

// ErrIllConditioned marks a downdate whose cancellation damaged the
// factors beyond the tolerances above. The returned factors are
// withheld; the caller keeps its previous state and should escalate to
// a refresh of the post-removal matrix.
var ErrIllConditioned = errors.New("update: downdate is ill-conditioned")

// ErrNonFinite marks a NaN or Inf appearing in a factor. A non-finite
// state must never be published: every entry it touches in a product is
// poisoned.
var ErrNonFinite = errors.New("update: non-finite factor entry")

// IllConditionedError carries the downdate health measurements that
// tripped; it unwraps to ErrIllConditioned.
type IllConditionedError struct {
	Op            string  // "RemoveRows", "RemoveCols", "CellUnpatch", "CellSlide"
	RemovedMass   float64 // Frobenius mass of the removed content
	SigmaMin      float64 // smallest non-zero retained σ before the downdate
	ZeroResidual  float64 // max relative residual of a removed row/col
	OrthoResidual float64 // worst factor ‖QᵀQ−I‖∞ after the downdate
	// InputOrthoResidual is the worst factor ‖QᵀQ−I‖∞ of the input: a
	// downdate measures the orthogonality of its output, which
	// inherits whatever drift its input already carried.
	InputOrthoResidual float64
}

func (e *IllConditionedError) Error() string {
	if e.inherited() {
		return fmt.Sprintf("update: %s: ill-conditioned on drifted input factors (orthogonality residual %.3g in, %.3g out; removed mass %.3g vs σ_min %.3g)",
			e.Op, e.InputOrthoResidual, e.OrthoResidual, e.RemovedMass, e.SigmaMin)
	}
	return fmt.Sprintf("update: %s: downdate is ill-conditioned (removed mass %.3g vs σ_min %.3g, zero residual %.3g, orthogonality residual %.3g, %.3g on input)",
		e.Op, e.RemovedMass, e.SigmaMin, e.ZeroResidual, e.OrthoResidual, e.InputOrthoResidual)
}

func (e *IllConditionedError) Unwrap() error { return ErrIllConditioned }

// inherited reports whether the check that tripped mostly measured
// drift the input already carried: only orthogonality tripped, and the
// step at most doubled the input's residual.
func (e *IllConditionedError) inherited() bool {
	return e.ZeroResidual <= downdateZeroTol && e.OrthoResidual > downdateOrthoTol &&
		2*e.InputOrthoResidual >= e.OrthoResidual
}

// FactorDrift is the worst ‖QᵀQ−I‖∞ over both factors of f: the one
// orthogonality-drift measure of the downdate checks and of the
// engine's health gate (internal/core).
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
// sees cancellation damage even when it stays below the hard error
// tolerances.
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

	ortho := OrthoResidual(u, res.S)
	if zres > downdateZeroTol || ortho > downdateOrthoTol {
		return nil, 0, &IllConditionedError{
			Op: "RemoveRows", RemovedMass: mass, SigmaMin: smin,
			ZeroResidual: zres, OrthoResidual: ortho, InputOrthoResidual: FactorDrift(f),
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

// CellUnpatch returns the rank-truncated SVD of A with the given cells
// reverted to unobserved zero. Each triplet carries the cell's CURRENT
// stored value (the caller owns the matrix; the model only sees the
// additive delta), so the unpatch is the signed step below with no
// arrivals: CellPatch with every value negated, followed by the
// downdate health checks.
func CellUnpatch(f *eig.SVDResult, cells []sparse.Triplet, rank int) (*eig.SVDResult, float64, error) {
	return signedPatch("CellUnpatch", f, nil, cells, rank)
}

// CellSlide returns the rank-truncated SVD of A + ΔA for one window
// slide in a single Brand step: arrivals carry additive deltas (as for
// CellPatch), tombstones carry the current stored values they revert to
// zero (as for CellUnpatch), and ΔA holds +arrival and −tombstone per
// cell. A cell in both lists is an error. Against CellPatch followed by
// CellUnpatch it pays one basis extension and one core SVD instead of
// two — the compressed step's cost does not grow with the doubled batch
// — and it applies CellUnpatch's health checks to the combined result.
func CellSlide(f *eig.SVDResult, arrivals, tombstones []sparse.Triplet, rank int) (*eig.SVDResult, float64, error) {
	return signedPatch("CellSlide", f, arrivals, tombstones, rank)
}

// signedPatch is the one signed cell step behind CellUnpatch and
// CellSlide: CellPatch of the arrivals and the negated tombstones, then
// the downdate health checks — a non-finite result is ErrNonFinite,
// orthogonality loss beyond tolerance is an *IllConditionedError naming
// op, with the tombstones' mass and the input's own orthogonality
// residual — and in both cases the factors are withheld.
func signedPatch(op string, f *eig.SVDResult, arrivals, tombstones []sparse.Triplet, rank int) (*eig.SVDResult, float64, error) {
	signed := make([]sparse.Triplet, len(arrivals), len(arrivals)+len(tombstones))
	copy(signed, arrivals)
	var massSq float64
	for _, t := range tombstones {
		signed = append(signed, sparse.Triplet{Row: t.Row, Col: t.Col, Val: -t.Val})
		massSq += t.Val * t.Val
	}
	res, disc, err := CellPatch(f, signed, rank)
	if err != nil {
		return nil, 0, err
	}
	if err := CheckFinite(res); err != nil {
		return nil, 0, fmt.Errorf("update: %s: %w", op, err)
	}
	if ortho := FactorDrift(res); ortho > downdateOrthoTol {
		return nil, 0, &IllConditionedError{
			Op: op, RemovedMass: math.Sqrt(massSq), SigmaMin: SigmaMinNonzero(f.S),
			OrthoResidual: ortho, InputOrthoResidual: FactorDrift(f),
		}
	}
	return res, disc, nil
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
