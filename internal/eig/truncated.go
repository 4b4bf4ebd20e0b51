// Truncated rank-r eigen/singular solvers: deterministic blocked subspace
// iteration with Rayleigh-Ritz projection. The full Golub-Reinsch SVD and
// EISPACK SymEig in this package cost O(n³) no matter how few triplets the
// caller keeps; every ISVD0-4 decomposition needs only the top Rank of
// them, so for the paper's typical r ≪ min(m, n) regimes the solvers here
// bring the endpoint decompositions to O(n²·r) dense — and, because they
// touch the matrix only through block matvecs, to O(NNZ·r) through a
// sparse operator (internal/sparse.Operator) without ever densifying.
//
// Determinism contract: the starting block comes from a fixed seeded
// generator filled in serial index order, every product runs on the
// deterministic blocked kernels of internal/matrix, and the
// re-orthogonalization sweeps are in-order (column by column, serial
// accumulation), so the output is bitwise identical for any worker count.
// Accuracy: Ritz pairs are iterated until their residuals fall below
// truncTol·‖A‖₂, which puts eigenvalues within 1e-11·‖A‖₂ of the full
// solver's (Bauer-Fike); the property tests in truncated_test.go pin
// agreement with the full solvers at 1e-9 relative tolerance.
//
// Convergence is linear with ratio λ_{b+1}/λ_r per iteration (b = r +
// oversampling), so the solver shines on spectra with decay past rank r
// (Gram matrices of low intrinsic rank, covariance matrices, rating
// factors) and gives up early with ErrNoConvergence when the spectrum is
// flat and the iteration budget (bounded by a small multiple of the full
// solver's flops) runs out. RoutedSVD and RoutedSymEig hold the one
// routing policy every caller goes through: try the truncated solver
// when Solver routes to it, and fall back to the full one on
// ErrNoConvergence. GramSVD is RoutedSymEig on the smaller side's Gram,
// completed to an SVD.
package eig

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/matrix"
)

// Solver selects between the full O(n³) decompositions and the truncated
// rank-r subspace solvers; the zero value is SolverAuto.
type Solver int

const (
	// SolverAuto picks the truncated solver when the requested rank plus
	// oversampling is well below the operator dimension (see UseTruncated)
	// and silently falls back to the full solver when the truncated
	// iteration does not converge.
	SolverAuto Solver = iota
	// SolverFull always runs the full decomposition.
	SolverFull
	// SolverTruncated always runs the truncated solver (with the same
	// full-solver fallback on non-convergence).
	SolverTruncated
)

// String returns "auto", "full", or "truncated".
func (s Solver) String() string {
	switch s {
	case SolverAuto:
		return "auto"
	case SolverFull:
		return "full"
	case SolverTruncated:
		return "truncated"
	default:
		return fmt.Sprintf("Solver(%d)", int(s))
	}
}

// ParseSolver parses "auto", "full", or "truncated".
func ParseSolver(s string) (Solver, error) {
	switch s {
	case "auto", "":
		return SolverAuto, nil
	case "full":
		return SolverFull, nil
	case "truncated":
		return SolverTruncated, nil
	default:
		return SolverAuto, fmt.Errorf("eig: unknown solver %q (want auto, full, or truncated)", s)
	}
}

// Oversample returns the subspace oversampling p used for target rank r:
// the iteration block holds r + p vectors so convergence is governed by
// λ_{r+p+1}/λ_r rather than the much tighter λ_{r+1}/λ_r.
func Oversample(r int) int {
	p := r
	if p < 8 {
		p = 8
	}
	if p > 32 {
		p = 32
	}
	return p
}

// UseTruncated reports whether this solver choice routes a rank-r
// decomposition of an operator with smaller dimension minDim to the
// truncated path. SolverAuto requires r + Oversample(r) < minDim/3, the
// regime where the subspace iteration's O(n²·(r+p)) per-sweep cost beats
// the full solver with iterations to spare.
func (s Solver) UseTruncated(r, minDim int) bool {
	switch s {
	case SolverFull:
		return false
	case SolverTruncated:
		return true
	default:
		return r > 0 && r+Oversample(r) < minDim/3
	}
}

// Op is a matrix-free linear operator: anything that can apply itself and
// its transpose to a block of column vectors. Implementations must be
// deterministic (bitwise-identical output for any worker count), which
// the blocked kernels of internal/matrix and the CSR kernels of
// internal/sparse guarantee.
type Op interface {
	// Dims returns the operator shape (rows × cols).
	Dims() (rows, cols int)
	// Apply computes dst = A·x for x of shape cols×k and dst rows×k.
	Apply(dst, x *matrix.Dense)
	// ApplyT computes dst = Aᵀ·x for x of shape rows×k and dst cols×k.
	ApplyT(dst, x *matrix.Dense)
}

// SymOp is a symmetric (A = Aᵀ) matrix-free operator.
type SymOp interface {
	// Dim returns the operator dimension n (the operator is n×n).
	Dim() int
	// ApplySym computes dst = A·x for x and dst of shape n×k.
	ApplySym(dst, x *matrix.Dense)
}

// denseOp wraps a dense matrix as an Op on the blocked kernels.
type denseOp struct{ a *matrix.Dense }

// NewDenseOp wraps a dense matrix as a matrix-free operator; Apply and
// ApplyT run on the cache-blocked MulInto/TMulInto kernels.
func NewDenseOp(a *matrix.Dense) Op { return denseOp{a} }

func (d denseOp) Dims() (int, int)            { return d.a.Rows, d.a.Cols }
func (d denseOp) Apply(dst, x *matrix.Dense)  { matrix.MulInto(dst, d.a, x) }
func (d denseOp) ApplyT(dst, x *matrix.Dense) { matrix.TMulInto(dst, d.a, x) }

// denseSymOp wraps a symmetric dense matrix as a SymOp.
type denseSymOp struct{ a *matrix.Dense }

// NewDenseSymOp wraps a symmetric dense matrix as a symmetric operator.
// It panics if the matrix is not square; symmetry itself is assumed, not
// checked (the callers pass Gram and covariance matrices).
func NewDenseSymOp(a *matrix.Dense) SymOp {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("eig: NewDenseSymOp: %dx%d not square", a.Rows, a.Cols))
	}
	return denseSymOp{a}
}

func (d denseSymOp) Dim() int                      { return d.a.Rows }
func (d denseSymOp) ApplySym(dst, x *matrix.Dense) { matrix.MulInto(dst, d.a, x) }

// gramOp applies AᵀA as two operator applications without materializing
// the Gram matrix: O(cost(A)·k) per block apply instead of an O(rows·
// cols²) construction. This kills the explicit Gram matrix in the ISVD
// Gram step whenever the endpoint Gram reduces to a plain AᵀA (entrywise
// non-negative data, see core.gramEig).
type gramOp struct {
	op   Op
	work *matrix.Dense // rows×k intermediate, sized lazily
}

// NewGramOp returns the symmetric operator AᵀA of op (dimension cols).
func NewGramOp(op Op) SymOp { return &gramOp{op: op} }

func (g *gramOp) Dim() int {
	_, c := g.op.Dims()
	return c
}

func (g *gramOp) ApplySym(dst, x *matrix.Dense) {
	r, _ := g.op.Dims()
	if g.work == nil || g.work.Rows != r || g.work.Cols != x.Cols {
		g.work = matrix.New(r, x.Cols)
	}
	g.op.Apply(g.work, x)
	g.op.ApplyT(dst, g.work)
}

// coGramOp applies A·Aᵀ (dimension rows); the wide-matrix counterpart of
// gramOp.
type coGramOp struct {
	op   Op
	work *matrix.Dense // cols×k intermediate
}

// NewCoGramOp returns the symmetric operator A·Aᵀ of op (dimension rows).
func NewCoGramOp(op Op) SymOp { return &coGramOp{op: op} }

func (g *coGramOp) Dim() int {
	r, _ := g.op.Dims()
	return r
}

func (g *coGramOp) ApplySym(dst, x *matrix.Dense) {
	_, c := g.op.Dims()
	if g.work == nil || g.work.Rows != c || g.work.Cols != x.Cols {
		g.work = matrix.New(c, x.Cols)
	}
	g.op.ApplyT(g.work, x)
	g.op.Apply(dst, g.work)
}

// Options configures the truncated solvers beyond the target rank; the
// zero value is a cold start from the fixed seeded block.
type Options struct {
	// Start seeds TruncatedSymEig's subspace iteration with an initial
	// block of column vectors (dim×k, k ≥ 1) instead of the fixed random
	// start — typically the eigenvector block of a previous decomposition
	// of a drifted operator, which converges in one or two sweeps instead
	// of from scratch. Columns beyond the iteration block size are
	// ignored; when k is below the block size the remaining directions
	// are filled from the fixed seeded generator, so the iteration always
	// carries the full oversampled block. The result is bitwise
	// deterministic given the same Start for any worker count.
	Start *matrix.Dense
	// StartU (rows×k) and StartV (cols×k) seed TruncatedSVD and
	// GramSVD from a previous decomposition's singular factors (the warm
	// refresh of the update engine). Both iterate on the Gram operator
	// of the smaller side, so they use StartV when rows ≥ cols and
	// StartU otherwise; the unused side may be nil. The symmetric
	// solvers read Start instead.
	StartU, StartV *matrix.Dense
	// Sweeps, when non-nil, receives the number of subspace sweeps the
	// iteration ran (diagnostics: the warm-start win is exactly the
	// sweeps it saves).
	Sweeps *int
}

const (
	// truncSeed seeds the starting block. It is a fixed constant — the
	// deterministic-replay contract of this repository forbids
	// run-dependent randomness in any kernel.
	truncSeed = 0x7ca1ced
	// truncTol is the relative Ritz-residual convergence threshold:
	// iteration stops when every kept pair satisfies ‖A·v − θ·v‖ ≤
	// truncTol·‖A‖₂ (with ‖A‖₂ estimated by the largest |Ritz value|),
	// which bounds the eigenvalue error by the same quantity.
	truncTol = 1e-11
)

// truncMaxIter bounds the subspace sweeps so a non-converging run (flat
// spectrum) costs at most a small multiple of the full solver before
// ErrNoConvergence hands control back: each sweep is ~4·n²·b flops
// against the full solver's ~3·n³, so n/b sweeps ≈ one full solve.
func truncMaxIter(n, b int) int {
	it := 16 + 3*n/b
	if it > 300 {
		it = 300
	}
	return it
}

// TruncatedSymEig computes the rank leading (algebraically largest)
// eigenpairs of the symmetric operator op by deterministic blocked
// subspace iteration: a start block of rank+Oversample vectors (o.Start's
// columns first, then a fixed seeded fill), in-order Gram-Schmidt
// re-orthogonalization between sweeps, and Rayleigh-Ritz projection
// solved by the full dense SymEig on the small projected matrix.
// Eigenvalues are returned descending with their eigenvectors in the
// columns of vecs (n×rank, orthonormal, sign-canonicalized like
// SymEig's). A warm o.Start — the eigenvectors of a previous
// decomposition of a drifted operator — begins the iteration inside or
// near the invariant subspace it is chasing, so it typically converges
// in one or two sweeps: the refresh path of the incremental-update
// engine (internal/update, core.Decomposition.Update).
//
// The iteration tracks the dominant-magnitude subspace, so the result is
// the algebraically-largest pairs provided no more than Oversample(rank)
// negative eigenvalues exceed the rank-th positive one in magnitude —
// true for the Gram-type (near-PSD) operators this solver serves. On
// spectra too flat to converge within the iteration budget it returns
// ErrNoConvergence; RoutedSymEig then falls back to the full solver.
func TruncatedSymEig(op SymOp, rank int, o Options) (vals []float64, vecs *matrix.Dense, err error) {
	n := op.Dim()
	if rank <= 0 || rank > n {
		return nil, nil, fmt.Errorf("eig: TruncatedSymEig: rank %d out of range for dimension %d", rank, n)
	}
	if o.Start != nil && o.Start.Rows != n {
		return nil, nil, fmt.Errorf("eig: TruncatedSymEig: start block has %d rows, want %d", o.Start.Rows, n)
	}
	b := rank + Oversample(rank)
	if b > n {
		b = n
	}

	q := matrix.New(n, b)  // current orthonormal block
	qt := matrix.New(b, n) // row-major transpose workspace for the in-order MGS
	z := matrix.New(n, b)  // A·Q
	v := matrix.New(n, b)  // Ritz vectors Q·W
	av := matrix.New(n, b) // their images A·V = Z·W
	t := matrix.New(b, b)  // projected operator QᵀAQ

	// Deterministic start: warm-start columns first (in order), then the
	// fixed-seed serial fill for the remaining block directions. The rng
	// stream depends only on how many rows it fills, so the start block
	// is a pure function of (op dims, rank, o.Start).
	warm := 0
	if o.Start != nil {
		warm = o.Start.Cols
		if warm > b {
			warm = b
		}
		for j := 0; j < warm; j++ {
			row := qt.RowView(j)
			for i := 0; i < n; i++ {
				row[i] = o.Start.Data[i*o.Start.Cols+j]
			}
		}
	}
	rng := rand.New(rand.NewSource(truncSeed))
	for i := warm * n; i < len(qt.Data); i++ {
		qt.Data[i] = rng.NormFloat64()
	}
	orthonormalizeRows(qt)
	matrix.TransposeInto(q, qt)

	maxIter := truncMaxIter(n, b)
	prevRes := math.Inf(1)
	stalled := 0
	for iter := 0; iter < maxIter; iter++ {
		if o.Sweeps != nil {
			*o.Sweeps = iter + 1
		}
		op.ApplySym(z, q)
		matrix.TMulInto(t, q, z)
		symmetrizeInPlace(t)
		tVals, tVecs, err := SymEig(t)
		if err != nil {
			return nil, nil, err
		}
		matrix.MulInto(v, q, tVecs)
		matrix.MulInto(av, z, tVecs)

		scale := math.Max(math.Abs(tVals[0]), math.Abs(tVals[b-1]))
		res := maxRitzResidual(av, v, tVals, rank)
		if scale == 0 || res <= truncTol*scale || b == n {
			// Signed-top certificate (skipped when b == n: the projection
			// is then exact and everything is captured). The iteration
			// converged to the dominant-MAGNITUDE invariant subspace;
			// every eigenvalue outside it has magnitude at most
			// m* = min_j |θ_j|, so the algebraically-largest rank pairs
			// are provably inside iff m* ≤ θ_rank. Always true for PSD
			// operators (θ_b ≤ θ_rank and θ_b ≥ 0 up to rounding); an
			// indefinite matrix whose negative spectrum crowds out the
			// certificate — where the top signed pairs may genuinely live
			// outside the captured subspace — fails over to the full
			// solver instead of returning silently wrong pairs.
			if b < n && scale != 0 {
				minAbs := math.Inf(1)
				for _, th := range tVals {
					if a := math.Abs(th); a < minAbs {
						minAbs = a
					}
				}
				if minAbs > tVals[rank-1]+1e-9*scale {
					return nil, nil, ErrNoConvergence
				}
			}
			vals = append([]float64(nil), tVals[:rank]...)
			vecs = v.SubMatrix(0, n, 0, rank)
			canonicalizeColumnSigns(vecs)
			return vals, vecs, nil
		}
		// Flat-spectrum bail-out. Past the starting transient the
		// per-sweep residual contraction settles to λ_{b+1}/λ_r; once the
		// sweeps still needed at the observed ratio exceed twice the
		// remaining budget, convergence is out of reach — give up now
		// (the caller falls back to the full solver) instead of burning
		// the rest of the budget first. Residuals that stop shrinking
		// altogether (ratio ~1, oscillation) get two strikes.
		if iter >= 6 {
			ratio := res / prevRes
			switch {
			case ratio >= 0.999:
				stalled++
				if stalled >= 2 {
					return nil, nil, ErrNoConvergence
				}
			case ratio > 0.3:
				stalled = 0
				projected := math.Log(truncTol*scale/res) / math.Log(ratio)
				if projected > 2*float64(maxIter-iter) {
					return nil, nil, ErrNoConvergence
				}
			default:
				stalled = 0
			}
		}
		prevRes = res

		// Next subspace: orthonormalize the Ritz images (subspace
		// iteration with the Rayleigh-Ritz rotation folded in).
		matrix.TransposeInto(qt, av)
		orthonormalizeRows(qt)
		matrix.TransposeInto(q, qt)
	}
	return nil, nil, ErrNoConvergence
}

// TruncatedSVD computes the rank leading singular triplets of op via
// TruncatedSymEig on the Gram operator of the smaller side (AᵀA when
// rows ≥ cols, A·Aᵀ otherwise) and recovers the other factor with one
// block apply — U = A·V·Σ⁻¹ or V = Aᵀ·U·Σ⁻¹. Sign canonicalization
// matches SVD's (tall: by V, wide: by U), so where the solvers' vectors
// agree they agree in orientation too. Zero singular values yield zero
// columns in the recovered factor. o.StartU / o.StartV seed the Gram
// iteration from a previous decomposition's factors (StartV when
// rows ≥ cols, StartU otherwise), so a re-solve of a drifted matrix
// converges in a sweep or two. Returns ErrNoConvergence like
// TruncatedSymEig.
func TruncatedSVD(op Op, rank int, o Options) (*SVDResult, error) {
	m, n := op.Dims()
	if rank <= 0 || rank > min(m, n) {
		return nil, fmt.Errorf("eig: TruncatedSVD: rank %d out of range for %dx%d", rank, m, n)
	}
	sym, so := gramSide(op, o)
	vals, vecs, err := TruncatedSymEig(sym, rank, so)
	if err != nil {
		return nil, err
	}
	return fromGram(op, vals, vecs), nil
}

// GramSVD is the solver-routed thin SVD of op truncated to rank, solved
// as the eigenproblem of the smaller side's Gram matrix — the form the
// paper's ISVD2-4 take — and the warm refresh's solver. It runs
// RoutedSymEig on AᵀA when rows ≥ cols and on A·Aᵀ otherwise, seeded
// like TruncatedSVD (o.StartV or o.StartU), so a converged truncated
// solve returns TruncatedSVD's result bit for bit. When the truncated
// solve is not routed or gives up, the fallback is the full SymEig of
// the materialized k×k Gram, k = min(rows, cols), built from op's own
// storage when op can build it (sparse.Operator does), never by
// densifying op. The other factor is recovered as TruncatedSVD recovers
// it. Singular values below ~√eps·σ₁ sit at the Gram's rounding floor;
// a caller that needs them accurately uses RoutedSVD. A rank <= 0 or
// above min(rows, cols) means min(rows, cols).
func GramSVD(op Op, rank int, solver Solver, o Options) (*SVDResult, error) {
	m, n := op.Dims()
	if rank <= 0 || rank > min(m, n) {
		rank = min(m, n)
	}
	sym, so := gramSide(op, o)
	vals, vecs, err := RoutedSymEig(sym, rank, solver, so, func() *matrix.Dense { return gramMatrix(op, sym) })
	if err != nil {
		return nil, err
	}
	return fromGram(op, vals, vecs), nil
}

// gramSide returns the Gram operator of op's smaller side (AᵀA when
// rows ≥ cols, A·Aᵀ otherwise) and the symmetric solver options that
// seed it from o: StartV for AᵀA, StartU for A·Aᵀ.
func gramSide(op Op, o Options) (SymOp, Options) {
	if m, n := op.Dims(); m >= n {
		return NewGramOp(op), Options{Start: o.StartV, Sweeps: o.Sweeps}
	}
	return NewCoGramOp(op), Options{Start: o.StartU, Sweeps: o.Sweeps}
}

// fromGram completes the leading eigenpairs of op's smaller-side Gram
// (gramSide) into singular triplets: the singular values are the
// clamped square roots, and the other factor is one block apply scaled
// by Σ⁻¹, signs canonicalized like SVD's (tall: by V, wide: by U).
func fromGram(op Op, vals []float64, vecs *matrix.Dense) *SVDResult {
	m, n := op.Dims()
	s := sqrtClampedVals(vals)
	if m >= n {
		u := matrix.New(m, len(s))
		op.Apply(u, vecs)
		scaleColumnsByInv(u, s)
		canonicalizeSVDSigns(u, vecs)
		return &SVDResult{U: u, S: s, V: vecs}
	}
	v := matrix.New(n, len(s))
	op.ApplyT(v, vecs)
	scaleColumnsByInv(v, s)
	canonicalizeSVDSigns(v, vecs) // wide convention: orient by U, like SVD's transposed path
	return &SVDResult{U: vecs, S: s, V: v}
}

// gramBuilder is an Op that builds its Gram matrices from its own
// storage (sparse.Operator, from the CSR); GramSVD's dense fallback
// uses it instead of applying the Gram operator to an identity block.
type gramBuilder interface {
	Gram() *matrix.Dense   // AᵀA, cols×cols
	CoGram() *matrix.Dense // A·Aᵀ, rows×rows
}

// gramMatrix materializes sym, the Gram operator gramSide chose for
// op, exactly symmetric.
func gramMatrix(op Op, sym SymOp) *matrix.Dense {
	var g *matrix.Dense
	m, n := op.Dims()
	if b, ok := op.(gramBuilder); ok {
		if m >= n {
			g = b.Gram()
		} else {
			g = b.CoGram()
		}
	} else {
		k := sym.Dim()
		g = matrix.New(k, k)
		sym.ApplySym(g, matrix.Identity(k))
	}
	symmetrizeInPlace(g)
	return g
}

// orthonormalizeRows runs in-order modified Gram-Schmidt (with one
// re-orthogonalization pass, enough for the well-scaled blocks the
// iteration produces) over the rows of qt. Rows that collapse to zero —
// rank-deficient images, e.g. an operator of rank below the block size —
// are deterministically replaced by the first coordinate basis vector
// that keeps the block full-rank. Entirely serial: every dot product
// accumulates in index order, so the result is bitwise identical
// regardless of the worker count of the surrounding kernels.
func orthonormalizeRows(qt *matrix.Dense) {
	b, n := qt.Rows, qt.Cols
	for i := 0; i < b; i++ {
		ri := qt.RowView(i)
		orig := vecNorm(ri)
		projectAgainstPrev(qt, ri, i)
		norm := vecNorm(ri)
		// A row reduced to (near-)nothing no longer carries subspace
		// information; swap in basis vectors until one survives.
		for e := 0; norm <= orig*1e-13 || norm == 0; e++ {
			if e >= n {
				// Cannot happen for i < b <= n (the previous rows span
				// i < n dimensions), but stay safe.
				break
			}
			for k := range ri {
				ri[k] = 0
			}
			ri[(i+e)%n] = 1
			orig = 1
			projectAgainstPrev(qt, ri, i)
			norm = vecNorm(ri)
		}
		if norm != 0 {
			inv := 1 / norm
			for k := range ri {
				ri[k] *= inv
			}
		}
	}
}

// projectAgainstPrev removes from ri its components along the first i
// (already orthonormal) rows of qt, twice — the in-order MGS sweep with
// one re-orthogonalization pass. The serial index-order accumulation here
// is load-bearing for the bitwise-determinism contract.
func projectAgainstPrev(qt *matrix.Dense, ri []float64, i int) {
	for pass := 0; pass < 2; pass++ {
		for j := 0; j < i; j++ {
			rj := qt.RowView(j)
			var d float64
			for k, vk := range ri {
				d += vk * rj[k]
			}
			for k := range ri {
				ri[k] -= d * rj[k]
			}
		}
	}
}

func vecNorm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// symmetrizeInPlace replaces t with (t + tᵀ)/2; the projected matrix is
// symmetric up to rounding and SymEig assumes exact symmetry.
func symmetrizeInPlace(t *matrix.Dense) {
	n := t.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m := (t.Data[i*n+j] + t.Data[j*n+i]) / 2
			t.Data[i*n+j] = m
			t.Data[j*n+i] = m
		}
	}
}

// maxRitzResidual returns max_j ‖av_j − θ_j·v_j‖₂ over the first rank
// Ritz pairs (columns of av and v).
func maxRitzResidual(av, v *matrix.Dense, vals []float64, rank int) float64 {
	n := av.Rows
	worst := 0.0
	for j := 0; j < rank; j++ {
		var s float64
		th := vals[j]
		for i := 0; i < n; i++ {
			d := av.Data[i*av.Cols+j] - th*v.Data[i*v.Cols+j]
			s += d * d
		}
		if r := math.Sqrt(s); r > worst {
			worst = r
		}
	}
	return worst
}

func sqrtClampedVals(vals []float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		if v > 0 {
			out[i] = math.Sqrt(v)
		}
	}
	return out
}

// RoutedSVD is the solver-routed thin SVD of op truncated to rank, and
// the one place the try-truncated-then-full policy lives for the cold
// SVDs (ISVD0/1's endpoint and midpoint SVDs, PInvWith): when solver
// routes rank to the truncated path (Solver.UseTruncated) it runs a
// cold-started TruncatedSVD, and when that is not routed or returns
// ErrNoConvergence (a flat spectrum) it runs the full Golub-Reinsch SVD
// on dense() and truncates it. dense is called only on that full path,
// so a sparse caller densifies only when it must. A rank <= 0 or above
// min(rows, cols) means min(rows, cols). The result has exactly rank
// columns and is fully owned by the caller. The warm refresh uses
// GramSVD instead, whose fallback never densifies op.
func RoutedSVD(op Op, rank int, solver Solver, dense func() *matrix.Dense) (*SVDResult, error) {
	m, n := op.Dims()
	minDim := min(m, n)
	if rank <= 0 || rank > minDim {
		rank = minDim
	}
	if solver.UseTruncated(rank, minDim) {
		if res, err := TruncatedSVD(op, rank, Options{}); err != ErrNoConvergence {
			return res, err
		}
	}
	res, err := SVD(dense())
	if err != nil {
		return nil, err
	}
	return res.Truncate(rank), nil
}

// RoutedSymEig is RoutedSVD's symmetric counterpart: the rank leading
// (algebraically largest) eigenpairs of op, from TruncatedSymEig when
// routed and converged — the signed-top certificate also reports
// ErrNoConvergence on an indefinite operator whose negative spectrum
// would make truncation unsound — and otherwise from the full SymEig of
// dense(), called only on that path.
func RoutedSymEig(op SymOp, rank int, solver Solver, o Options, dense func() *matrix.Dense) (vals []float64, vecs *matrix.Dense, err error) {
	n := op.Dim()
	if rank <= 0 || rank > n {
		rank = n
	}
	if solver.UseTruncated(rank, n) {
		if vals, vecs, err = TruncatedSymEig(op, rank, o); err != ErrNoConvergence {
			return vals, vecs, err
		}
	}
	vals, vecs, err = SymEig(dense())
	if err != nil {
		return nil, nil, err
	}
	return vals[:rank], vecs.SubMatrix(0, vecs.Rows, 0, rank), nil
}

// scaleColumnsByInv scales column j of m by 1/s[j]; zero singular values
// leave a zero column (the recoverU convention of core).
func scaleColumnsByInv(m *matrix.Dense, s []float64) {
	for j, sv := range s {
		inv := 0.0
		if sv != 0 {
			inv = 1 / sv
		}
		for i := 0; i < m.Rows; i++ {
			m.Data[i*m.Cols+j] *= inv
		}
	}
}
