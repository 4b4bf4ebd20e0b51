package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/align"
	"repro/internal/eig"
	"repro/internal/imatrix"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// parts is the shared intermediate state of ISVD1-4 right before the
// target-specific construction step: endpoint factor matrices (possibly
// min-max misordered, which is legitimate at this stage per
// Section 4.2.1) and the two singular-value diagonals.
type parts struct {
	U, V     *imatrix.IMatrix
	SLo, SHi []float64
}

// operand abstracts the input storage of the ISVD pipelines — dense
// (imatrix.IMatrix) or sparse CSR (sparse.ICSR, see sparse.go) — behind
// the handful of products the algorithms apply to the input matrix
// itself. Everything downstream of these calls operates on n×r / m×r
// factor matrices, so one pipeline serves both storages; the sparse
// implementation keeps every operation O(NNZ)-shaped and never
// materializes a dense Gram matrix on the truncated path.
type operand interface {
	rows() int
	cols() int
	// svdMid decomposes the interval midpoint matrix at opts.Rank under
	// the routed solver (ISVD0).
	svdMid(opts Options) (res *eig.SVDResult, pre, dec time.Duration, err error)
	// svdEndpoints decomposes both endpoint matrices concurrently at
	// opts.Rank under the routed solver (ISVD1). The results are fully
	// owned by the caller (no aliasing of solver internals).
	svdEndpoints(opts Options) (lo, hi *eig.SVDResult, err error)
	// gramEig eigen-decomposes both endpoint Gram matrices A† = M†ᵀ×M†
	// under the routed solver (ISVD2-4).
	gramEig(opts Options) (vLo, vHi *matrix.Dense, sLo, sHi []float64, pre, dec time.Duration, err error)
	// mulEndpointsRight returns the interval product M† × s for a scalar
	// right operand, with the algebra selected by opts.ExactAlgebra.
	mulEndpointsRight(s *matrix.Dense, opts Options) *imatrix.IMatrix
	// mulEndpointsLeft returns s × M† for a scalar left operand.
	mulEndpointsLeft(s *matrix.Dense, opts Options) *imatrix.IMatrix
	// applyLo / applyHi return M_side · v (ISVD2 U recovery).
	applyLo(v *matrix.Dense) *matrix.Dense
	applyHi(v *matrix.Dense) *matrix.Dense
	// toICSR returns the input as sparse interval storage — the
	// authoritative matrix copy the incremental-update engine retains
	// (Options.Updatable, update.go).
	toICSR() *sparse.ICSR
}

// denseOperand is the dense-storage operand; its methods reproduce the
// pre-abstraction pipeline kernel for kernel.
type denseOperand struct{ m *imatrix.IMatrix }

func (o denseOperand) rows() int { return o.m.Rows() }
func (o denseOperand) cols() int { return o.m.Cols() }

func (o denseOperand) svdMid(opts Options) (*eig.SVDResult, time.Duration, time.Duration, error) {
	t0 := time.Now()
	avg := o.m.Mid()
	pre := time.Since(t0)
	t0 = time.Now()
	res, err := denseSVD(avg, opts)
	return res, pre, time.Since(t0), err
}

func (o denseOperand) svdEndpoints(opts Options) (lo, hi *eig.SVDResult, err error) {
	err = pairSides(opts.Workers,
		func() (err error) { lo, err = denseSVD(o.m.Lo, opts); return err },
		func() (err error) { hi, err = denseSVD(o.m.Hi, opts); return err },
	)
	if err != nil {
		return nil, nil, err
	}
	return lo, hi, nil
}

// pairSides runs the independent lo and hi halves of an endpoint step
// concurrently on the shared pool, bounded by workers (0 = the pool
// default). An error on either side fails the pair as a whole, named
// "min side" or "max side", so the two endpoints always advance in
// lockstep.
func pairSides(workers int, lo, hi func() error) error {
	var errLo, errHi error
	parallel.DoWith(workers,
		func() { errLo = lo() },
		func() { errHi = hi() },
	)
	if errLo != nil {
		return fmt.Errorf("min side: %w", errLo)
	}
	if errHi != nil {
		return fmt.Errorf("max side: %w", errHi)
	}
	return nil
}

// denseSVD is the routed SVD of one dense matrix at opts.Rank.
func denseSVD(a *matrix.Dense, opts Options) (*eig.SVDResult, error) {
	return eig.RoutedSVD(eig.NewDenseOp(a), opts.Rank, opts.Solver, func() *matrix.Dense { return a })
}

func (o denseOperand) gramEig(opts Options) (*matrix.Dense, *matrix.Dense, []float64, []float64, time.Duration, time.Duration, error) {
	return gramEig(o.m, opts)
}

func (o denseOperand) mulEndpointsRight(s *matrix.Dense, opts Options) *imatrix.IMatrix {
	if opts.ExactAlgebra {
		return imatrix.MulScalarRight(o.m, s)
	}
	return imatrix.MulEndpointsScalarRight(o.m, s)
}

func (o denseOperand) mulEndpointsLeft(s *matrix.Dense, opts Options) *imatrix.IMatrix {
	if opts.ExactAlgebra {
		return imatrix.MulScalarLeft(s, o.m)
	}
	return imatrix.MulEndpointsScalarLeft(s, o.m)
}

func (o denseOperand) applyLo(v *matrix.Dense) *matrix.Dense { return matrix.Mul(o.m.Lo, v) }
func (o denseOperand) applyHi(v *matrix.Dense) *matrix.Dense { return matrix.Mul(o.m.Hi, v) }
func (o denseOperand) toICSR() *sparse.ICSR                  { return sparse.FromIMatrix(o.m) }

// nonNegativeDense reports whether every element of d is >= 0.
func nonNegativeDense(d *matrix.Dense) bool {
	for _, v := range d.Data {
		if v < 0 {
			return false
		}
	}
	return true
}

// decompose runs method's pipeline on op; Decompose, DecomposeSparse and
// Update all dispatch through it.
func decompose(op operand, method Method, opts Options) (*Decomposition, error) {
	switch method {
	case ISVD0:
		return decomposeISVD0(op, opts)
	case ISVD1:
		return decomposeISVD1(op, opts)
	case ISVD2:
		return decomposeISVD2(op, opts)
	case ISVD3:
		return decomposeISVD3(op, opts)
	case ISVD4:
		return decomposeISVD4(op, opts)
	default:
		return nil, fmt.Errorf("core: unknown method %v", method)
	}
}

// decomposeISVD0 implements the naive average-and-decompose strategy
// (Section 4.1): plain SVD of the interval midpoint matrix. The result is
// scalar-valued and therefore only compatible with TargetC semantics, but
// it is returned under whatever target was requested, with degenerate
// intervals.
func decomposeISVD0(op operand, opts Options) (*Decomposition, error) {
	var tm Timings
	res, pre, dec, err := op.svdMid(opts)
	if err != nil {
		return nil, fmt.Errorf("core: ISVD0: %w", err)
	}
	tm.Preprocess, tm.Decompose = pre, dec

	t0 := time.Now()
	d := &Decomposition{
		Method:       ISVD0,
		Target:       opts.Target,
		Rank:         opts.Rank,
		ExactAlgebra: opts.ExactAlgebra,
		U:            imatrix.FromScalar(res.U),
		Sigma:        imatrix.DiagFromValues(res.S),
		V:            imatrix.FromScalar(res.V),
	}
	if opts.Updatable {
		captureState(d, op, opts, nil, nil, res)
	}
	tm.Construct = time.Since(t0)
	d.Timings = tm
	return d, nil
}

// decomposeISVD1 implements decompose-and-align (Section 4.2): the
// endpoint matrices M* and M^* are SVD-decomposed independently, then the
// maximum-side factors are permuted and sign-flipped by ILSA to align
// with the minimum side.
func decomposeISVD1(op operand, opts Options) (*Decomposition, error) {
	var tm Timings
	t0 := time.Now()
	svdLo, svdHi, err := op.svdEndpoints(opts)
	if err != nil {
		return nil, fmt.Errorf("core: ISVD1: %w", err)
	}
	tm.Decompose = time.Since(t0)

	d := &Decomposition{Method: ISVD1, Target: opts.Target, Rank: opts.Rank, ExactAlgebra: opts.ExactAlgebra}
	if opts.Updatable {
		// Captured before ILSA: the update engine maintains true (not
		// yet permuted) endpoint SVDs, and ILSA mutates the hi side next.
		captureState(d, op, opts, svdLo, svdHi, nil)
	}

	// The SVD results are fully owned (Truncate and the truncated solver
	// both return fresh storage), so ILSA may mutate them in place.
	t0 = time.Now()
	uHi := svdHi.U
	vHi := svdHi.V
	d.CosVUnaligned = align.ColumnCosines(svdLo.V, vHi)
	res := align.ILSA(svdLo.V, vHi, opts.Assign)
	res.Apply(uHi, vHi, nil)
	sHi := res.ApplyToDiag(svdHi.S)
	d.CosVAligned = res.Cos
	tm.Align = time.Since(t0)

	p := parts{
		U:   imatrix.FromEndpoints(svdLo.U, uHi),
		V:   imatrix.FromEndpoints(svdLo.V, vHi),
		SLo: svdLo.S,
		SHi: sHi,
	}
	t0 = time.Now()
	construct(d, p)
	tm.Construct = time.Since(t0)
	d.Timings = tm
	return d, nil
}

// gramEig computes the truncated eigen-decomposition of both endpoint
// Gram matrices A† = M†ᵀ × M† (interval matrix multiplication), returning
// per-side right singular vectors and singular values (sqrt of clamped
// eigenvalues). Solver routing: when Options.Solver selects the truncated
// path and the data is entrywise non-negative (so the Algorithm 1 endpoint
// Gram collapses to [Loᵀ·Lo, Hiᵀ·Hi]), the Gram matrices are materialized
// only if a side falls back to the full solver — on convergence each side
// runs matrix-free on a Gram operator at O(n·m·r) total. Otherwise the
// interval Gram is built first and both sides are routed on its
// endpoints.
func gramEig(m *imatrix.IMatrix, opts Options) (vLo, vHi *matrix.Dense, sLo, sHi []float64, pre, dec time.Duration, err error) {
	matrixFree := func() (eig.SymOp, eig.SymOp) {
		if opts.ExactAlgebra || !nonNegativeDense(m.Lo) {
			return nil, nil
		}
		return eig.NewGramOp(eig.NewDenseOp(m.Lo)), eig.NewGramOp(eig.NewDenseOp(m.Hi))
	}
	materialize := func() *imatrix.IMatrix {
		if opts.ExactAlgebra {
			return imatrix.Mul(m.T(), m)
		}
		// Fused endpoint Gram kernel: no transposed endpoint copies, no
		// four dense temporaries — bitwise identical to
		// imatrix.MulEndpoints(m.T(), m).
		return imatrix.GramEndpoints(m)
	}
	return gramEigRouted(opts, m.Cols(), matrixFree, materialize)
}

// gramEigRouted is the Gram eigen step shared by the dense and sparse
// operands' gramEig: one eig.RoutedSymEig call per endpoint side, run
// concurrently (they dominate the decomposition cost, Figure 6b). When
// the route is truncated and matrixFree returns the endpoint Gram
// operators (nils when the data does not qualify: mixed signs, where the
// min/max-combined Gram is not [LoᵀLo, HiᵀHi], or exact algebra), the
// sides iterate on those and materialize the interval Gram, at most once,
// only in a full-solver fallback. That pair falls back as a pair: if one
// side does not converge the other is re-solved on the full solver too,
// so both endpoints come from the same solver. Otherwise the interval
// Gram is materialized first and each side is routed on its endpoint
// independently; on mixed-sign data the truncated solver's signed-top
// certificate sends a side to the full solver whenever its negative
// spectrum would make truncation unsound. pre is the Gram construction;
// dec is the rest of the step, abandoned truncated attempts included.
func gramEigRouted(opts Options, n int, matrixFree func() (eig.SymOp, eig.SymOp), materialize func() *imatrix.IMatrix) (vLo, vHi *matrix.Dense, sLo, sHi []float64, pre, dec time.Duration, err error) {
	start := time.Now()
	var gram *imatrix.IMatrix
	var once sync.Once
	build := func() {
		t0 := time.Now()
		gram = materialize()
		pre = time.Since(t0)
	}
	var ops [2]eig.SymOp
	if opts.Solver.UseTruncated(opts.Rank, n) {
		ops[0], ops[1] = matrixFree()
	}
	paired := ops[0] != nil
	if !paired {
		once.Do(build)
		ops[0], ops[1] = eig.NewDenseSymOp(gram.Lo), eig.NewDenseSymOp(gram.Hi)
	}
	var (
		vals [2][]float64
		vecs [2]*matrix.Dense
		errs [2]error
		full [2]bool
	)
	solve := func(side int, solver eig.Solver) {
		vals[side], vecs[side], errs[side] = eig.RoutedSymEig(ops[side], opts.Rank, solver, eig.Options{}, func() *matrix.Dense {
			once.Do(build)
			full[side] = true
			if side == 0 {
				return gram.Lo
			}
			return gram.Hi
		})
	}
	parallel.DoWith(opts.Workers,
		func() { solve(0, opts.Solver) },
		func() { solve(1, opts.Solver) },
	)
	if paired && full[0] != full[1] {
		converged := 0
		if full[0] {
			converged = 1
		}
		solve(converged, eig.SolverFull)
	}
	if errs[0] != nil {
		return nil, nil, nil, nil, 0, 0, fmt.Errorf("eig of A*: %w", errs[0])
	}
	if errs[1] != nil {
		return nil, nil, nil, nil, 0, 0, fmt.Errorf("eig of A^*: %w", errs[1])
	}
	dec = time.Since(start) - pre
	return vecs[0], vecs[1], sqrtClamped(vals[0]), sqrtClamped(vals[1]), pre, dec, nil
}

func sqrtClamped(vals []float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		if v > 0 {
			out[i] = math.Sqrt(v)
		}
	}
	return out
}

// recoverUFrom turns mv = M · V into U = M · V · diag(1/s) for one
// endpoint side, scaling mv's columns in place. For the orthonormal V
// returned by the symmetric eigensolver this equals the paper's
// U = M·(Vᵀ)⁻¹·Σ⁻¹ (the pseudo-inverse of the transpose of an
// orthonormal-column matrix is the matrix itself). Zero singular values
// yield zero columns.
func recoverUFrom(mv *matrix.Dense, s []float64) *matrix.Dense {
	for j, sv := range s {
		invS := 0.0
		if sv != 0 {
			invS = 1 / sv
		}
		for i := 0; i < mv.Rows; i++ {
			mv.Set(i, j, mv.At(i, j)*invS)
		}
	}
	return mv
}

// decomposeISVD2 implements decompose-solve-align (Section 4.3): the
// interval Gram matrix is eigen-decomposed per side, the left factors are
// recovered per side from the SVD identity, and only then are the latent
// spaces aligned.
func decomposeISVD2(op operand, opts Options) (*Decomposition, error) {
	var tm Timings

	vLo, vHi, sLo, sHi, pre, dec, err := op.gramEig(opts)
	if err != nil {
		return nil, fmt.Errorf("core: ISVD2: %w", err)
	}
	tm.Preprocess, tm.Decompose = pre, dec

	t0 := time.Now()
	uLo := recoverUFrom(op.applyLo(vLo), sLo)
	uHi := recoverUFrom(op.applyHi(vHi), sHi)
	tm.Solve = time.Since(t0)

	d := &Decomposition{Method: ISVD2, Target: opts.Target, Rank: opts.Rank, ExactAlgebra: opts.ExactAlgebra}
	if opts.Updatable {
		// uLo/uHi are the endpoint SVDs' left factors (M·V·Σ⁻¹), so the
		// pre-align triples are exactly the per-side factor states.
		captureState(d, op, opts,
			&eig.SVDResult{U: uLo, S: sLo, V: vLo},
			&eig.SVDResult{U: uHi, S: sHi, V: vHi}, nil)
	}

	t0 = time.Now()
	d.CosVUnaligned = align.ColumnCosines(vLo, vHi)
	res := align.ILSA(vLo, vHi, opts.Assign)
	res.Apply(uHi, vHi, nil)
	sHi = res.ApplyToDiag(sHi)
	d.CosVAligned = res.Cos
	d.CosURecovered = align.ColumnCosines(uLo, uHi)
	tm.Align = time.Since(t0)

	p := parts{
		U:   imatrix.FromEndpoints(uLo, uHi),
		V:   imatrix.FromEndpoints(vLo, vHi),
		SLo: sLo,
		SHi: sHi,
	}
	t0 = time.Now()
	construct(d, p)
	tm.Construct = time.Since(t0)
	d.Timings = tm
	return d, nil
}

// invertAveraged inverts the midpoint of an interval factor matrix,
// falling back to the Moore-Penrose pseudo-inverse when the matrix is
// rectangular or ill-conditioned (Section 4.4.2.2). The pseudo-inverse
// runs under the routed solver, bounded at opts.Rank triplets on the
// truncated path (the inverted factors have rank at most opts.Rank by
// construction).
func invertAveraged(avg *matrix.Dense, opts Options) (*matrix.Dense, error) {
	if avg.Rows == avg.Cols && eig.Cond2(avg) <= opts.CondThreshold {
		inv, err := matrix.Inverse(avg)
		if err == nil {
			return inv, nil
		}
		// Singular despite the condition estimate: fall through to pinv.
	}
	return eig.PInvWith(avg, opts.PinvCutoff, opts.Solver, opts.Rank)
}

// isvd34Common runs the shared ISVD3/ISVD4 pipeline through the solve
// step: interval Gram eigen-decomposition, early ILSA, and interval
// recovery of U† = M† × ((V†)ᵀ)⁻¹ × (Σ†)⁻¹.
func isvd34Common(op operand, opts Options, d *Decomposition, tm *Timings) (p parts, sigmaInv *matrix.Dense, err error) {
	vLo, vHi, sLo, sHi, pre, dec, err := op.gramEig(opts)
	if err != nil {
		return parts{}, nil, err
	}
	tm.Preprocess, tm.Decompose = pre, dec

	if opts.Updatable {
		// ISVD3/4 never form the per-side left factors; recover them here
		// (one endpoint product per side) so the update engine holds full
		// endpoint SVD triples. Captured before ILSA mutates the hi side.
		uLo := recoverUFrom(op.applyLo(vLo), sLo)
		uHi := recoverUFrom(op.applyHi(vHi), sHi)
		captureState(d, op, opts,
			&eig.SVDResult{U: uLo, S: sLo, V: vLo},
			&eig.SVDResult{U: uHi, S: sHi, V: vHi}, nil)
	}

	t0 := time.Now()
	d.CosVUnaligned = align.ColumnCosines(vLo, vHi)
	res := align.ILSA(vLo, vHi, opts.Assign)
	res.Apply(nil, vHi, nil)
	sHi = res.ApplyToDiag(sHi)
	d.CosVAligned = res.Cos
	tm.Align = time.Since(t0)

	t0 = time.Now()
	v := imatrix.FromEndpoints(vLo, vHi)
	vInv, err := invertAveraged(v.Mid(), opts) // r×m
	if err != nil {
		return parts{}, nil, fmt.Errorf("inverting V: %w", err)
	}
	sigma := imatrix.DiagFromEndpoints(sLo, sHi)
	sigmaInv = imatrix.InverseDiag(sigma) // r×r scalar (Algorithm 4)
	// U† = M† × ((V†)ᵀ)⁻¹ × (Σ†)⁻¹ with scalar right operand.
	right := matrix.Mul(vInv.T(), sigmaInv)
	u := op.mulEndpointsRight(right, opts)
	d.CosURecovered = align.ColumnCosines(u.Lo, u.Hi)
	tm.Solve = time.Since(t0)

	return parts{U: u, V: v, SLo: sLo, SHi: sHi}, sigmaInv, nil
}

// decomposeISVD3 implements decompose-align-solve (Section 4.4).
func decomposeISVD3(op operand, opts Options) (*Decomposition, error) {
	d := &Decomposition{Method: ISVD3, Target: opts.Target, Rank: opts.Rank, ExactAlgebra: opts.ExactAlgebra}
	var tm Timings
	p, _, err := isvd34Common(op, opts, d, &tm)
	if err != nil {
		return nil, fmt.Errorf("core: ISVD3: %w", err)
	}
	t0 := time.Now()
	construct(d, p)
	tm.Construct = time.Since(t0)
	d.Timings = tm
	return d, nil
}

// decomposeISVD4 implements decompose-align-solve-recompute
// (Section 4.5): after recovering U† as in ISVD3, the right factor is
// recomputed as V† = [(Σ†)⁻¹ × (U†)⁻¹ × M†]ᵀ, which tightens the V
// intervals by propagating the alignment benefits of the U side.
func decomposeISVD4(op operand, opts Options) (*Decomposition, error) {
	d := &Decomposition{Method: ISVD4, Target: opts.Target, Rank: opts.Rank, ExactAlgebra: opts.ExactAlgebra}
	var tm Timings
	p, sigmaInv, err := isvd34Common(op, opts, d, &tm)
	if err != nil {
		return nil, fmt.Errorf("core: ISVD4: %w", err)
	}

	t0 := time.Now()
	uInv, err := invertAveraged(p.U.Mid(), opts) // r×n
	if err != nil {
		return nil, fmt.Errorf("core: ISVD4: inverting U: %w", err)
	}
	left := matrix.Mul(sigmaInv, uInv)
	vT := op.mulEndpointsLeft(left, opts) // r×m
	p.V = vT.T()
	d.CosVRecomputed = align.ColumnCosines(p.V.Lo, p.V.Hi)
	tm.Solve += time.Since(t0)

	t0 = time.Now()
	construct(d, p)
	tm.Construct = time.Since(t0)
	d.Timings = tm
	return d, nil
}
