package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/eig"
	"repro/internal/imatrix"
	"repro/internal/matrix"
	"repro/internal/sparse"
)

// sparseOperand plugs ICSR storage into the shared ISVD0-4 pipeline.
// Every product against the input runs on the CSR kernels (O(NNZ)-shaped),
// and on the truncated-solver path the endpoint Gram matrices are applied
// matrix-free — a sparse ISVD decomposition then never materializes a
// dense Gram matrix, so its transient memory is O(NNZ + (n+m)·r) instead
// of O(m²). Only the factor matrices (n×r, m×r) are dense.
type sparseOperand struct{ m *sparse.ICSR }

func (o sparseOperand) rows() int { return o.m.Rows }
func (o sparseOperand) cols() int { return o.m.Cols }

func (o sparseOperand) svdMid(opts Options) (*eig.SVDResult, time.Duration, time.Duration, error) {
	t0 := time.Now()
	mid := o.m.MidCSR()
	pre := time.Since(t0)
	t0 = time.Now()
	res, err := csrSVD(mid, opts)
	return res, pre, time.Since(t0), err
}

func (o sparseOperand) svdEndpoints(opts Options) (lo, hi *eig.SVDResult, err error) {
	err = pairSides(opts.Workers,
		func() (err error) { lo, err = csrSVD(o.m.LoCSR(), opts); return err },
		func() (err error) { hi, err = csrSVD(o.m.HiCSR(), opts); return err },
	)
	if err != nil {
		return nil, nil, err
	}
	return lo, hi, nil
}

// csrSVD is the routed SVD of one CSR matrix at opts.Rank: matrix-free
// (O(NNZ·r) per sweep, never densified) on the truncated route, and on a
// one-off dense expansion for the full solver — a full-spectrum
// decomposition needs the dense matrix anyway, so SolverFull (or an auto
// routing at near-full rank) is only sensible for matrices that fit
// densely.
func csrSVD(a *sparse.CSR, opts Options) (*eig.SVDResult, error) {
	return eig.RoutedSVD(sparse.NewOperator(a), opts.Rank, opts.Solver, a.ToDense)
}

func (o sparseOperand) gramEig(opts Options) (vLo, vHi *matrix.Dense, sLo, sHi []float64, pre, dec time.Duration, err error) {
	matrixFree := func() (eig.SymOp, eig.SymOp) {
		// For non-negative data (ratings, counts — the workloads sparse
		// storage serves) the Algorithm 1 endpoint Gram is exactly
		// [Loᵀ·Lo, Hiᵀ·Hi], so each side iterates on two CSR matvecs per
		// sweep: O(NNZ·(r+p)) per sweep, no m×m matrix.
		if !o.m.NonNegative() {
			return nil, nil
		}
		return eig.NewGramOp(sparse.NewOperator(o.m.LoCSR())),
			eig.NewGramOp(sparse.NewOperator(o.m.HiCSR()))
	}
	materialize := func() *imatrix.IMatrix {
		// Built from sparse storage: O(NNZ·m) work, dense m×m output.
		return sparse.GramEndpoints(o.m)
	}
	return gramEigRouted(opts, o.m.Cols, matrixFree, materialize)
}

func (o sparseOperand) mulEndpointsRight(s *matrix.Dense, opts Options) *imatrix.IMatrix {
	return sparse.MulEndpointsDense(o.m, s)
}

func (o sparseOperand) mulEndpointsLeft(s *matrix.Dense, opts Options) *imatrix.IMatrix {
	return sparse.MulDenseEndpoints(s, o.m)
}

func (o sparseOperand) applyLo(v *matrix.Dense) *matrix.Dense {
	return sparse.MulDense(o.m.LoCSR(), v)
}

func (o sparseOperand) applyHi(v *matrix.Dense) *matrix.Dense {
	return sparse.MulDense(o.m.HiCSR(), v)
}

func (o sparseOperand) toICSR() *sparse.ICSR { return o.m }

// ValidateSparseInput checks that a sparse interval matrix is a legal
// decomposition input: finite stored endpoints and Lo <= Hi everywhere.
func ValidateSparseInput(m *sparse.ICSR) error {
	for p, lo := range m.Lo {
		hi := m.Hi[p]
		if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
			return fmt.Errorf("core: sparse input contains NaN or Inf endpoints")
		}
		if lo > hi {
			return fmt.Errorf("core: sparse input contains misordered intervals (lo > hi)")
		}
	}
	return nil
}

// DecomposeSparse runs the selected ISVD method directly on sparse
// interval storage (unstored cells are scalar zero, the ratings/CF
// convention). The pipeline is the same as Decompose's — same align,
// solve, and construct steps on the dense factor matrices — but every
// product against the input runs on the CSR kernels, and with the
// truncated solver (the default routing whenever Rank is small relative
// to the matrix) the endpoint Gram matrices are applied matrix-free and
// never materialized, keeping transient memory at O(NNZ + (rows+cols)·
// rank). That memory bound is a property of spectra the truncated solver
// converges on (decay past Rank — pinned by the bytes-regression test):
// if the spectrum is too flat, or the solver routes to full, the
// pipeline falls back to materializing the dense cols×cols interval Gram
// (ISVD2-4) or densifying an endpoint (ISVD0/1) rather than failing.
// ExactAlgebra is not supported on sparse storage; call Decompose on
// m.ToIMatrix() for the exact interval product semantics.
func DecomposeSparse(m *sparse.ICSR, method Method, opts Options) (*Decomposition, error) {
	if err := ValidateSparseInput(m); err != nil {
		return nil, err
	}
	opts = opts.withDefaultsDims(m.Rows, m.Cols)
	if opts.ExactAlgebra {
		return nil, fmt.Errorf("core: DecomposeSparse: ExactAlgebra requires dense storage (use Decompose on m.ToIMatrix())")
	}
	if err := validateUpdatable(method, opts, m.NonNegative); err != nil {
		return nil, err
	}
	return decompose(sparseOperand{m}, method, opts)
}
