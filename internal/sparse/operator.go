// Matrix-free operator views of CSR storage for the truncated eigen/SVD
// solvers in internal/eig: block matvecs at O(NNZ·k) per apply, with the
// same ascending-k per-element accumulation order as the dense kernels,
// so a truncated decomposition through a sparse operator is bitwise
// identical to one through eig.NewDenseOp of the dense expansion (the
// stored-zero terms a CSR omits contribute exactly ±0 there).
package sparse

import (
	"fmt"
	"math"

	"repro/internal/imatrix"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// MulDenseInto computes dst = a·b for a dense right operand into the
// caller-supplied dst (a.Rows×b.Cols), overwriting it. Same sharding,
// accumulation order, and zero-skip semantics as MulDense.
//
//ivmf:noalloc
func MulDenseInto(dst *matrix.Dense, a *CSR, b *matrix.Dense) *matrix.Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("sparse: MulDenseInto: %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("sparse: MulDenseInto: dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	parallel.For(a.Rows, mulGrain(a, b.Cols), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cols, vals := a.RowView(i)
			orow := dst.RowView(i)
			for j := range orow {
				orow[j] = 0
			}
			for p, k := range cols {
				av := vals[p]
				if av == 0 {
					continue
				}
				brow := b.RowView(k)
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	})
	return dst
}

// Operator wraps a CSR as a matrix-free linear operator (satisfying
// eig.Op): Apply is a CSR·Dense product and ApplyT runs over a transpose
// index built once at construction, so both cost O(NNZ·k) per block of k
// vectors. The counting transpose emits entries in ascending original-row
// order, keeping ApplyT's accumulation order identical to the dense
// TMulInto kernel.
type Operator struct {
	a, at *CSR
}

// NewOperator builds the operator view of a (one O(NNZ) transpose pass).
func NewOperator(a *CSR) *Operator {
	return &Operator{a: a, at: a.T()}
}

// Dims returns the operator shape.
func (o *Operator) Dims() (int, int) { return o.a.Rows, o.a.Cols }

// Apply computes dst = A·x.
func (o *Operator) Apply(dst, x *matrix.Dense) { MulDenseInto(dst, o.a, x) }

// ApplyT computes dst = Aᵀ·x.
func (o *Operator) ApplyT(dst, x *matrix.Dense) { MulDenseInto(dst, o.at, x) }

// Gram returns AᵀA (cols×cols), built from the stored entries: the
// matrix eig.GramSVD's dense fallback decomposes for a tall operator.
func (o *Operator) Gram() *matrix.Dense { return Mul(o.at, o.a) }

// CoGram returns A·Aᵀ (rows×rows), the wide operator's counterpart of
// Gram.
func (o *Operator) CoGram() *matrix.Dense { return Mul(o.a, o.at) }

// MidCSR returns the midpoint matrix (Lo + Hi)/2 as a CSR sharing a's
// index structure (fresh value array) — the sparse counterpart of
// IMatrix.Mid for the ISVD0 path.
func (a *ICSR) MidCSR() *CSR {
	vals := make([]float64, len(a.Lo))
	for p, lo := range a.Lo {
		vals[p] = (lo + a.Hi[p]) / 2
	}
	return &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColInd: a.ColInd, Val: vals}
}

// NonNegative reports whether every stored Lo endpoint is >= 0 (then
// every Hi is too). For such matrices the Algorithm 1 endpoint Gram
// min/max collapses to Loᵀ·Lo and Hiᵀ·Hi, which is what lets the ISVD
// Gram step run matrix-free on the endpoint operators.
func (a *ICSR) NonNegative() bool {
	for _, lo := range a.Lo {
		if lo < 0 {
			return false
		}
	}
	return true
}

// MulDenseEndpoints is the sparse counterpart of
// imatrix.MulEndpointsScalarLeft (Supplementary Algorithm 1 with a scalar
// left operand): out = s × a with out.Lo = min(s·a.Lo, s·a.Hi) and out.Hi
// the max, fused — both endpoint products accumulate directly into the
// output storage in one sweep and are min/max-sorted in place. Output
// rows are sharded on the pool; each output element accumulates over
// ascending stored-row order, matching the dense kernel's ascending k
// (skipped terms there are exactly ±0), so for finite operands the result
// is bitwise identical to the imatrix version on a.ToIMatrix().
func MulDenseEndpoints(s *matrix.Dense, a *ICSR) *imatrix.IMatrix {
	if s.Cols != a.Rows {
		panic(fmt.Sprintf("sparse: MulDenseEndpoints: %dx%d · %dx%d", s.Rows, s.Cols, a.Rows, a.Cols))
	}
	out := imatrix.New(s.Rows, a.Cols)
	w := a.Cols
	perRow := 2 * 2 * (a.NNZ() + 1)
	parallel.For(s.Rows, parallel.Grain(perRow), func(rlo, rhi int) {
		for x := rlo; x < rhi; x++ {
			srow := s.RowView(x)
			t1 := out.Lo.Data[x*w : (x+1)*w]
			t2 := out.Hi.Data[x*w : (x+1)*w]
			for i := 0; i < a.Rows; i++ {
				sv := srow[i]
				if sv == 0 {
					continue
				}
				cols, lov, hiv := a.RowView(i)
				for p, j := range cols {
					t1[j] += sv * lov[p]
					t2[j] += sv * hiv[p]
				}
			}
			for j, v := range t1 {
				t1[j] = math.Min(v, t2[j])
				t2[j] = math.Max(v, t2[j])
			}
		}
	})
	return out
}
