// Package align implements Interval-Valued Latent Semantic Alignment
// (ILSA, Section 3.3 and Supplementary Algorithm 6 of the paper).
//
// Given the minimum-side and maximum-side factor matrices V* and V^*
// produced by decomposing the endpoints of an interval-valued matrix
// independently, ILSA pairs each column of V^* with the column of V* it
// best aligns with (preference = |cos|), and flips the direction of
// paired columns whose cosine is negative, so that the combined
// interval-valued latent space has v* ≈ v^* per basis vector.
package align

import (
	"math"

	"repro/internal/assign"
	"repro/internal/matrix"
)

// Result describes an alignment between the columns of a minimum-side
// matrix Vlo and a maximum-side matrix Vhi.
type Result struct {
	// Perm maps each Vlo column index j to the Vhi column Perm[j] it is
	// paired with (apply as: alignedHi[:, j] = Vhi[:, Perm[j]]).
	Perm []int
	// Flip[j] reports that the paired Vhi column points in the opposite
	// direction (cosine < 0) and must be negated after permutation.
	Flip []bool
	// Cos[j] is |cos| between Vlo[:, j] and its aligned partner.
	Cos []float64
}

// ILSA aligns the columns of vhi to the columns of vlo using the given
// assignment method (the paper's Problem 2 uses Hungarian; Supplementary
// Algorithm 6 uses Greedy; Problem 1 uses StableMarriage). Both matrices
// must share the same shape.
func ILSA(vlo, vhi *matrix.Dense, method assign.Method) Result {
	if vlo.Rows != vhi.Rows || vlo.Cols != vhi.Cols {
		panic("align: ILSA: shape mismatch")
	}
	r := vlo.Cols
	// One row-order sweep gathers every column inner product, so no
	// column is copied. dot[i*r+j] = ⟨vhi[:,i], vlo[:,j]⟩ and the squared
	// norms sum over rows in ascending order, exactly as Cosine's loop
	// does, so every cosine below has Cosine's bits.
	dot := make([]float64, r*r)
	nlo := make([]float64, r)
	nhi := make([]float64, r)
	for k := 0; k < vlo.Rows; k++ {
		lo, hi := vlo.RowView(k), vhi.RowView(k)
		for i, h := range hi {
			d := dot[i*r : (i+1)*r]
			for j, l := range lo {
				d[j] += h * l
			}
			nhi[i] += h * h
		}
		for j, l := range lo {
			nlo[j] += l * l
		}
	}
	// score[i][j] = |cos(vhi[:,i], vlo[:,j])|: rows index Vhi columns,
	// columns index Vlo columns, so perm[j] (row for column j) is directly
	// the Vhi column paired with Vlo column j.
	score := make([][]float64, r)
	for i := range score {
		score[i] = make([]float64, r)
		for j := range score[i] {
			score[i][j] = math.Abs(cosine(dot[i*r+j], nhi[i], nlo[j]))
		}
	}
	perm := assign.Solve(score, method)
	flip := make([]bool, r)
	cos := make([]float64, r)
	for j, p := range perm {
		c := cosine(dot[p*r+j], nlo[j], nhi[p])
		flip[j] = c < 0
		cos[j] = math.Abs(c)
	}
	return Result{Perm: perm, Flip: flip, Cos: cos}
}

// Apply permutes and sign-flips the columns of the given maximum-side
// matrices in place according to the alignment. Any of the arguments may
// be nil. sigmaHi, when non-nil, is a diagonal matrix whose diagonal is
// permuted (signs are never flipped on singular values).
func (res Result) Apply(uHi, vHi, sigmaHi *matrix.Dense) {
	r := len(res.Perm)
	permCols := func(m *matrix.Dense) {
		if m == nil {
			return
		}
		orig := m.Clone()
		for j := 0; j < r; j++ {
			src := res.Perm[j]
			for i := 0; i < m.Rows; i++ {
				v := orig.At(i, src)
				if res.Flip[j] {
					v = -v
				}
				m.Set(i, j, v)
			}
		}
	}
	permCols(uHi)
	permCols(vHi)
	if sigmaHi != nil {
		orig := sigmaHi.Diagonal()
		for j := 0; j < r; j++ {
			sigmaHi.Set(j, j, orig[res.Perm[j]])
		}
	}
}

// ApplyToDiag permutes a plain diagonal slice according to the alignment.
func (res Result) ApplyToDiag(d []float64) []float64 {
	out := make([]float64, len(d))
	for j := range res.Perm {
		out[j] = d[res.Perm[j]]
	}
	return out
}

// Cosine returns the cosine similarity of two equal-length vectors;
// it returns 0 when either vector has zero norm.
func Cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	return cosine(dot, na, nb)
}

// cosine finishes Cosine from the inner product and the two squared
// norms.
func cosine(dot, na, nb float64) float64 {
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// ColumnCosines returns |cos| between corresponding columns of a and b
// without alignment — the "before" series of the paper's Figures 3 and 5.
// Like ILSA it sweeps rows once instead of copying columns; each sum
// keeps Cosine's order.
func ColumnCosines(a, b *matrix.Dense) []float64 {
	if a.Cols != b.Cols {
		panic("align: ColumnCosines: column mismatch")
	}
	r := a.Cols
	dot, na, nb := make([]float64, r), make([]float64, r), make([]float64, r)
	for k := 0; k < a.Rows; k++ {
		ar, br := a.RowView(k), b.RowView(k)
		for j, x := range ar {
			y := br[j]
			dot[j] += x * y
			na[j] += x * x
			nb[j] += y * y
		}
	}
	for j := range dot {
		dot[j] = math.Abs(cosine(dot[j], na[j], nb[j]))
	}
	return dot
}
