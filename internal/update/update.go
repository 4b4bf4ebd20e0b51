// Package update implements deterministic low-rank singular-value
// decomposition updates in the style of Brand's incremental SVD: given
// the truncated factors (U, Σ, V) of a matrix A, an arriving batch —
// appended rows, appended columns, or a sparse additive cell patch — is
// folded into the factors without ever re-decomposing A. Each batch
// costs O((m+n)·(r+c)·c + (r+c)³) for batch rank c against the O(NNZ·r)
// per sweep (times many sweeps) of a from-scratch truncated solve,
// which is what converts a streaming service's per-update cost from
// "size of the dataset" to "size of the delta". A scattered cell patch
// wider than r+k (k = rank + 8) is compressed instead (sketch.go): a
// sketch of the patch against the current left factors and a seeded
// Gaussian block extends the right basis by k directions, the left
// basis is extended exactly on the extended right basis, and the step
// costs O(nnz·(r+k) + (m+n)·(r+k)² + (r+k)³) whatever the patch width;
// the mass outside the sketch is charged to the Discarded return value.
// Expired cells are cell patches too, of their negated values, so a
// window slide whose arrivals and tombstones are both that wide is one
// such step per side, not two: one CellPatch of the signed cells
// (+arrival, −expired value).
//
// Every factor step, an append, a cell patch or a removal, is one
// LowRank step A + p·qᵀ (or, for a wide patch, one sketched step), and
// every one ends in the same rotate. An append is a LowRank step on
// zero-padded factors: AppendRows pads U with c zero rows and takes
// p = [0; I_c], q = bᵀ; AppendCols is its transpose. A removal adds the
// negated rows or columns the same way and compacts them out.
//
// The mechanics are the classical three steps: (1) project the batch
// onto the existing factors and extract the out-of-subspace component
// with in-order Gram-Schmidt (serial, index-ordered — the
// bitwise-determinism contract of this repository), extending the left
// and right bases by at most c orthonormal directions; (2) assemble the
// small (r+c)×(r+c) core matrix and decompose it through the existing
// dense eig.SymEig (as the eigensolver of KᵀK, with the left factor
// recovered by one small product); (3) rotate the extended bases by the
// core factors and truncate back to the target rank (rotate). All
// O(matrix-dim) products run on the pool-sharded blocked kernels of
// internal/matrix, so every update is bitwise identical for any worker
// count.
//
// Exactness: when the current factors are an exact SVD of A (A has rank
// at most r) and the kept rank covers the batch-extended rank, the
// update is exact up to rounding. Otherwise each truncation discards
// singular mass; the per-update Discarded return value measures it, and
// the engine in internal/core accumulates it against a residual budget
// to schedule warm-started refreshes (eig.GramSVD with
// Options.StartU/StartV). Orthogonality drift is checked in one place,
// the engine's health gate, with FactorDrift.
//
//ivmf:deterministic
package update

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/eig"
	"repro/internal/matrix"
	"repro/internal/sparse"
)

// gsDropTol is the relative column-collapse threshold of the in-order
// Gram-Schmidt basis extension, matching the truncated solver's: a batch
// direction whose out-of-subspace component is below gsDropTol times its
// original norm carries no new subspace information and is dropped (its
// coefficients stay in the core matrix, so nothing is lost).
const gsDropTol = 1e-13

// AppendRows returns the rank-truncated SVD of [A; B] given the factors
// f of A and the new rows b (c×n). rank <= 0 keeps len(f.S); any rank is
// clamped to the extended core size r+c (and the updated matrix
// dimensions). The second return value is the Frobenius mass of the
// singular values the truncation discarded.
//
// An append is the LowRank step [A; 0] + p·qᵀ of the zero-padded
// matrix: U gains c zero rows, p = [0; I_c] selects the new rows and
// q = bᵀ carries them.
func AppendRows(f *eig.SVDResult, b *matrix.Dense, rank int) (*eig.SVDResult, float64, error) {
	m, n, r := f.U.Rows, f.V.Rows, len(f.S)
	if b.Cols != n {
		return nil, 0, fmt.Errorf("update: AppendRows: batch has %d cols, want %d", b.Cols, n)
	}
	c := b.Rows
	u := matrix.New(m+c, r)
	copy(u.Data, f.U.Data)
	p := matrix.New(m+c, c)
	for i := 0; i < c; i++ {
		p.Set(m+i, i, 1)
	}
	return LowRank(&eig.SVDResult{U: u, S: f.S, V: f.V}, p, b.T(), rank)
}

// AppendCols returns the rank-truncated SVD of [A B] given the factors f
// of A and the new columns b (m×c): the transposed counterpart of
// AppendRows (swap the factor sides, append bᵀ as rows, swap back).
func AppendCols(f *eig.SVDResult, b *matrix.Dense, rank int) (*eig.SVDResult, float64, error) {
	if b.Rows != f.U.Rows {
		return nil, 0, fmt.Errorf("update: AppendCols: batch has %d rows, want %d", b.Rows, f.U.Rows)
	}
	res, disc, err := AppendRows(&eig.SVDResult{U: f.V, S: f.S, V: f.U}, b.T(), rank)
	if err != nil {
		return nil, 0, err
	}
	return &eig.SVDResult{U: res.V, S: res.S, V: res.U}, disc, nil
}

// LowRank returns the rank-truncated SVD of A + p·qᵀ given the factors f
// of A and the batch factors p (m×c), q (n×c). This is the general
// additive form; CellPatch builds (p, q) from sparse cell deltas.
func LowRank(f *eig.SVDResult, p, q *matrix.Dense, rank int) (*eig.SVDResult, float64, error) {
	m, n, r := f.U.Rows, f.V.Rows, len(f.S)
	if p.Rows != m || q.Rows != n || p.Cols != q.Cols {
		return nil, 0, fmt.Errorf("update: LowRank: batch %dx%d · (%dx%d)ᵀ against %dx%d factors",
			p.Rows, p.Cols, q.Rows, q.Cols, m, n)
	}
	c := p.Cols
	rank = clampRank(rank, r, r+c, m, n)

	// Extend each basis: coefficients inside the current factors plus an
	// in-order Gram-Schmidt orthonormalization of the residual, with one
	// re-orthogonalization pass against the factors.
	mc, pj, rj := extendBasis(f.U, p) // mc r×c, pj m×c, rj c×c
	nc, qk, rk := extendBasis(f.V, q) // nc r×c, qk n×c, rk c×c

	// Core K = [diag(S) 0; 0 0] + [M; Rj]·[N; Rk]ᵀ of size (r+c)².
	wp := stack(mc, rj)
	wq := stack(nc, rk)
	k := matrix.MulT(wp, wq)
	for i := 0; i < r; i++ {
		k.Data[i*(r+c)+i] += f.S[i]
	}

	uk, s, vk, disc, err := coreSVD(k, rank)
	if err != nil {
		return nil, 0, err
	}
	return rotate(f, pj, qk, uk, s, vk), disc, nil
}

// rotate is the tail of an additive Brand step: the extended bases
// [U P] and [V Q] rotated by the rank-truncated core factors uk, vk
// (whose leading r rows act on U and V, the rest on P and Q), with the
// pairs oriented in eig.SVD's sign convention.
func rotate(f *eig.SVDResult, p, q, uk *matrix.Dense, s []float64, vk *matrix.Dense) *eig.SVDResult {
	r, rank := len(f.S), len(s)
	u := matrix.Add(
		matrix.Mul(f.U, uk.SubMatrix(0, r, 0, rank)),
		matrix.Mul(p, uk.SubMatrix(r, uk.Rows, 0, rank)),
	)
	v := matrix.Add(
		matrix.Mul(f.V, vk.SubMatrix(0, r, 0, rank)),
		matrix.Mul(q, vk.SubMatrix(r, vk.Rows, 0, rank)),
	)
	canonicalizePairSigns(u, v)
	return &eig.SVDResult{U: u, S: s, V: v}
}

// CellPatch returns the rank-truncated SVD of A + ΔA where ΔA holds the
// additive cell deltas of patch (value semantics: ΔA[i][j] += Val).
// Duplicate cells and out-of-range indices are errors. The patch is
// factored as p·qᵀ over its distinct rows or distinct columns, whichever
// is fewer, so the batch rank c is min(#rows touched, #cols touched).
// When c exceeds r+k (k = max(rank, r) + sketchOversample) the exact
// step would build the larger core, and the patch takes the compressed
// step of sketchedPatch instead.
func CellPatch(f *eig.SVDResult, patch []sparse.Triplet, rank int) (*eig.SVDResult, float64, error) {
	m, n := f.U.Rows, f.V.Rows
	if len(patch) == 0 {
		if rank <= 0 || rank > len(f.S) {
			rank = len(f.S)
		}
		return f.Truncate(rank), 0, nil
	}
	sorted := make([]sparse.Triplet, len(patch))
	copy(sorted, patch)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].Row != sorted[b].Row {
			return sorted[a].Row < sorted[b].Row
		}
		return sorted[a].Col < sorted[b].Col
	})
	rowSet := map[int]int{}
	colSet := map[int]int{}
	for i, t := range sorted {
		if t.Row < 0 || t.Row >= m || t.Col < 0 || t.Col >= n {
			return nil, 0, fmt.Errorf("update: CellPatch: cell (%d, %d) outside %dx%d", t.Row, t.Col, m, n)
		}
		if i > 0 && t.Row == sorted[i-1].Row && t.Col == sorted[i-1].Col {
			return nil, 0, fmt.Errorf("update: CellPatch: duplicate cell (%d, %d)", t.Row, t.Col)
		}
		if _, ok := rowSet[t.Row]; !ok {
			rowSet[t.Row] = len(rowSet)
		}
		if _, ok := colSet[t.Col]; !ok {
			colSet[t.Col] = len(colSet)
		}
	}
	// A patch wider than the sketched core takes the compressed step;
	// narrower ones keep the exact factorization below.
	if k, wide := sketchWidth(len(f.S), rank, min(len(rowSet), len(colSet))); wide {
		return sketchedPatch(f, sorted, rank, k)
	}
	// Group on the smaller side: by rows, p's columns are row indicators
	// and q carries the per-row delta values; by columns, symmetrically.
	// Group indices follow first-appearance order over the (row, col)
	// sorted patch, so the factorization is uniquely determined by the
	// cell set.
	var p, q *matrix.Dense
	if len(rowSet) <= len(colSet) {
		c := len(rowSet)
		p = matrix.New(m, c)
		q = matrix.New(n, c)
		for _, t := range sorted {
			g := rowSet[t.Row]
			p.Set(t.Row, g, 1)
			q.Set(t.Col, g, t.Val)
		}
	} else {
		c := len(colSet)
		p = matrix.New(m, c)
		q = matrix.New(n, c)
		for _, t := range sorted {
			g := colSet[t.Col]
			q.Set(t.Col, g, 1)
			p.Set(t.Row, g, t.Val)
		}
	}
	return LowRank(f, p, q, rank)
}

// sketchWidth is the one width rule of the cell steps: a patch of batch
// rank c (distinct rows or columns touched, whichever is fewer) against
// a rank-r state kept at rank is wide when c exceeds r + k, the column
// count of the sketched core's right extension; a wide patch takes the
// compressed step with k sketch columns.
func sketchWidth(r, rank, c int) (k int, wide bool) {
	k = max(rank, r) + sketchOversample
	return k, c > r+k
}

// Wide reports whether CellPatch takes the compressed step for cells
// (distinct, in range) against the factors f at the given rank.
func Wide(f *eig.SVDResult, cells []sparse.Triplet, rank int) bool {
	rows, cols := map[int]bool{}, map[int]bool{}
	for _, t := range cells {
		rows[t.Row], cols[t.Col] = true, true
	}
	_, wide := sketchWidth(len(f.S), rank, min(len(rows), len(cols)))
	return wide
}

// clampRank resolves the kept rank: non-positive keeps the current rank
// r; everything is clamped to the extended core size and the updated
// matrix dimensions.
func clampRank(rank, r, coreDim, rows, cols int) int {
	if rank <= 0 {
		rank = r
	}
	if rank > coreDim {
		rank = coreDim
	}
	if rank > rows {
		rank = rows
	}
	if rank > cols {
		rank = cols
	}
	return rank
}

// refineFrac marks a near-dependent batch column: one whose
// Gram-Schmidt remainder is below refineFrac times its norm outside
// span u. Normalizing such a remainder magnifies the ~eps·‖column‖
// rounding it still carries along u by the inverse ratio (‖uᵀj‖∞ reached
// 9.7e-5 at a 1e-12 ratio), so extendBasis projects it out once more.
// Above the fraction that component stays below ~eps/refineFrac.
const refineFrac = 1e-4

// extendBasis projects the batch block p (dim×c) onto the orthonormal
// columns of u (dim×r) and Gram-Schmidt-extends the basis with the
// residual: p = u·m + j·r with j's columns orthonormal (or zero where a
// batch direction lies inside the existing subspace) and orthogonal to
// u, whatever p's rank. The projections run on the pool-sharded
// kernels; the in-order column sweep and the refinement of
// near-dependent columns are serial, index-ordered, and therefore
// bitwise deterministic.
func extendBasis(u, p *matrix.Dense) (m, j, r *matrix.Dense) {
	m = matrix.TMul(u, p)       // r×c coefficients
	res := matrix.Mul(u, m)     // dim×c residual …
	matrix.SubInto(res, p, res) // … p − u·m, in place
	m2 := matrix.TMul(u, res)   // re-orthogonalization pass
	proj := matrix.MulInto(matrix.New(res.Rows, res.Cols), u, m2)
	matrix.SubInto(res, res, proj)
	m = matrix.AddInto(m, m, m2)
	j, r = gsCols(res)
	// A near-dependent column is re-projected against u and
	// renormalized. The projection moves it only within span u, which
	// the other columns are orthogonal to, so the set stays
	// orthonormal-or-zero. What it removes is rounding magnified by
	// ‖res_l‖/r[l][l], so r[l][l] times it is rounding again: m and r
	// stay as they are.
	for l := 0; l < j.Cols; l++ {
		if rl := r.At(l, l); rl == 0 || rl >= refineFrac*res.ColNorm(l) {
			continue
		}
		col := &matrix.Dense{Rows: j.Rows, Cols: 1, Data: j.Col(l)}
		col = matrix.Sub(col, matrix.Mul(u, matrix.TMul(u, col)))
		col.NormalizeColumns()
		j.SetCol(l, col.Data)
	}
	return m, j, r
}

// gsCols orthonormalizes the columns of a in order (modified
// Gram-Schmidt with one re-orthogonalization pass), returning q with
// orthonormal-or-zero columns and the upper-triangular r with a = q·r.
// Columns that collapse below gsDropTol of their original norm are
// zeroed: their content lies in the span of the previous columns and is
// fully carried by r's off-diagonal coefficients.
//
// a is transposed once into the q workspace so the sweeps of
// gsRowsInPlace run over contiguous rows, and q and r are transposed
// back in place.
func gsCols(a *matrix.Dense) (q, r *matrix.Dense) {
	q = matrix.TransposeInto(matrix.New(a.Cols, a.Rows), a)
	r = gsRowsInPlace(q)
	return q.TransposeInPlace(), r.TransposeInPlace()
}

// gsRowsInPlace is the Gram-Schmidt core of gsCols: it orthonormalizes
// the rows of q in place, in index order, and returns the
// lower-triangular coefficients r.
func gsRowsInPlace(q *matrix.Dense) (r *matrix.Dense) {
	c := q.Rows
	r = matrix.New(c, c)
	for jr := 0; jr < c; jr++ {
		row := q.RowView(jr)
		orig := vecNorm(row)
		for pass := 0; pass < 2; pass++ {
			for prev := 0; prev < jr; prev++ {
				prow := q.RowView(prev)
				prow = prow[:len(row)]
				var d float64
				for i, v := range row {
					d += v * prow[i]
				}
				for i := range row {
					row[i] -= d * prow[i]
				}
				r.Data[jr*c+prev] += d
			}
		}
		norm := vecNorm(row)
		if norm <= orig*gsDropTol || norm == 0 {
			clear(row)
			continue
		}
		r.Data[jr*c+jr] = norm
		inv := 1 / norm
		for i := range row {
			row[i] *= inv
		}
	}
	return r
}

// coreGramTol clamps eigenvalues of KᵀK below coreGramTol·λmax to zero:
// squaring the core matrix floors its spectral resolution at
// ~eps·σmax², so anything below is rounding noise, not signal —
// without the clamp a singular value that is exactly zero resurfaces
// as ~√eps·σmax garbage.
const coreGramTol = 1e-12

// coreSVD decomposes the small core matrix k (square (r+c)×(r+c) for
// the exact steps, (2r+k)×(r+k) for the sketched one) through the
// existing dense eig.SymEig — the eigensolver of KᵀK yields the right
// factor and singular values, and one small product recovers the left
// factor (K·Vk·Σ⁻¹, zero columns for zero singular values, the recoverU
// convention of internal/core). Returns the rank-truncated factors and
// the Frobenius mass of the discarded singular values.
func coreSVD(k *matrix.Dense, rank int) (uk *matrix.Dense, s []float64, vk *matrix.Dense, discarded float64, err error) {
	if !k.IsFinite() {
		// A NaN or Inf in the factors or the batch reaches every core
		// entry; the eigensolver would only spin to non-convergence.
		return nil, nil, nil, 0, fmt.Errorf("update: core matrix: %w", ErrNonFinite)
	}
	g := matrix.TMul(k, k)
	vals, vecs, err := eig.SymEig(g)
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("update: core eigensolve: %w", err)
	}
	floor := coreGramTol * math.Max(vals[0], 0)
	var discSq float64
	for _, ev := range vals[rank:] {
		if ev > floor {
			discSq += ev
		}
	}
	discarded = math.Sqrt(discSq)
	s = make([]float64, rank)
	for i, ev := range vals[:rank] {
		if ev > floor {
			s[i] = math.Sqrt(ev)
		}
	}
	vk = vecs.SubMatrix(0, k.Cols, 0, rank)
	uk = matrix.Mul(k, vk)
	for j, sv := range s {
		inv := 0.0
		if sv != 0 {
			inv = 1 / sv
		}
		for i := 0; i < uk.Rows; i++ {
			uk.Data[i*uk.Cols+j] *= inv
		}
		if sv == 0 {
			// Null directions get exactly-zero factor columns (uk is
			// already zero via inv = 0). The eigensolver's null-space
			// vectors are orthonormal but arbitrary — in particular they
			// mix extension-basis indices whose basis column was dropped
			// as dependent, which would rotate non-unit columns into the
			// updated V and silently break the orthonormal-factor
			// invariant the NEXT update relies on (its projection step
			// assumes B − (B·V)·Vᵀ removes the span-V component). A zero
			// column is inert in every product and keeps the invariant:
			// factor columns are orthonormal or exactly zero.
			for i := 0; i < vk.Rows; i++ {
				vk.Data[i*vk.Cols+j] = 0
			}
		}
	}
	return uk, s, vk, discarded, nil
}

// canonicalizePairSigns orients each (u_j, v_j) column pair so the
// largest-magnitude entry of v_j is non-negative — the sign convention
// of eig.SVD, so updated factors and full re-decompositions agree in
// orientation wherever their vectors agree.
func canonicalizePairSigns(u, v *matrix.Dense) {
	for j := 0; j < v.Cols; j++ {
		best, bestAbs := 0.0, 0.0
		for i := 0; i < v.Rows; i++ {
			if a := math.Abs(v.At(i, j)); a > bestAbs {
				bestAbs, best = a, v.At(i, j)
			}
		}
		if best < 0 {
			for i := 0; i < v.Rows; i++ {
				v.Set(i, j, -v.At(i, j))
			}
			for i := 0; i < u.Rows; i++ {
				u.Set(i, j, -u.At(i, j))
			}
		}
	}
}

// stack vertically concatenates top (r×c) over bottom (c×c).
func stack(top, bottom *matrix.Dense) *matrix.Dense {
	out := matrix.New(top.Rows+bottom.Rows, top.Cols)
	copy(out.Data[:len(top.Data)], top.Data)
	copy(out.Data[len(top.Data):], bottom.Data)
	return out
}

func vecNorm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
