package eig

import (
	"math"
	"sort"

	"repro/internal/matrix"
	"repro/internal/parallel"
)

const maxSVDIterations = 75

// slowSplitIts is the sweep count after which golubReinsch's split test
// also accepts an off-diagonal within one ulp of the matrix norm.
const slowSplitIts = 30

// SVDResult holds a thin singular value decomposition A ≈ U·diag(S)·Vᵀ
// with k = min(rows, cols) columns in U and V and S sorted descending.
type SVDResult struct {
	U *matrix.Dense // rows × k, orthonormal columns
	S []float64     // k singular values, descending, non-negative
	V *matrix.Dense // cols × k, orthonormal columns
}

// SVD computes the thin singular value decomposition of a by the
// Golub-Reinsch algorithm (Householder bidiagonalization followed by
// implicit-shift QR on the bidiagonal). The input is not modified.
//
// The algorithm runs on the tall orientation (a itself when
// Rows >= Cols, aᵀ otherwise) with its working matrix and V held
// column-major: column j of the tall working matrix is row j of one
// workspace, so every reflection, accumulation and Givens sweep walks
// contiguous memory. A wide input is already that layout and is cloned
// once; a tall input is transposed once into the workspace. At the end
// both factors are transposed back in place (the workspace becomes U,
// or V for a wide input). Every element sees the same arithmetic in the
// same order as the row-major textbook loops, so the result is bitwise
// the same; TestSVDBitwiseDigests pins it.
func SVD(a *matrix.Dense) (*SVDResult, error) {
	wide := a.Rows < a.Cols
	var work *matrix.Dense
	if wide {
		work = a.Clone()
	} else {
		work = matrix.TransposeInto(matrix.New(a.Cols, a.Rows), a)
	}
	w, vt, err := golubReinsch(work)
	if err != nil {
		return nil, err
	}
	u, v := work.TransposeInPlace(), vt.TransposeInPlace()
	sortSVD(u, w, v)
	canonicalizeSVDSigns(u, v)
	if wide {
		return &SVDResult{U: v, S: w, V: u}, nil
	}
	return &SVDResult{U: u, S: w, V: v}, nil
}

// Truncate returns the rank-r truncation of the decomposition as a fully
// independent copy: U, V, and S never alias the receiver's storage, for
// any rank (a rank at or above len(S) returns a full copy). Mutating the
// truncation therefore never corrupts the original, and vice versa —
// pinned by TestSVDTruncateOwnership.
func (r *SVDResult) Truncate(rank int) *SVDResult {
	if rank > len(r.S) {
		rank = len(r.S)
	}
	return &SVDResult{
		U: r.U.SubMatrix(0, r.U.Rows, 0, rank),
		S: append([]float64(nil), r.S[:rank]...),
		V: r.V.SubMatrix(0, r.V.Rows, 0, rank),
	}
}

// golubReinsch runs the Golub-Reinsch iteration on the tall m×n matrix
// A (m >= n) given column-major as ut (n×m, ut[j][k] = A[k][j]),
// consuming it: ut is overwritten with Uᵀ. It returns the unsorted
// singular values and Vᵀ (n×n, same layout).
func golubReinsch(ut *matrix.Dense) (w []float64, vt *matrix.Dense, err error) {
	n, m := ut.Rows, ut.Cols
	a := ut.Data // a[j*m+k] = A[k][j]: column j is a[j*m : (j+1)*m]
	vt = matrix.New(n, n)
	v := vt.Data // v[j*n+k] = V[k][j]
	// col returns column j of a column-major matrix. The sweeps below
	// reslice paired columns to a common length (cj = cj[:len(ci)]) so
	// the compiler drops the inner loops' bounds checks.
	col := func(d []float64, stride, j int) []float64 { return d[j*stride : (j+1)*stride] }
	w = make([]float64, n)
	rv1 := make([]float64, n)
	// scratch holds rowReflect's per-row dot products (indexed by row,
	// so concurrent chunks write disjoint ranges) and, during the
	// right-hand accumulation, a gathered copy of row i of A.
	scratch := make([]float64, m)

	var c, f, h, s, x, y, z float64
	var anorm, g, scale float64
	var l int

	// Pool sweep bodies, hoisted out of the iteration loops and reused
	// via the sv* variables so each sweep costs one closure allocation
	// per SVD instead of one per iteration (each parallel.For returns
	// before the variables are rewritten, so sharing is race-free).
	var (
		svI, svL int
		svF      float64
	)
	// Each column j > svI is reflected against the fixed Householder
	// vector in column svI, so the columns shard independently onto the
	// pool (dot product and update keep their serial k order per column).
	colReflect := func(jlo, jhi int) {
		ci := col(a, m, svI)[svI:]
		for j := svL + jlo; j < svL+jhi; j++ {
			cj := col(a, m, j)[svI:]
			cj = cj[:len(ci)]
			sj := 0.0
			for k, x := range ci {
				sj += x * cj[k]
			}
			fj := sj / svF
			for k, x := range ci {
				cj[k] += fj * x
			}
		}
	}
	// Rows j > svI are reflected against the fixed row svI; independent
	// across j, sharded on the pool. Rows are strided in this layout, so
	// the chunk's dot products accumulate side by side in scratch with
	// k as the outer loop: each row's sum still adds its terms in
	// ascending k, and the update then sweeps the same contiguous
	// column segments.
	rowReflect := func(jlo, jhi int) {
		lo, hi := svL+jlo, svL+jhi
		sums := scratch[lo:hi]
		clear(sums)
		for k := svL; k < n; k++ {
			ck := col(a, m, k)
			aik, seg := ck[svI], ck[lo:hi]
			seg = seg[:len(sums)]
			for t, x := range seg {
				sums[t] += x * aik
			}
		}
		for k := svL; k < n; k++ {
			seg := col(a, m, k)[lo:hi]
			seg = seg[:len(sums)]
			rk := rv1[k]
			for t, sj := range sums {
				seg[t] += sj * rk
			}
		}
	}
	// Columns j > svI of V transform independently against the (already
	// written) column svI, with row svI of A gathered into scratch;
	// sharded on the pool.
	vAccumulate := func(jlo, jhi int) {
		ai := scratch[svL:n]
		vi := col(v, n, svI)[svL:]
		vi = vi[:len(ai)]
		for j := svL + jlo; j < svL+jhi; j++ {
			vj := col(v, n, j)[svL:]
			vj = vj[:len(ai)]
			sj := 0.0
			for k, x := range ai {
				sj += x * vj[k]
			}
			for k, x := range vi {
				vj[k] += sj * x
			}
		}
	}
	// Columns j > svI transform independently against column svI;
	// sharded on the pool.
	uAccumulate := func(jlo, jhi int) {
		ci := col(a, m, svI)[svI:]
		aii, ciL := ci[0], ci[svL-svI:]
		for j := svL + jlo; j < svL+jhi; j++ {
			cj := col(a, m, j)[svI:]
			cj = cj[:len(ci)]
			cjL := cj[svL-svI:]
			cjL = cjL[:len(ciL)]
			sj := 0.0
			for k, x := range ciL {
				sj += x * cjL[k]
			}
			fj := (sj / aii) * svF
			for k, x := range ci {
				cj[k] += fj * x
			}
		}
	}

	// Householder reduction to bidiagonal form.
	for i := 0; i < n; i++ {
		l = i + 1
		rv1[i] = scale * g
		g, s, scale = 0, 0, 0
		ci := col(a, m, i)
		for k := i; k < m; k++ {
			scale += math.Abs(ci[k])
		}
		if scale != 0 {
			for k := i; k < m; k++ {
				ci[k] /= scale
				s += ci[k] * ci[k]
			}
			f = ci[i]
			g = -math.Copysign(math.Sqrt(s), f)
			h = f*g - s
			ci[i] = f - g
			if i != n-1 {
				svI, svL, svF = i, l, h
				parallel.For(n-l, parallel.Grain(4*(m-i)), colReflect)
			}
			for k := i; k < m; k++ {
				ci[k] *= scale
			}
		}
		w[i] = scale * g

		// Row i of A is strided (a[k*m+i]); these O(n) passes are
		// negligible next to the sweeps.
		g, s, scale = 0, 0, 0
		if i != n-1 {
			for k := l; k < n; k++ {
				scale += math.Abs(a[k*m+i])
			}
			if scale != 0 {
				for k := l; k < n; k++ {
					a[k*m+i] /= scale
					s += a[k*m+i] * a[k*m+i]
				}
				f = a[l*m+i]
				g = -math.Copysign(math.Sqrt(s), f)
				h = f*g - s
				a[l*m+i] = f - g
				for k := l; k < n; k++ {
					rv1[k] = a[k*m+i] / h
				}
				if i != m-1 {
					svI, svL = i, l
					parallel.For(m-l, parallel.Grain(4*(n-l)), rowReflect)
				}
				for k := l; k < n; k++ {
					a[k*m+i] *= scale
				}
			}
		}
		anorm = math.Max(anorm, math.Abs(w[i])+math.Abs(rv1[i]))
	}

	// Accumulate right-hand transformations.
	for i := n - 1; i >= 0; i-- {
		vi := col(v, n, i)
		if i < n-1 {
			if g != 0 {
				ail := a[l*m+i]
				for j := l; j < n; j++ {
					vi[j] = (a[j*m+i] / ail) / g
					scratch[j] = a[j*m+i]
				}
				svI, svL = i, l
				parallel.For(n-l, parallel.Grain(4*(n-l)), vAccumulate)
			}
			for j := l; j < n; j++ {
				v[j*n+i] = 0
				vi[j] = 0
			}
		}
		vi[i] = 1
		g = rv1[i]
		l = i
	}

	// Accumulate left-hand transformations.
	for i := n - 1; i >= 0; i-- {
		l = i + 1
		g = w[i]
		for j := l; j < n; j++ {
			a[j*m+i] = 0
		}
		ci := col(a, m, i)
		if g != 0 {
			g = 1 / g
			if i != n-1 {
				svI, svL, svF = i, l, g
				parallel.For(n-l, parallel.Grain(4*(m-l)), uAccumulate)
			}
			for j := i; j < m; j++ {
				ci[j] *= g
			}
		} else {
			clear(ci[i:])
		}
		ci[i]++
	}

	// rotate applies one Givens rotation to the column pair (p, q) of
	// the stride-wide column-major matrix d.
	rotate := func(d []float64, stride, p, q int, c, s float64) {
		cp, cq := col(d, stride, p), col(d, stride, q)
		cq = cq[:len(cp)]
		for k, y := range cp {
			z := cq[k]
			cp[k] = y*c + z*s
			cq[k] = z*c - y*s
		}
	}

	// Diagonalize the bidiagonal form.
	for k := n - 1; k >= 0; k-- {
		for its := 0; ; its++ {
			if its >= maxSVDIterations {
				return nil, nil, ErrNoConvergence
			}
			flag := true
			var nm int
			// After slowSplitIts sweeps on one k, an rv1 within 2⁻⁵²·anorm
			// also splits: at half an ulp of anorm the rounded sum
			// |rv1|+anorm can round up and never equal anorm, and a
			// near-orthonormal input (every σ ≈ 1) then sweeps until
			// maxSVDIterations. Earlier sweeps keep the textbook test, so
			// an input whose every k splits within slowSplitIts sweeps
			// gets the same bits as before.
			tiny := 0.0
			if its >= slowSplitIts {
				tiny = 0x1p-52 * anorm
			}
			for l = k; l >= 0; l-- {
				nm = l - 1
				if off := math.Abs(rv1[l]); off+anorm == anorm || off <= tiny {
					flag = false
					break
				}
				if math.Abs(w[nm])+anorm == anorm {
					break
				}
			}
			if flag {
				// Cancellation of rv1[l] when w[nm] is negligible.
				c, s = 0, 1
				for i := l; i <= k; i++ {
					f = s * rv1[i]
					rv1[i] = c * rv1[i]
					if math.Abs(f)+anorm == anorm {
						break
					}
					g = w[i]
					h = math.Hypot(f, g)
					w[i] = h
					h = 1 / h
					c = g * h
					s = -f * h
					rotate(a, m, nm, i, c, s)
				}
			}
			z = w[k]
			if l == k {
				// Converged; enforce non-negative singular value.
				if z < 0 {
					w[k] = -z
					vk := col(v, n, k)
					for j := range vk {
						vk[j] = -vk[j]
					}
				}
				break
			}
			// Shift from bottom 2×2 minor.
			x = w[l]
			nm = k - 1
			y = w[nm]
			g = rv1[nm]
			h = rv1[k]
			f = ((y-z)*(y+z) + (g-h)*(g+h)) / (2 * h * y)
			g = math.Hypot(f, 1)
			f = ((x-z)*(x+z) + h*((y/(f+math.Copysign(g, f)))-h)) / x

			// Next QR transformation.
			c, s = 1, 1
			for j := l; j <= nm; j++ {
				i := j + 1
				g = rv1[i]
				y = w[i]
				h = s * g
				g = c * g
				z = math.Hypot(f, h)
				rv1[j] = z
				c = f / z
				s = h / z
				f = x*c + g*s
				g = g*c - x*s
				h = y * s
				y = y * c
				rotate(v, n, j, i, c, s)
				z = math.Hypot(f, h)
				w[j] = z
				if z != 0 {
					z = 1 / z
					c = f * z
					s = h * z
				}
				f = c*g + s*y
				x = c*y - s*g
				rotate(a, m, j, i, c, s)
			}
			rv1[l] = 0
			rv1[k] = f
			w[k] = x
		}
	}
	return w, vt, nil
}

// sortSVD permutes the decomposition so singular values descend. The
// permutation is applied in place by walking its cycles with a single
// column buffer (pure data movement — no matrix-sized temporaries and
// no arithmetic, so results are unchanged bitwise).
func sortSVD(u *matrix.Dense, w []float64, v *matrix.Dense) {
	n := len(w)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return w[idx[a]] > w[idx[b]] })
	buf := make([]float64, u.Rows+v.Rows+1)
	// Walk the cycles of newJ -> idx[newJ]: save the cycle head, shift
	// each (w, u-col, v-col) triple from its source slot, restore the
	// head at the cycle's end. idx entries are marked done with -1.
	saveCol := func(j int) {
		buf[0] = w[j]
		for i := 0; i < u.Rows; i++ {
			buf[1+i] = u.Data[i*u.Cols+j]
		}
		for i := 0; i < v.Rows; i++ {
			buf[1+u.Rows+i] = v.Data[i*v.Cols+j]
		}
	}
	moveCol := func(dst, src int) {
		w[dst] = w[src]
		for i := 0; i < u.Rows; i++ {
			u.Data[i*u.Cols+dst] = u.Data[i*u.Cols+src]
		}
		for i := 0; i < v.Rows; i++ {
			v.Data[i*v.Cols+dst] = v.Data[i*v.Cols+src]
		}
	}
	restoreCol := func(j int) {
		w[j] = buf[0]
		for i := 0; i < u.Rows; i++ {
			u.Data[i*u.Cols+j] = buf[1+i]
		}
		for i := 0; i < v.Rows; i++ {
			v.Data[i*v.Cols+j] = buf[1+u.Rows+i]
		}
	}
	for start := 0; start < n; start++ {
		if idx[start] < 0 || idx[start] == start {
			continue
		}
		saveCol(start)
		j := start
		for idx[j] != start {
			src := idx[j]
			moveCol(j, src)
			idx[j] = -1
			j = src
		}
		restoreCol(j)
		idx[j] = -1
	}
}

// canonicalizeSVDSigns orients each (u_j, v_j) pair so the
// largest-magnitude entry of v_j is non-negative, for determinism.
func canonicalizeSVDSigns(u, v *matrix.Dense) {
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
