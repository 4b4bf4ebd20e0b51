// Package matrix implements the dense, row-major scalar matrix substrate
// used by every factorization in this repository: construction,
// element access, arithmetic, transposition, norms, column operations,
// and Gauss-Jordan inversion. Higher-level numerics (eigen, SVD,
// pseudo-inverse) live in internal/eig; the only dependency here is the
// shared worker pool of internal/parallel, which the O(n³) products are
// sharded on (with a size cutoff so small matrices run serially).
//
//ivmf:deterministic
package matrix

import (
	"fmt"
	"math"
)

// Dense is an n×m dense matrix of float64 stored in row-major order.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, Data[i*Cols+j] == element (i,j)
}

// New allocates a zeroed r×c matrix. It panics on non-positive dimensions.
func New(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("matrix: New(%d, %d): non-positive dimension", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("matrix: FromRows: empty input")
	}
	m := New(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != m.Cols {
			panic("matrix: FromRows: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Diag returns a square diagonal matrix with the given diagonal.
func Diag(d []float64) *Dense {
	m := New(len(d), len(d))
	for i, v := range d {
		m.Data[i*len(d)+i] = v
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	out := make([]float64, m.Cols)
	copy(out, m.Data[i*m.Cols:(i+1)*m.Cols])
	return out
}

// RowView returns row i as a slice sharing m's backing storage.
func (m *Dense) RowView(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// SetCol overwrites column j with v.
func (m *Dense) SetCol(j int, v []float64) {
	if len(v) != m.Rows {
		panic("matrix: SetCol: length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+j] = v[i]
	}
}

// SetRow overwrites row i with v.
func (m *Dense) SetRow(i int, v []float64) {
	if len(v) != m.Cols {
		panic("matrix: SetRow: length mismatch")
	}
	copy(m.Data[i*m.Cols:(i+1)*m.Cols], v)
}

// Diagonal returns a copy of the main diagonal.
func (m *Dense) Diagonal() []float64 {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = m.Data[i*m.Cols+i]
	}
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	return TransposeInto(New(m.Cols, m.Rows), m)
}

// TransposeInPlace overwrites m with its transpose and swaps Rows and
// Cols, without a second matrix-sized buffer. A square matrix swaps
// across the diagonal. A rectangular one follows the cycles of the
// transposition permutation (the element at flat index p moves to
// p·Rows mod (Rows·Cols−1)), marking visited slots in a one-bit-per-
// element mask. Pure data movement: every value keeps its bits.
func (m *Dense) TransposeInPlace() *Dense {
	r, c, d := m.Rows, m.Cols, m.Data
	m.Rows, m.Cols = c, r
	if r == c {
		for i := 0; i < r; i++ {
			for j := i + 1; j < c; j++ {
				d[i*c+j], d[j*c+i] = d[j*c+i], d[i*c+j]
			}
		}
		return m
	}
	if r == 1 || c == 1 {
		return m
	}
	last := len(d) - 1 // slots 0 and last are fixed points
	visited := make([]uint64, (len(d)+63)/64)
	for start := 1; start < last; start++ {
		if visited[start/64]&(1<<(start%64)) != 0 {
			continue
		}
		v := d[start]
		p := start
		for {
			p = p * r % last
			visited[p/64] |= 1 << (p % 64)
			v, d[p] = d[p], v
			if p == start {
				break
			}
		}
	}
	return m
}

// Mul returns the product a·b. It panics on incompatible shapes.
//
// The product runs on the cache-blocked kernel of MulInto: sharded over
// blocks of output rows on the shared worker pool, with each element's
// accumulation in fixed ascending k order within one goroutine, so the
// result is bitwise identical for any worker count and tile size. Zero
// left factors are NOT skipped: 0·NaN and 0·±Inf propagate as NaN.
func Mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: Mul: %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	return MulInto(New(a.Rows, b.Cols), a, b)
}

// MulT returns a·bᵀ without materializing the transpose, on the blocked
// kernel of MulTInto (same determinism and NaN semantics as Mul).
func MulT(a, b *Dense) *Dense {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: MulT: %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	return MulTInto(New(a.Rows, b.Rows), a, b)
}

// TMul returns aᵀ·b without materializing the transpose, on the blocked
// kernel of TMulInto (same determinism and NaN semantics as Mul).
func TMul(a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("matrix: TMul: (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	return TMulInto(New(a.Cols, b.Cols), a, b)
}

// Add returns a + b elementwise.
func Add(a, b *Dense) *Dense {
	checkSameShape("Add", a, b)
	return AddInto(New(a.Rows, a.Cols), a, b)
}

// Sub returns a - b elementwise.
func Sub(a, b *Dense) *Dense {
	checkSameShape("Sub", a, b)
	return SubInto(New(a.Rows, a.Cols), a, b)
}

// Scale returns s·m as a new matrix.
func (m *Dense) Scale(s float64) *Dense {
	return ScaleInto(New(m.Rows, m.Cols), s, m)
}

// Mean returns the elementwise mean (a + b) / 2.
func Mean(a, b *Dense) *Dense {
	checkSameShape("Mean", a, b)
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = (v + b.Data[i]) / 2
	}
	return out
}

// Frobenius returns the Frobenius norm ‖m‖_F.
func (m *Dense) Frobenius() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element value.
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Equal reports elementwise equality within tol.
func Equal(a, b *Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// IsFinite reports whether every element is finite (no NaN or Inf).
func (m *Dense) IsFinite() bool {
	for _, v := range m.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// ColNorm returns the Euclidean norm of column j.
func (m *Dense) ColNorm(j int) float64 {
	var s float64
	for i := 0; i < m.Rows; i++ {
		v := m.Data[i*m.Cols+j]
		s += v * v
	}
	return math.Sqrt(s)
}

// NormalizeColumns scales every column of m (in place) to unit Euclidean
// norm and returns the original column norms (Supplementary Algorithm 5).
// Zero columns are left untouched and report norm 0.
func (m *Dense) NormalizeColumns() []float64 {
	norms := make([]float64, m.Cols)
	for j := 0; j < m.Cols; j++ {
		n := m.ColNorm(j)
		norms[j] = n
		if n == 0 {
			continue
		}
		for i := 0; i < m.Rows; i++ {
			m.Data[i*m.Cols+j] /= n
		}
	}
	return norms
}

// SubMatrix returns the block m[r0:r1, c0:c1] as a new matrix.
func (m *Dense) SubMatrix(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || c0 < 0 || r1 > m.Rows || c1 > m.Cols || r0 >= r1 || c0 >= c1 {
		panic("matrix: SubMatrix: bad bounds")
	}
	out := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.Data[(i-r0)*out.Cols:(i-r0+1)*out.Cols], m.Data[i*m.Cols+c0:i*m.Cols+c1])
	}
	return out
}

// String renders the matrix with %.4g elements, one row per line.
func (m *Dense) String() string {
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
		s += "\n"
	}
	return s
}

func checkSameShape(op string, a, b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: %s: shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
