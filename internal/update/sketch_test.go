package update

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/eig"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// scatteredPatch draws count distinct random cells of an m×n matrix
// with N(0, scale²) values, in draw order.
func scatteredPatch(m, n, count int, scale float64, rng *rand.Rand) []sparse.Triplet {
	seen := map[[2]int]bool{}
	var patch []sparse.Triplet
	for len(patch) < count {
		i, j := rng.Intn(m), rng.Intn(n)
		if seen[[2]int{i, j}] {
			continue
		}
		seen[[2]int{i, j}] = true
		patch = append(patch, sparse.Triplet{Row: i, Col: j, Val: scale * rng.NormFloat64()})
	}
	return patch
}

// requireSketched fails the test unless CellPatch routes patch through
// the compressed step at this rank.
func requireSketched(t *testing.T, f *eig.SVDResult, patch []sparse.Triplet, rank int) {
	t.Helper()
	rows, cols := map[int]bool{}, map[int]bool{}
	for _, c := range patch {
		rows[c.Row], cols[c.Col] = true, true
	}
	if c, w := min(len(rows), len(cols)), len(f.S)+max(rank, len(f.S))+sketchOversample; c <= w {
		t.Fatalf("patch has batch rank %d; the sketched step needs more than %d", c, w)
	}
}

// exactPatch is the exact Brand step CellPatch takes for narrow
// patches, forced here for any width: row indicators times per-row
// values through LowRank.
func exactPatch(t *testing.T, f *eig.SVDResult, patch []sparse.Triplet, rank int) (*eig.SVDResult, float64) {
	t.Helper()
	group := map[int]int{}
	for _, c := range patch {
		if _, ok := group[c.Row]; !ok {
			group[c.Row] = len(group)
		}
	}
	p := matrix.New(f.U.Rows, len(group))
	q := matrix.New(f.V.Rows, len(group))
	for _, c := range patch {
		p.Set(c.Row, group[c.Row], 1)
		q.Set(c.Col, group[c.Row], c.Val)
	}
	res, disc, err := LowRank(f, p, q, rank)
	if err != nil {
		t.Fatal(err)
	}
	return res, disc
}

// patched returns reconstruct(f) + ΔA: the matrix the update claims to
// factor.
func patched(f *eig.SVDResult, patch []sparse.Triplet) *matrix.Dense {
	a := reconstruct(f)
	for _, c := range patch {
		a.Set(c.Row, c.Col, a.At(c.Row, c.Col)+c.Val)
	}
	return a
}

// TestSketchedPatchExactOnLowRank: a wide patch whose values form a
// rank-3 block lies in the sketch's range with probability one, so the
// compressed step must still be exact.
func TestSketchedPatchExactOnLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m, n, rank := 96, 80, 10
	a := lowRankMatrix(m, n, 5, rng)
	full, err := eig.SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	f := full.Truncate(rank)

	rows, cols := rng.Perm(m)[:64], rng.Perm(n)[:60]
	block := lowRankMatrix(len(rows), len(cols), 3, rng)
	var patch []sparse.Triplet
	want := a.Clone()
	for bi, i := range rows {
		for bj, j := range cols {
			v := block.At(bi, bj)
			patch = append(patch, sparse.Triplet{Row: i, Col: j, Val: v})
			want.Set(i, j, want.At(i, j)+v)
		}
	}
	requireSketched(t, f, patch, rank)
	got, _, err := CellPatch(f, patch, rank)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstFull(t, got, want, rank, 1e-10)
}

// TestSketchedPatchDiscardedMass: on a full-rank scattered patch the
// compressed step keeps a near-optimal subspace, so its discarded mass
// is at least the exact step's (Eckart-Young) and within 5% of it.
func TestSketchedPatchDiscardedMass(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m, n, rank := 120, 100, 8
	full, err := eig.SVD(lowRankMatrix(m, n, 6, rng))
	if err != nil {
		t.Fatal(err)
	}
	f := full.Truncate(rank)
	patch := scatteredPatch(m, n, 300, 1, rng)
	requireSketched(t, f, patch, rank)
	_, sketched, err := CellPatch(f, patch, rank)
	if err != nil {
		t.Fatal(err)
	}
	_, exact := exactPatch(t, f, patch, rank)
	if exact <= 0 {
		t.Fatalf("exact step discarded %g, want > 0 for a full-rank patch", exact)
	}
	if sketched < exact || sketched > 1.05*exact {
		t.Fatalf("sketched step discarded %g, want within [1, 1.05]× the exact step's %g", sketched, exact)
	}
}

// TestSketchedPatchLeftResidual pins the identity the ISVD3/4 U rebuild
// relies on: (A+ΔA)·V′ = U′·Σ′ for every kept pair, even though the
// truncation drops mass. It holds because the left extension is exact on
// the extended right basis; a left basis sketched from a random block
// breaks it.
func TestSketchedPatchLeftResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m, n, rank := 120, 100, 8
	a := matrix.New(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	full, err := eig.SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	f := full.Truncate(rank)
	patch := scatteredPatch(m, n, 300, 2, rng)
	requireSketched(t, f, patch, rank)
	got, _, err := CellPatch(f, patch, rank)
	if err != nil {
		t.Fatal(err)
	}
	res := matrix.Mul(patched(f, patch), got.V)
	for j, sv := range got.S {
		for i := 0; i < res.Rows; i++ {
			res.Data[i*res.Cols+j] -= got.U.At(i, j) * sv
		}
	}
	if d := res.Frobenius(); d > 1e-12*got.S[0] {
		t.Fatalf("‖(A+ΔA)·V′ − U′·Σ′‖_F = %g, want <= 1e-12·σ₁ = %g", d, 1e-12*got.S[0])
	}
}

// TestSketchedPatchDeterministicAcrossWorkers: the seeded sketch and the
// cell loops are serial, every product runs on the pool kernels, so the
// compressed step is bitwise for any worker count.
func TestSketchedPatchDeterministicAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(0)
	rng := rand.New(rand.NewSource(53))
	m, n, rank := 160, 140, 10
	full, err := eig.SVD(lowRankMatrix(m, n, 12, rng))
	if err != nil {
		t.Fatal(err)
	}
	f := full.Truncate(rank)
	patch := scatteredPatch(m, n, 400, 1, rng)
	requireSketched(t, f, patch, rank)
	var ref *eig.SVDResult
	var refDisc float64
	for _, w := range []int{1, 3} {
		parallel.SetWorkers(w)
		got, disc, err := CellUnpatch(f, patch, rank)
		if err != nil {
			t.Fatal(err)
		}
		if w == 1 {
			ref, refDisc = got, disc
			continue
		}
		if disc != refDisc {
			t.Fatalf("discarded mass differs at %d workers", w)
		}
		for i := range ref.S {
			if ref.S[i] != got.S[i] {
				t.Fatalf("S[%d] differs at %d workers", i, w)
			}
		}
		for i := range ref.U.Data {
			if ref.U.Data[i] != got.U.Data[i] {
				t.Fatalf("U differs at %d workers", w)
			}
		}
		for i := range ref.V.Data {
			if ref.V.Data[i] != got.V.Data[i] {
				t.Fatalf("V differs at %d workers", w)
			}
		}
	}
}

// TestSketchedUnpatchHealthChecks: CellUnpatch's gates still run on the
// compressed step — a non-finite factor is ErrNonFinite, and a factor
// whose orthogonality is already damaged comes back as an
// *IllConditionedError instead of being returned.
func TestSketchedUnpatchHealthChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	m, n, rank := 120, 100, 8
	full, err := eig.SVD(lowRankMatrix(m, n, 6, rng))
	if err != nil {
		t.Fatal(err)
	}
	patch := scatteredPatch(m, n, 300, 1, rng)
	requireSketched(t, full.Truncate(rank), patch, rank)

	poisoned := full.Truncate(rank)
	poisoned.U.Data[7] = math.NaN()
	if _, _, err := CellUnpatch(poisoned, patch, rank); !errors.Is(err, ErrNonFinite) {
		t.Errorf("non-finite factor: error %v, want ErrNonFinite", err)
	}

	drifted := full.Truncate(rank)
	for i := 0; i < drifted.U.Rows; i++ {
		drifted.U.Data[i*drifted.U.Cols] *= 1 + 1e-6
	}
	_, _, err = CellUnpatch(drifted, patch, rank)
	var ill *IllConditionedError
	if !errors.As(err, &ill) || ill.Op != "CellUnpatch" {
		t.Fatalf("drifted factor: error %v, want a CellUnpatch *IllConditionedError", err)
	}
	if ill.OrthoResidual <= downdateOrthoTol {
		t.Errorf("reported orthogonality residual %g not above %g", ill.OrthoResidual, downdateOrthoTol)
	}
}

// TestOrthComplementNearDependent: a column that collapses onto an
// earlier one only just above the Gram-Schmidt drop threshold is
// normalized up from a tiny remainder, and with it the rounding left by
// projecting out a large span-u component. The extension must still be
// orthogonal to u and orthonormal-or-zero in itself.
func TestOrthComplementNearDependent(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	m, r := 80, 6
	full, err := eig.SVD(lowRankMatrix(m, m, r, rng))
	if err != nil {
		t.Fatal(err)
	}
	u := full.Truncate(r).U
	x := make([]float64, m)
	z := make([]float64, m)
	for i := range x {
		x[i], z[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	// Column 1 is x plus a large span-u part; column 2 repeats it up to
	// a 1e-12 perturbation, so its remainder sits between the drop
	// threshold and the projection's rounding.
	b := matrix.New(m, 2)
	for i := 0; i < m; i++ {
		big := 1e3 * (u.At(i, 0) + u.At(i, 1))
		b.Set(i, 0, big+x[i])
		b.Set(i, 1, big+x[i]+1e-12*z[i])
	}
	j := orthComplement(u, b)
	if d := matrix.TMul(u, j).MaxAbs(); d > 1e-12 {
		t.Errorf("‖uᵀj‖∞ = %g, want <= 1e-12", d)
	}
	g := matrix.TMul(j, j)
	for c := 0; c < g.Rows; c++ {
		for e := 0; e < g.Cols; e++ {
			want := 0.0
			if c == e && g.At(c, c) != 0 {
				want = 1
			}
			if d := math.Abs(g.At(c, e) - want); d > 1e-12 {
				t.Errorf("(jᵀj)[%d][%d] = %g, want %g", c, e, g.At(c, e), want)
			}
		}
	}
}
