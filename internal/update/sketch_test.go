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
	if !Wide(f, patch, rank) {
		t.Fatalf("patch of %d cells is too narrow for the sketched step at rank %d", len(patch), rank)
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

// slid returns reconstruct(f) + arrivals − tombstones: the matrix a
// signed slide claims to factor.
func slid(f *eig.SVDResult, arrive, expire []sparse.Triplet) *matrix.Dense {
	a := patched(f, arrive)
	for _, c := range expire {
		a.Set(c.Row, c.Col, a.At(c.Row, c.Col)-c.Val)
	}
	return a
}

// negated returns the cells with their values negated: tombstones
// carrying the values they expire, as the additive deltas CellPatch
// takes.
func negated(cells []sparse.Triplet) []sparse.Triplet {
	out := make([]sparse.Triplet, len(cells))
	for i, c := range cells {
		out[i] = sparse.Triplet{Row: c.Row, Col: c.Col, Val: -c.Val}
	}
	return out
}

// signedSlide is one window slide as one signed patch: the arrivals,
// then the tombstones negated — the cell list the engine hands
// CellPatch for a merged slide.
func signedSlide(arrive, expire []sparse.Triplet) []sparse.Triplet {
	return append(append([]sparse.Triplet(nil), arrive...), negated(expire)...)
}

// scatteredSlide draws a window slide of count arrivals and count
// tombstones at distinct random cells, both wide enough for the
// sketched step at rank.
func scatteredSlide(t *testing.T, f *eig.SVDResult, count, rank int, rng *rand.Rand) (arrive, expire []sparse.Triplet) {
	t.Helper()
	cells := scatteredPatch(f.U.Rows, f.V.Rows, 2*count, 1, rng)
	arrive, expire = cells[:count], cells[count:]
	requireSketched(t, f, arrive, rank)
	requireSketched(t, f, expire, rank)
	return arrive, expire
}

// leftResidual returns ‖a·V′ − U′·Σ′‖_F for the factors got.
func leftResidual(a *matrix.Dense, got *eig.SVDResult) float64 {
	res := matrix.Mul(a, got.V)
	for j, sv := range got.S {
		for i := 0; i < res.Rows; i++ {
			res.Data[i*res.Cols+j] -= got.U.At(i, j) * sv
		}
	}
	return res.Frobenius()
}

// requireBitwise fails the test unless two step results agree bit for
// bit.
func requireBitwise(t *testing.T, got, want *eig.SVDResult, gotDisc, wantDisc float64, what string) {
	t.Helper()
	if gotDisc != wantDisc {
		t.Fatalf("%s: discarded mass %g vs %g", what, gotDisc, wantDisc)
	}
	for _, pair := range [][2][]float64{{got.S, want.S}, {got.U.Data, want.U.Data}, {got.V.Data, want.V.Data}} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s: shapes differ", what)
		}
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("%s: factors differ at flat index %d", what, i)
			}
		}
	}
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
// truncation drops mass — for a wide patch and for a signed slide. It
// holds because the left extension is exact on the extended right
// basis; a left basis sketched from a random block breaks it.
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
	arrive, expire := scatteredSlide(t, f, 250, rank, rng)
	for _, c := range []struct {
		name string
		step func() (*eig.SVDResult, float64, error)
		want *matrix.Dense
	}{
		{"CellPatch", func() (*eig.SVDResult, float64, error) { return CellPatch(f, patch, rank) }, patched(f, patch)},
		{"slide", func() (*eig.SVDResult, float64, error) { return CellPatch(f, signedSlide(arrive, expire), rank) }, slid(f, arrive, expire)},
	} {
		got, _, err := c.step()
		if err != nil {
			t.Fatal(err)
		}
		if d := leftResidual(c.want, got); d > 1e-12*got.S[0] {
			t.Errorf("%s: ‖(A+ΔA)·V′ − U′·Σ′‖_F = %g, want <= 1e-12·σ₁ = %g", c.name, d, 1e-12*got.S[0])
		}
	}
}

// TestSketchedPatchDeterministicAcrossWorkers: the seeded sketch and the
// cell loops are serial, every product runs on the pool kernels, so the
// compressed step is bitwise for any worker count — for tombstones alone
// and for a signed slide.
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
	arrive, expire := scatteredSlide(t, f, 300, rank, rng)
	for _, c := range []struct {
		name string
		step func() (*eig.SVDResult, float64, error)
	}{
		{"unpatch", func() (*eig.SVDResult, float64, error) { return CellPatch(f, negated(patch), rank) }},
		{"slide", func() (*eig.SVDResult, float64, error) { return CellPatch(f, signedSlide(arrive, expire), rank) }},
	} {
		parallel.SetWorkers(1)
		ref, refDisc, err := c.step()
		if err != nil {
			t.Fatal(err)
		}
		parallel.SetWorkers(3)
		got, disc, err := c.step()
		if err != nil {
			t.Fatal(err)
		}
		requireBitwise(t, got, ref, disc, refDisc, c.name+" at 3 workers vs 1")
	}
}

// TestSketchedUnpatchHealthChecks: tombstones on the compressed step
// are a CellPatch of negated values, and a non-finite factor is still
// ErrNonFinite there, from the core's finiteness check.
func TestSketchedUnpatchHealthChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	m, n, rank := 120, 100, 8
	full, err := eig.SVD(lowRankMatrix(m, n, 6, rng))
	if err != nil {
		t.Fatal(err)
	}
	patch := negated(scatteredPatch(m, n, 300, 1, rng))
	requireSketched(t, full.Truncate(rank), patch, rank)

	poisoned := full.Truncate(rank)
	poisoned.U.Data[7] = math.NaN()
	if _, _, err := CellPatch(poisoned, patch, rank); !errors.Is(err, ErrNonFinite) {
		t.Errorf("non-finite factor: error %v, want ErrNonFinite", err)
	}
}

// TestSketchedSlideExactOnLowRank: a slide whose arrivals form a rank-3
// block and whose tombstones form a rank-2 block, each touching at least
// 60 rows and columns, is a rank-5 signed patch; on a rank-5 matrix kept
// at rank 10 the single signed step must be exact.
func TestSketchedSlideExactOnLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	m, n, rank := 140, 90, 10
	a := lowRankMatrix(m, n, 5, rng)
	full, err := eig.SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	f := full.Truncate(rank)

	// Disjoint row sets keep the two halves on disjoint cells.
	rows := rng.Perm(m)
	block := func(rows, cols []int, rho int) []sparse.Triplet {
		vals := lowRankMatrix(len(rows), len(cols), rho, rng)
		var cells []sparse.Triplet
		for bi, i := range rows {
			for bj, j := range cols {
				cells = append(cells, sparse.Triplet{Row: i, Col: j, Val: vals.At(bi, bj)})
			}
		}
		return cells
	}
	arrive := block(rows[:64], rng.Perm(n)[:60], 3)
	expire := block(rows[64:128], rng.Perm(n)[:60], 2)
	requireSketched(t, f, arrive, rank)
	requireSketched(t, f, expire, rank)
	got, _, err := CellPatch(f, signedSlide(arrive, expire), rank)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstFull(t, got, slid(f, arrive, expire), rank, 1e-10)
}

// TestSketchedSlideDiscardedMass: one signed step discards no more
// Frobenius mass than the two-step sequence it replaces (arrivals, then
// tombstones), √(d₁² + d₂²), up to 5% — and so well under the d₁ + d₂
// the refresh budget was charged for the two steps.
func TestSketchedSlideDiscardedMass(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	m, n, rank := 120, 100, 8
	full, err := eig.SVD(lowRankMatrix(m, n, 6, rng))
	if err != nil {
		t.Fatal(err)
	}
	f := full.Truncate(rank)
	arrive, expire := scatteredSlide(t, f, 250, rank, rng)
	mid, d1, err := CellPatch(f, arrive, rank)
	if err != nil {
		t.Fatal(err)
	}
	_, d2, err := CellPatch(mid, negated(expire), rank)
	if err != nil {
		t.Fatal(err)
	}
	_, merged, err := CellPatch(f, signedSlide(arrive, expire), rank)
	if err != nil {
		t.Fatal(err)
	}
	if two := math.Hypot(d1, d2); merged <= 0 || merged > 1.05*two {
		t.Fatalf("signed step discarded %g, want in (0, 1.05·%g] (two steps: %g, %g)", merged, two, d1, d2)
	}
}

// TestSketchedSlideHealthChecks: a signed slide on a non-finite factor
// is ErrNonFinite, as for any CellPatch.
func TestSketchedSlideHealthChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	m, n, rank := 120, 100, 8
	full, err := eig.SVD(lowRankMatrix(m, n, 6, rng))
	if err != nil {
		t.Fatal(err)
	}
	arrive, expire := scatteredSlide(t, full.Truncate(rank), 250, rank, rng)

	poisoned := full.Truncate(rank)
	poisoned.U.Data[7] = math.NaN()
	if _, _, err := CellPatch(poisoned, signedSlide(arrive, expire), rank); !errors.Is(err, ErrNonFinite) {
		t.Errorf("non-finite factor: error %v, want ErrNonFinite", err)
	}
}

// TestOrthComplementNearDependent: a column that collapses onto an
// earlier one only just above the Gram-Schmidt drop threshold is
// normalized up from a tiny remainder, and with it the rounding left by
// projecting out a large span-u component. extendBasis — the basis
// extension of the exact step (LowRank, and RemoveRows/RemoveCols
// through it) and of the sketched step alike — must still return an
// extension orthogonal to u and orthonormal-or-zero in itself, and a
// LowRank step that keeps the near-dependent direction must publish
// orthonormal factors.
func TestOrthComplementNearDependent(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	m, r := 80, 6
	full, err := eig.SVD(lowRankMatrix(m, m, r, rng))
	if err != nil {
		t.Fatal(err)
	}
	f := full.Truncate(r)
	u := f.U
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

	t.Run("extendBasis", func(t *testing.T) {
		_, j, _ := extendBasis(u, b)
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
	})

	// b·qᵀ with q = 1e12·[−w w] is the modest rank-1 update
	// (b₂ − b₁)·1e12·wᵀ: the near-dependent direction carries mass on
	// the scale of the spectrum, so the step keeps it at rank r + 2.
	t.Run("LowRank", func(t *testing.T) {
		q := matrix.New(m, 2)
		for i := 0; i < m; i++ {
			w := rng.NormFloat64()
			q.Set(i, 0, -1e12*w)
			q.Set(i, 1, 1e12*w)
		}
		got, _, err := LowRank(f, b, q, r+2)
		if err != nil {
			t.Fatal(err)
		}
		if d := OrthoResidual(got.U, got.S); d > 1e-12 {
			t.Errorf("updated U: ‖UᵀU − I‖∞ = %g, want <= 1e-12", d)
		}
	})
}
