package eig

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// decayMatrix builds a rows×cols matrix with geometrically decaying
// singular spectrum (ratio ~0.7 per index, floored at 1e-5 of the top) at
// roughly the given density of non-zero entries — the r ≪ min(m,n) regime
// with spectral decay the truncated solver targets. Construction: a sum
// of min(rows, cols) scaled rank-1 patches, each supported on a random
// row/column subset of ~density fraction, so the decay survives at any
// sparsity (naively zeroing entries of a dense low-rank matrix would bury
// the tail under a flat noise bulk — the regime where the solver
// correctly refuses to converge).
func decayMatrix(rng *rand.Rand, rows, cols int, density float64) *matrix.Dense {
	k := rows
	if cols < k {
		k = cols
	}
	a := matrix.New(rows, cols)
	sr := int(density * float64(rows))
	sc := int(density * float64(cols))
	if sr < 1 {
		sr = 1
	}
	if sc < 1 {
		sc = 1
	}
	scale := 1.0
	for j := 0; j < k; j++ {
		ris := rng.Perm(rows)[:sr]
		cis := rng.Perm(cols)[:sc]
		uv := make([]float64, sr)
		vv := make([]float64, sc)
		for i := range uv {
			uv[i] = rng.NormFloat64()
		}
		for i := range vv {
			vv[i] = rng.NormFloat64()
		}
		for x, ri := range ris {
			for y, ci := range cis {
				a.Data[ri*cols+ci] += scale * uv[x] * vv[y]
			}
		}
		scale *= 0.7
		if scale < 1e-5 {
			scale = 1e-5
		}
	}
	return a
}

func maxAbs(vals []float64) float64 {
	m := 0.0
	for _, v := range vals {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// TestTruncatedSymEigAgreesWithFull compares the truncated solver against
// the full SymEig on Gram matrices across densities and ranks: values to
// 1e-9 relative to the spectral radius, vectors (up to sign) wherever the
// eigenvalue gap supports a stable comparison.
func TestTruncatedSymEigAgreesWithFull(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, density := range []float64{0.01, 0.3, 1.0} {
		for _, shape := range [][2]int{{40, 90}, {90, 40}, {70, 70}} {
			data := decayMatrix(rng, shape[0], shape[1], density)
			gram := matrix.TMul(data, data) // cols×cols PSD
			n := gram.Rows
			fullVals, fullVecs, err := SymEig(gram)
			if err != nil {
				t.Fatal(err)
			}
			for _, rank := range []int{1, 7, n} {
				vals, vecs, err := TruncatedSymEig(NewDenseSymOp(gram), rank, Options{})
				if err != nil {
					t.Fatalf("density %g shape %v rank %d: %v", density, shape, rank, err)
				}
				if len(vals) != rank || vecs.Rows != n || vecs.Cols != rank {
					t.Fatalf("rank %d: got %d values, %dx%d vectors", rank, len(vals), vecs.Rows, vecs.Cols)
				}
				scale := math.Max(maxAbs(fullVals), 1e-300)
				for j := 0; j < rank; j++ {
					if math.Abs(vals[j]-fullVals[j]) > 1e-9*scale {
						t.Errorf("density %g shape %v rank %d: λ[%d] = %.15g, full %.15g",
							density, shape, rank, j, vals[j], fullVals[j])
					}
				}
				// Vector agreement (up to sign) where the relative gap to
				// the neighbours is wide enough for the comparison to be
				// well-posed.
				for j := 0; j < rank; j++ {
					gap := math.Inf(1)
					if j > 0 {
						gap = math.Min(gap, fullVals[j-1]-fullVals[j])
					}
					if j < n-1 {
						gap = math.Min(gap, fullVals[j]-fullVals[j+1])
					}
					if gap < 1e-3*scale {
						continue
					}
					var dot float64
					for i := 0; i < n; i++ {
						dot += vecs.At(i, j) * fullVecs.At(i, j)
					}
					if math.Abs(math.Abs(dot)-1) > 1e-7 {
						t.Errorf("density %g shape %v rank %d: |cos| of eigenvector %d = %.12g",
							density, shape, rank, j, math.Abs(dot))
					}
				}
			}
		}
	}
}

// TestTruncatedSVDAgreesWithFull covers the SVD wrapper across tall,
// wide, and square shapes at the issue's rank/density grid.
func TestTruncatedSVDAgreesWithFull(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, density := range []float64{0.01, 0.3, 1.0} {
		for _, shape := range [][2]int{{90, 40}, {40, 90}, {60, 60}} {
			a := decayMatrix(rng, shape[0], shape[1], density)
			full, err := SVD(a)
			if err != nil {
				t.Fatal(err)
			}
			minDim := shape[0]
			if shape[1] < minDim {
				minDim = shape[1]
			}
			for _, rank := range []int{1, 7, minDim} {
				res, err := TruncatedSVD(NewDenseOp(a), rank, Options{})
				if err != nil {
					t.Fatalf("density %g shape %v rank %d: %v", density, shape, rank, err)
				}
				if len(res.S) != rank || res.U.Cols != rank || res.V.Cols != rank {
					t.Fatalf("rank %d: wrong output shape", rank)
				}
				s1 := math.Max(full.S[0], 1e-300)
				for j := 0; j < rank; j++ {
					// Singular values below ~√eps·σ₁ are numerically zero
					// through a Gram operator (squaring halves the digits);
					// when both solvers agree the value is in that noise
					// floor, their exact readings are not comparable.
					if res.S[j] < 1e-6*s1 && full.S[j] < 1e-6*s1 {
						continue
					}
					if math.Abs(res.S[j]-full.S[j]) > 1e-9*s1 {
						t.Errorf("density %g shape %v rank %d: σ[%d] = %.15g, full %.15g",
							density, shape, rank, j, res.S[j], full.S[j])
					}
				}
				// Reconstruction sanity on the kept triplets: A·v_j ≈ σ_j·u_j.
				for j := 0; j < rank; j++ {
					if full.S[j] < 1e-6*s1 {
						continue
					}
					var resid float64
					for i := 0; i < a.Rows; i++ {
						var av float64
						arow := a.RowView(i)
						for k := 0; k < a.Cols; k++ {
							av += arow[k] * res.V.At(k, j)
						}
						d := av - res.S[j]*res.U.At(i, j)
						resid += d * d
					}
					if math.Sqrt(resid) > 1e-8*s1 {
						t.Errorf("density %g shape %v rank %d: triplet %d residual %g",
							density, shape, rank, j, math.Sqrt(resid))
					}
				}
			}
		}
	}
}

// TestTruncatedBitwiseAcrossWorkerCounts pins the determinism contract:
// the truncated solvers produce bit-for-bit identical output whether the
// underlying kernels run serially or on 3 or 8 workers.
func TestTruncatedBitwiseAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := decayMatrix(rng, 150, 220, 0.4)
	gram := matrix.TMul(a, a)

	withWorkers := func(n int, fn func()) {
		parallel.SetWorkers(n)
		defer parallel.SetWorkers(0)
		fn()
	}

	var serialVals []float64
	var serialVecs *matrix.Dense
	var serialSVD *SVDResult
	withWorkers(1, func() {
		var err error
		serialVals, serialVecs, err = TruncatedSymEig(NewDenseSymOp(gram), 12, Options{})
		if err != nil {
			t.Fatal(err)
		}
		serialSVD, err = TruncatedSVD(NewDenseOp(a), 12, Options{})
		if err != nil {
			t.Fatal(err)
		}
	})
	for _, w := range []int{3, 8} {
		withWorkers(w, func() {
			vals, vecs, err := TruncatedSymEig(NewDenseSymOp(gram), 12, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range serialVals {
				if vals[i] != serialVals[i] {
					t.Fatalf("workers=%d: eigenvalue %d differs bitwise: %v vs %v", w, i, vals[i], serialVals[i])
				}
			}
			for i := range serialVecs.Data {
				if vecs.Data[i] != serialVecs.Data[i] {
					t.Fatalf("workers=%d: eigenvector element %d differs bitwise", w, i)
				}
			}
			res, err := TruncatedSVD(NewDenseOp(a), 12, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range serialSVD.S {
				if res.S[i] != serialSVD.S[i] {
					t.Fatalf("workers=%d: σ[%d] differs bitwise", w, i)
				}
			}
			for i := range serialSVD.U.Data {
				if res.U.Data[i] != serialSVD.U.Data[i] {
					t.Fatalf("workers=%d: U element %d differs bitwise", w, i)
				}
			}
			for i := range serialSVD.V.Data {
				if res.V.Data[i] != serialSVD.V.Data[i] {
					t.Fatalf("workers=%d: V element %d differs bitwise", w, i)
				}
			}
		})
	}
}

// TestGramOpMatchesMaterializedGram checks that the matrix-free Gram
// operator applies the same linear map as the materialized AᵀA.
func TestGramOpMatchesMaterializedGram(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := decayMatrix(rng, 30, 20, 1.0)
	gram := matrix.TMul(a, a)
	x := matrix.New(20, 5)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	want := matrix.Mul(gram, x)
	got := matrix.New(20, 5)
	NewGramOp(NewDenseOp(a)).ApplySym(got, x)
	if !matrix.Equal(want, got, 1e-10*gram.MaxAbs()) {
		t.Fatal("GramOp disagrees with the materialized Gram matrix")
	}
	// Co-Gram: A·Aᵀ.
	cog := matrix.MulT(a, a)
	y := matrix.New(30, 5)
	for i := range y.Data {
		y.Data[i] = rng.NormFloat64()
	}
	wantC := matrix.Mul(cog, y)
	gotC := matrix.New(30, 5)
	NewCoGramOp(NewDenseOp(a)).ApplySym(gotC, y)
	if !matrix.Equal(wantC, gotC, 1e-10*cog.MaxAbs()) {
		t.Fatal("CoGramOp disagrees with the materialized A·Aᵀ")
	}
}

// TestTruncatedSymEigRankDeficient exercises the deterministic
// basis-vector fallback of the re-orthogonalization: an operator of rank
// far below the block size must still return orthonormal vectors and the
// right leading eigenvalues (including the zero matrix).
func TestTruncatedSymEigRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	// Rank-2 PSD matrix of dimension 60; block size will be 1+8 > 2.
	u := matrix.New(60, 2)
	for i := range u.Data {
		u.Data[i] = rng.NormFloat64()
	}
	low := matrix.MulT(u, u)
	fullVals, _, err := SymEig(low)
	if err != nil {
		t.Fatal(err)
	}
	vals, vecs, err := TruncatedSymEig(NewDenseSymOp(low), 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 5; j++ {
		if math.Abs(vals[j]-fullVals[j]) > 1e-9*fullVals[0] {
			t.Errorf("rank-deficient λ[%d] = %g, full %g", j, vals[j], fullVals[j])
		}
	}
	if !matrix.Equal(matrix.TMul(vecs, vecs), matrix.Identity(5), 1e-9) {
		t.Error("rank-deficient eigenvectors not orthonormal")
	}

	zero := matrix.New(40, 40)
	vals, vecs, err = TruncatedSymEig(NewDenseSymOp(zero), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if v != 0 {
			t.Fatalf("zero matrix eigenvalues = %v", vals)
		}
	}
	if !matrix.Equal(matrix.TMul(vecs, vecs), matrix.Identity(3), 1e-9) {
		t.Error("zero-matrix eigenvectors not orthonormal")
	}
}

// TestTruncatedSymEigIndefiniteCertificate pins the signed-top
// certificate: on an indefinite matrix whose negative eigenvalues
// dominate in magnitude, the dominant-magnitude iteration cannot certify
// the algebraically-largest pairs and must refuse (ErrNoConvergence →
// callers fall back to the full solver) rather than return pairs from
// the wrong end of the spectrum. With rank 2 here, the whole captured
// block is filled with large-magnitude negatives, so a silent success
// would report eigenvalues near -60 instead of +3.
func TestTruncatedSymEigIndefiniteCertificate(t *testing.T) {
	n := 120
	d := make([]float64, n)
	// A few modest positives on top, a long tail of huge negatives.
	d[0], d[1], d[2] = 3, 2.5, 2
	for i := 3; i < n; i++ {
		d[i] = -60 - float64(i)
	}
	a := matrix.Diag(d)
	vals, _, err := TruncatedSymEig(NewDenseSymOp(a), 2, Options{})
	if err == nil {
		// A success is only acceptable if it found the true top pairs.
		if math.Abs(vals[0]-3) > 1e-9 || math.Abs(vals[1]-2.5) > 1e-9 {
			t.Fatalf("indefinite spectrum returned wrong pairs without error: %v", vals)
		}
	} else if err != ErrNoConvergence {
		t.Fatalf("unexpected error: %v", err)
	}
	// The router must deliver the right answer either way.
	wVals, _, err := RoutedSymEig(NewDenseSymOp(a), 2, SolverTruncated, Options{}, func() *matrix.Dense { return a })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wVals[0]-3) > 1e-9 || math.Abs(wVals[1]-2.5) > 1e-9 {
		t.Fatalf("RoutedSymEig returned wrong top pairs on indefinite spectrum: %v", wVals)
	}
}

// TestTruncatedSymEigBadRank covers the argument validation.
func TestTruncatedSymEigBadRank(t *testing.T) {
	a := matrix.Identity(5)
	if _, _, err := TruncatedSymEig(NewDenseSymOp(a), 0, Options{}); err == nil {
		t.Error("rank 0 accepted")
	}
	if _, _, err := TruncatedSymEig(NewDenseSymOp(a), 6, Options{}); err == nil {
		t.Error("rank > n accepted")
	}
	if _, err := TruncatedSVD(NewDenseOp(a), -1, Options{}); err == nil {
		t.Error("negative rank accepted")
	}
}

// TestSolverParse covers the Solver knob surface shared by the CLIs.
func TestSolverParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Solver
	}{{"auto", SolverAuto}, {"", SolverAuto}, {"full", SolverFull}, {"truncated", SolverTruncated}} {
		got, err := ParseSolver(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSolver(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseSolver("bogus"); err == nil {
		t.Error("bogus solver accepted")
	}
	if SolverAuto.String() != "auto" || SolverFull.String() != "full" || SolverTruncated.String() != "truncated" {
		t.Error("Solver.String broken")
	}
	// Auto routing: truncated only well below the dimension.
	if !SolverAuto.UseTruncated(10, 1000) {
		t.Error("auto should truncate rank 10 of 1000")
	}
	if SolverAuto.UseTruncated(100, 320) {
		t.Error("auto should not truncate rank 100 of 320")
	}
	if SolverFull.UseTruncated(1, 1000000) {
		t.Error("full must never truncate")
	}
	if !SolverTruncated.UseTruncated(100, 101) {
		t.Error("truncated must always truncate")
	}
}

// TestRoutedSVDDensifiesOnlyOnFullPath checks the router's three
// branches: a converged truncated solve never calls the dense callback,
// while a full route and a truncated attempt that gives up (a flat
// uniform spectrum) call it exactly once and return the full solver's
// truncated SVD bit for bit.
func TestRoutedSVDDensifiesOnlyOnFullPath(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	decaying := matrix.MulT(randDense(rng, 200, 6), randDense(rng, 120, 6))
	flat := matrix.New(200, 120)
	for i := range flat.Data {
		flat.Data[i] = rng.Float64()
	}
	for _, tc := range []struct {
		name   string
		a      *matrix.Dense
		solver Solver
		full   bool
	}{
		{"decaying/auto", decaying, SolverAuto, false},
		{"decaying/full", decaying, SolverFull, true},
		{"flat/auto", flat, SolverAuto, true},
	} {
		calls := 0
		res, err := RoutedSVD(NewDenseOp(tc.a), 6, tc.solver, func() *matrix.Dense {
			calls++
			return tc.a
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !tc.full {
			if calls != 0 {
				t.Fatalf("%s: dense callback ran %d times on a converged truncated solve", tc.name, calls)
			}
			continue
		}
		if calls != 1 {
			t.Fatalf("%s: dense callback ran %d times, want 1", tc.name, calls)
		}
		ref, err := SVD(tc.a)
		if err != nil {
			t.Fatal(err)
		}
		if svdDigest(res) != svdDigest(ref.Truncate(6)) {
			t.Errorf("%s: routed result differs from the full SVD truncated to rank 6", tc.name)
		}
	}
}

// TestPInvWithTruncated checks the solver-routed pseudo-inverse against
// the full one on a low-rank matrix where the rank bound captures the
// whole spectrum.
func TestPInvWithTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	u := matrix.New(80, 6)
	v := matrix.New(50, 6)
	for i := range u.Data {
		u.Data[i] = rng.NormFloat64()
	}
	for i := range v.Data {
		v.Data[i] = rng.NormFloat64()
	}
	a := matrix.MulT(u, v) // rank 6, 80×50
	full, err := PInv(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	trunc, err := PInvWith(a, 0, SolverTruncated, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(full, trunc, 1e-8*full.MaxAbs()) {
		t.Error("truncated pseudo-inverse disagrees with the full one")
	}
	// Moore-Penrose conditions hold for the truncated result directly.
	if !matrix.Equal(matrix.Mul(matrix.Mul(a, trunc), a), a, 1e-7*a.MaxAbs()) {
		t.Error("A·A⁺·A != A for the truncated pseudo-inverse")
	}
}

// gramDecaying is the eig-side counterpart of core's routeDecaying
// fixture: a 150×100 non-negative rank-12 product with geometrically
// decaying factor weights plus a tiny noise floor, on which the
// truncated solver converges.
func gramDecaying() *matrix.Dense {
	rng := rand.New(rand.NewSource(2401))
	const rows, cols, k = 150, 100, 12
	w, h := matrix.New(rows, k), matrix.New(k, cols)
	for i := range w.Data {
		w.Data[i] = rng.Float64() * math.Pow(0.6, float64(i%k))
	}
	for i := range h.Data {
		h.Data[i] = rng.Float64()
	}
	a := matrix.Mul(w, h)
	for i := range a.Data {
		a.Data[i] += 1e-6 * rng.Float64()
	}
	return a
}

// spanGap returns ‖B − A·(AᵀB)‖_max for orthonormal columns A and B:
// zero exactly when span(B) ⊆ span(A).
func spanGap(a, b *matrix.Dense) float64 {
	return maxAbs(matrix.Sub(b, matrix.Mul(a, matrix.TMul(a, b))).Data)
}

// TestGramSVDMatchesSVD checks GramSVD against the Golub-Reinsch SVD
// truncated to rank 10, on a flat 141×252 ratings matrix (its truncated
// solve gives up, so every route ends in the Gram SymEig), its 252×141
// transpose, and a decaying 150×100 matrix (the truncated solve
// converges): singular values within 1e-12 of σ₁ and the same left and
// right spans, for every solver and through both the sparse operator
// (Gram built from the CSR) and the dense one (Gram built by applying
// the operator). A converged truncated solve must return TruncatedSVD's
// result bit for bit.
func TestGramSVDMatchesSVD(t *testing.T) {
	const rank = 10
	flat := ratingsLike(rand.New(rand.NewSource(10)), 141, 252, 0.05)
	for _, tc := range []struct {
		name      string
		a         *matrix.Dense
		converges bool
	}{
		{"flat-141x252", flat, false},
		{"flat-252x141", flat.T(), false},
		{"decaying-150x100", gramDecaying(), true},
	} {
		if _, err := TruncatedSVD(NewDenseOp(tc.a), rank, Options{}); (err == nil) != tc.converges {
			t.Fatalf("%s: truncated SVD returned %v", tc.name, err)
		}
		full, err := SVD(tc.a)
		if err != nil {
			t.Fatal(err)
		}
		ref := full.Truncate(rank)
		for _, op := range []struct {
			name string
			op   Op
		}{{"sparse", sparse.NewOperator(sparse.FromDense(tc.a))}, {"dense", NewDenseOp(tc.a)}} {
			for _, solver := range []Solver{SolverAuto, SolverFull, SolverTruncated} {
				key := tc.name + "/" + op.name + "/" + solver.String()
				res, err := GramSVD(op.op, rank, solver, Options{})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if len(res.S) != rank || res.U.Cols != rank || res.V.Cols != rank {
					t.Fatalf("%s: rank %d result has %d values, U %d and V %d columns", key, rank, len(res.S), res.U.Cols, res.V.Cols)
				}
				for j, s := range res.S {
					if d := math.Abs(s - ref.S[j]); d > 1e-12*ref.S[0] {
						t.Errorf("%s: σ[%d] = %.17g, SVD %.17g", key, j, s, ref.S[j])
					}
				}
				if g := math.Max(spanGap(ref.U, res.U), spanGap(ref.V, res.V)); g > 1e-9 {
					t.Errorf("%s: spans differ from the SVD's by %g", key, g)
				}
				if tc.converges && solver != SolverFull {
					tr, err := TruncatedSVD(op.op, rank, Options{})
					if err != nil {
						t.Fatal(err)
					}
					if svdDigest(res) != svdDigest(tr) {
						t.Errorf("%s: converged GramSVD differs from TruncatedSVD", key)
					}
				}
			}
		}
	}
}
