package core

import (
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/eig"
	"repro/internal/imatrix"
	"repro/internal/interval"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/sparse"
	"repro/internal/update"
)

// nonNegLowRank returns an exactly rank-rho interval matrix with
// non-negative endpoints (Hi = 1.2·Lo, same rank) — the regime where the
// additive factor update is exact and every method ISVD0-4 is updatable.
func nonNegLowRank(m, n, rho int, rng *rand.Rand) *imatrix.IMatrix {
	x := matrix.New(m, rho)
	y := matrix.New(rho, n)
	for i := range x.Data {
		x.Data[i] = math.Abs(rng.NormFloat64())
	}
	for i := range y.Data {
		y.Data[i] = math.Abs(rng.NormFloat64()) / float64(rho)
	}
	lo := matrix.Mul(x, y)
	hi := lo.Scale(1.2)
	return imatrix.FromEndpoints(lo, hi)
}

// checkDecompAgreement compares two decompositions by their
// rotation-invariant outputs: the core diagonals and the interval
// reconstruction, at relative tolerance tol.
func checkDecompAgreement(t *testing.T, got, want *Decomposition, tol float64) {
	t.Helper()
	if got.Rank != want.Rank {
		t.Fatalf("rank %d vs %d", got.Rank, want.Rank)
	}
	scale := math.Max(want.Sigma.Hi.At(0, 0), 1)
	for k := 0; k < got.Rank; k++ {
		if d := math.Abs(got.Sigma.Lo.At(k, k) - want.Sigma.Lo.At(k, k)); d > tol*scale {
			t.Fatalf("Sigma.Lo[%d]: %g vs %g", k, got.Sigma.Lo.At(k, k), want.Sigma.Lo.At(k, k))
		}
		if d := math.Abs(got.Sigma.Hi.At(k, k) - want.Sigma.Hi.At(k, k)); d > tol*scale {
			t.Fatalf("Sigma.Hi[%d]: %g vs %g", k, got.Sigma.Hi.At(k, k), want.Sigma.Hi.At(k, k))
		}
	}
	gr, wr := got.Reconstruct(), want.Reconstruct()
	var diff, norm float64
	for i := range gr.Lo.Data {
		d := gr.Lo.Data[i] - wr.Lo.Data[i]
		diff += d * d
		d = gr.Hi.Data[i] - wr.Hi.Data[i]
		diff += d * d
		norm += wr.Lo.Data[i]*wr.Lo.Data[i] + wr.Hi.Data[i]*wr.Hi.Data[i]
	}
	if math.Sqrt(diff) > tol*math.Max(1, math.Sqrt(norm)) {
		t.Fatalf("reconstruction differs: rel %g", math.Sqrt(diff)/math.Max(1, math.Sqrt(norm)))
	}
}

// streamPatch builds a non-negative patch batch over a few rows of m
// (set semantics, keeping lo <= hi), and the independently patched
// matrix for the full-recompute reference.
func streamPatch(m *sparse.ICSR, rows int, rng *rand.Rand) ([]sparse.ITriplet, *sparse.ICSR) {
	var patch []sparse.ITriplet
	for i := 0; i < rows; i++ {
		row := (i * 7) % m.Rows
		for j := 0; j < 3; j++ {
			col := (j*5 + i) % m.Cols
			old := m.At(row, col)
			d := math.Abs(rng.NormFloat64())
			patch = append(patch, sparse.ITriplet{Row: row, Col: col, Lo: old.Lo + d, Hi: old.Hi + 1.5*d})
		}
	}
	patched, err := m.ApplyCells(patch, nil)
	if err != nil {
		panic(err)
	}
	return patch, patched
}

func TestUpdateMatchesFullRecomputeAllMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	base := nonNegLowRank(42, 30, 4, rng)
	sp := sparse.FromIMatrix(base)
	opts := Options{Rank: 10, Target: TargetB, Updatable: true}
	for _, method := range Methods() {
		for _, kind := range []string{"cell-patch", "append-rows", "append-cols"} {
			t.Run(method.String()+"/"+kind, func(t *testing.T) {
				d, err := DecomposeSparse(sp, method, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !d.Updatable() {
					t.Fatal("decomposition did not retain update state")
				}
				var delta Delta
				var after *sparse.ICSR
				switch kind {
				case "cell-patch":
					delta.Patch, after = streamPatch(sp, 3, rand.New(rand.NewSource(52)))
				case "append-rows":
					b := sparse.FromIMatrix(nonNegLowRank(3, 30, 2, rand.New(rand.NewSource(53))))
					delta.AppendRows = b
					after, err = sparse.AppendRows(sp, b)
					if err != nil {
						t.Fatal(err)
					}
				case "append-cols":
					b := sparse.FromIMatrix(nonNegLowRank(42, 3, 2, rand.New(rand.NewSource(54))))
					delta.AppendCols = b
					after, err = sparse.AppendCols(sp, b)
					if err != nil {
						t.Fatal(err)
					}
				}
				d2, err := d.Update(delta, Options{RefreshBudget: math.Inf(1)})
				if err != nil {
					t.Fatal(err)
				}
				ref, err := DecomposeSparse(after, method, opts)
				if err != nil {
					t.Fatal(err)
				}
				checkDecompAgreement(t, d2, ref, 1e-6)
				if !d2.Updatable() {
					t.Error("updated decomposition lost its update state")
				}
			})
		}
	}
}

// TestUpdateDense: the dense Decompose entry point with Updatable also
// carries the engine (mixed-sign data, ISVD1), and updates agree with a
// dense full recompute.
func TestUpdateDense(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	lo := matrix.New(24, 18)
	x := matrix.New(24, 4)
	y := matrix.New(4, 18)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y.Data {
		y.Data[i] = rng.NormFloat64()
	}
	matrix.MulInto(lo, x, y)
	// Hi = Lo + w·zᵀ with non-negative rank-1 w·zᵀ, and the same
	// direction folded into Lo: both endpoints share one rank-5 column
	// space (the well-posed regime for update-vs-full agreement — a
	// direction present in only one endpoint would make ILSA's pairing
	// against the other side's null columns noise-driven in BOTH paths).
	w := matrix.New(24, 1)
	z := matrix.New(1, 18)
	for i := range w.Data {
		w.Data[i] = math.Abs(rng.NormFloat64())
	}
	for i := range z.Data {
		z.Data[i] = math.Abs(rng.NormFloat64())
	}
	shift := matrix.Mul(w, z)
	hi := lo.Clone()
	for i := range lo.Data {
		lo.Data[i] += shift.Data[i]
		hi.Data[i] += 2 * shift.Data[i]
	}
	m := imatrix.FromEndpoints(lo, hi)
	opts := Options{Rank: 8, Target: TargetB, Updatable: true}
	d, err := Decompose(m, ISVD1, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Patch two cells in one row (mixed signs allowed for ISVD1), with
	// correlated endpoint deltas — the realistic interval-delta shape,
	// and the regime where the lo/hi patch directions align stably.
	old0 := m.At(3, 5)
	old1 := m.At(3, 11)
	delta := Delta{Patch: []sparse.ITriplet{
		{Row: 3, Col: 5, Lo: old0.Lo + 0.5, Hi: old0.Hi + 0.75},
		{Row: 3, Col: 11, Lo: old1.Lo - 0.25, Hi: old1.Hi - 0.375},
	}}
	d2, err := d.Update(delta, Options{RefreshBudget: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	want := m.Clone()
	want.Set(3, 5, interval.Interval{Lo: delta.Patch[0].Lo, Hi: delta.Patch[0].Hi})
	want.Set(3, 11, interval.Interval{Lo: delta.Patch[1].Lo, Hi: delta.Patch[1].Hi})
	ref, err := Decompose(want, ISVD1, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkDecompAgreement(t, d2, ref, 1e-6)
}

func TestUpdateDeterministicAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(0)
	rng := rand.New(rand.NewSource(61))
	base := nonNegLowRank(64, 40, 5, rng)
	sp := sparse.FromIMatrix(base)
	opts := Options{Rank: 12, Target: TargetB, Updatable: true}
	patch, _ := streamPatch(sp, 3, rand.New(rand.NewSource(62)))
	b := sparse.FromIMatrix(nonNegLowRank(4, 40, 2, rand.New(rand.NewSource(63))))

	var ref *Decomposition
	for _, w := range []int{1, 3, 8} {
		parallel.SetWorkers(w)
		d, err := DecomposeSparse(sp, ISVD4, opts)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := d.Update(Delta{AppendRows: b, Patch: patch}, Options{RefreshBudget: math.Inf(1)})
		if err != nil {
			t.Fatal(err)
		}
		if w == 1 {
			ref = d2
			continue
		}
		for name, pair := range map[string][2]*matrix.Dense{
			"U.Lo":     {ref.U.Lo, d2.U.Lo},
			"U.Hi":     {ref.U.Hi, d2.U.Hi},
			"V.Lo":     {ref.V.Lo, d2.V.Lo},
			"V.Hi":     {ref.V.Hi, d2.V.Hi},
			"Sigma.Lo": {ref.Sigma.Lo, d2.Sigma.Lo},
			"Sigma.Hi": {ref.Sigma.Hi, d2.Sigma.Hi},
		} {
			a, b := pair[0], pair[1]
			for i := range a.Data {
				if a.Data[i] != b.Data[i] {
					t.Fatalf("%s differs bitwise at %d workers", name, w)
				}
			}
		}
	}
}

// TestRefreshPolicies pins the residual-budget machinery: an infinite
// budget accumulates discarded mass on full-spectrum data, a negative
// one (and any tripped finite budget) resets it via the warm re-solve, and the
// refreshed decomposition agrees with a full recompute even where the
// additive path alone has drifted.
func TestRefreshPolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	// Full-spectrum (not low-rank) data: every update discards mass.
	m := imatrix.New(30, 22)
	for i := range m.Lo.Data {
		v := math.Abs(rng.NormFloat64())
		m.Lo.Data[i] = v
		m.Hi.Data[i] = v + 0.1
	}
	sp := sparse.FromIMatrix(m)
	opts := Options{Rank: 5, Target: TargetB, Updatable: true}
	d, err := DecomposeSparse(sp, ISVD1, opts)
	if err != nil {
		t.Fatal(err)
	}
	patch, after := streamPatch(sp, 4, rand.New(rand.NewSource(68)))

	never, err := d.Update(Delta{Patch: patch}, Options{RefreshBudget: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	if never.Health().ResidualBudgetUsed <= 0 {
		t.Fatalf("infinite-budget residual %g, want > 0 on full-spectrum data", never.Health().ResidualBudgetUsed)
	}

	always, err := d.Update(Delta{Patch: patch}, Options{RefreshBudget: math.Inf(-1)})
	if err != nil {
		t.Fatal(err)
	}
	if always.Health().ResidualBudgetUsed != 0 {
		t.Fatalf("negative-budget residual %g, want 0", always.Health().ResidualBudgetUsed)
	}
	ref, err := DecomposeSparse(after, ISVD1, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkDecompAgreement(t, always, ref, 1e-6)

	// A tiny finite budget must trip and reset; a huge one must not.
	auto, err := d.Update(Delta{Patch: patch}, Options{RefreshBudget: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Health().ResidualBudgetUsed != 0 {
		t.Fatalf("tripped budget residual %g, want 0", auto.Health().ResidualBudgetUsed)
	}
	checkDecompAgreement(t, auto, ref, 1e-6)
	lax, err := d.Update(Delta{Patch: patch}, Options{RefreshBudget: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if lax.Health().ResidualBudgetUsed <= 0 {
		t.Fatalf("lax budget residual %g, want > 0", lax.Health().ResidualBudgetUsed)
	}
}

func TestUpdateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	base := nonNegLowRank(20, 15, 3, rng)
	sp := sparse.FromIMatrix(base)
	opts := Options{Rank: 6, Target: TargetB}

	// Not updatable without the option.
	d, err := DecomposeSparse(sp, ISVD1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d.Updatable() {
		t.Error("plain decomposition claims updatability")
	}
	if _, err := d.Update(Delta{Patch: []sparse.ITriplet{{Row: 0, Col: 0, Lo: 1, Hi: 1}}}, Options{}); err == nil {
		t.Error("Update on non-updatable decomposition accepted")
	}

	// ISVD2-4 + Updatable requires non-negative data.
	neg := base.Clone()
	neg.Lo.Set(0, 0, -1)
	if _, err := Decompose(neg, ISVD4, Options{Rank: 6, Updatable: true}); err == nil {
		t.Error("updatable ISVD4 accepted negative data")
	}
	if _, err := Decompose(neg, ISVD1, Options{Rank: 6, Updatable: true}); err != nil {
		t.Errorf("updatable ISVD1 rejected mixed-sign data: %v", err)
	}

	// Updatable + ExactAlgebra unsupported.
	if _, err := Decompose(base, ISVD4, Options{Rank: 6, Updatable: true, ExactAlgebra: true}); err == nil {
		t.Error("updatable ExactAlgebra accepted")
	}

	upd, err := DecomposeSparse(sp, ISVD4, Options{Rank: 6, Updatable: true})
	if err != nil {
		t.Fatal(err)
	}
	// Empty delta.
	if _, err := upd.Update(Delta{}, Options{}); err == nil {
		t.Error("empty delta accepted")
	}
	// Negative patch on ISVD4.
	if _, err := upd.Update(Delta{Patch: []sparse.ITriplet{{Row: 0, Col: 0, Lo: -1, Hi: 1}}}, Options{}); err == nil {
		t.Error("negative patch on updatable ISVD4 accepted")
	}
	// Misordered patch interval.
	if _, err := upd.Update(Delta{Patch: []sparse.ITriplet{{Row: 0, Col: 0, Lo: 2, Hi: 1}}}, Options{}); err == nil {
		t.Error("misordered patch accepted")
	}
	// Out-of-range patch.
	if _, err := upd.Update(Delta{Patch: []sparse.ITriplet{{Row: 99, Col: 0, Lo: 1, Hi: 1}}}, Options{}); err == nil {
		t.Error("out-of-range patch accepted")
	}
	// Shape-mismatched appends.
	if _, err := upd.Update(Delta{AppendRows: sparse.FromIMatrix(nonNegLowRank(2, 14, 1, rng))}, Options{}); err == nil {
		t.Error("mismatched AppendRows accepted")
	}
}

// TestUpdateChainWithGrowth streams several batches — appends and
// patches interleaved — and checks the final state against a full
// recompute of the final matrix.
func TestUpdateChainWithGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	base := nonNegLowRank(36, 24, 3, rng)
	sp := sparse.FromIMatrix(base)
	opts := Options{Rank: 12, Target: TargetB, Updatable: true}
	d, err := DecomposeSparse(sp, ISVD2, opts)
	if err != nil {
		t.Fatal(err)
	}
	cur := sp
	for step := 0; step < 3; step++ {
		srng := rand.New(rand.NewSource(int64(80 + step)))
		var delta Delta
		if step%2 == 0 {
			b := sparse.FromIMatrix(nonNegLowRank(2, cur.Cols, 1, srng))
			delta.AppendRows = b
			cur, err = sparse.AppendRows(cur, b)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			delta.Patch, cur = streamPatch(cur, 2, srng)
		}
		d, err = d.Update(delta, Options{RefreshBudget: math.Inf(1)})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	ref, err := DecomposeSparse(cur, ISVD2, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkDecompAgreement(t, d, ref, 1e-6)
}

// TestPairSidesRunsBothSides: a step on the endpoint pair advances both
// sides, each with its own discarded mass, and an error on either side
// fails the whole step with a message naming that side.
func TestPairSidesRunsBothSides(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	iv := nonNegLowRank(12, 9, 3, rng)
	lo, err := eig.SVD(iv.Lo)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := eig.SVD(iv.Hi)
	if err != nil {
		t.Fatal(err)
	}
	s := sides{lo: lo.Truncate(4), hi: hi.Truncate(4)}
	next, disc, err := s.step(2, func(f *eig.SVDResult, side int) (*eig.SVDResult, float64, error) {
		nf, err := update.Forget(f, 0.5)
		return nf, float64(side + 1), err
	})
	if err != nil {
		t.Fatal(err)
	}
	if next.lo == nil || next.hi == nil || next.mid != nil {
		t.Fatalf("stepped sides lo %v hi %v mid %v", next.lo != nil, next.hi != nil, next.mid != nil)
	}
	if next.lo.S[0] != 0.5*s.lo.S[0] || next.hi.S[0] != 0.5*s.hi.S[0] {
		t.Fatalf("σ₁ lo %g hi %g, want %g and %g", next.lo.S[0], next.hi.S[0], 0.5*s.lo.S[0], 0.5*s.hi.S[0])
	}
	if disc != [3]float64{sideLo: 1, sideHi: 2} {
		t.Fatalf("discarded mass %v, want lo 1 and hi 2", disc)
	}
	boom := errors.New("boom")
	for _, c := range []struct {
		failing int
		want    string
	}{{sideHi, "max side: boom"}, {sideLo, "min side: boom"}} {
		_, _, err := s.step(0, func(f *eig.SVDResult, side int) (*eig.SVDResult, float64, error) {
			if side == c.failing {
				return nil, 0, boom
			}
			return f, 0, nil
		})
		if err == nil || err.Error() != c.want || !errors.Is(err, boom) {
			t.Errorf("side %d failing: err %v, want %q wrapping boom", c.failing, err, c.want)
		}
	}
}

// TestUpdateWorkersOverrideNotSticky: a per-call Workers override
// applies to that update only; the chain keeps the decompose-time
// setting.
func TestUpdateWorkersOverrideNotSticky(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	sp := sparse.FromIMatrix(nonNegLowRank(20, 14, 3, rng))
	d, err := DecomposeSparse(sp, ISVD1, Options{Rank: 6, Workers: 3, Updatable: true})
	if err != nil {
		t.Fatal(err)
	}
	patch, _ := streamPatch(sp, 1, rng)
	d2, err := d.Update(Delta{Patch: patch}, Options{Workers: 1, RefreshBudget: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.state.opts.Workers; got != 3 {
		t.Fatalf("chain Workers = %d after a one-off override, want the decompose-time 3", got)
	}
}

// TestWarmRefreshGramFallbackMatchesRecompute checks the warm refresh
// where its truncated solve does not run to convergence, so each
// refresh runs eig.GramSVD's fallback, the SymEig of the smaller-side
// Gram: on the flat fixture every side's warm-started attempt returns
// ErrNoConvergence, and on a 60×40 rank-3 matrix patched one cell per
// step (rank below the kept 6) the full route is taken and the Gram
// leaves noise-level triples past the data's rank. After every
// refreshing patch, ISVD0, ISVD1 and ISVD4 must refresh without
// escalating, agree with a cold DecomposeSparse of the same matrix to
// 1e-10 relative (Σ and Reconstruct), and be bitwise identical at 1 and
// 3 workers.
func TestWarmRefreshGramFallbackMatchesRecompute(t *testing.T) {
	defer parallel.SetWorkers(0)
	lowRank := sparse.FromIMatrix(nonNegLowRank(60, 40, 3, rand.New(rand.NewSource(59))))
	var cells []Delta
	for i := 0; i < 3; i++ {
		cells = append(cells, Delta{Patch: []sparse.ITriplet{{Row: 7 * i, Col: 5 * i, Lo: 2, Hi: 3}}})
	}
	for _, fx := range []struct {
		name   string
		m      *sparse.ICSR
		deltas []Delta
	}{
		{"flat", sparse.FromIMatrix(routeFlat(routeRows, routeCols)), routeChain(routeRows, routeCols)},
		{"rank-deficient", lowRank, cells},
	} {
		opts := Options{Rank: routeRank, Target: TargetB, Updatable: true}
		for _, method := range []Method{ISVD0, ISVD1, ISVD4} {
			key := fx.name + "/" + method.String()
			var digests [2]uint64
			for w, workers := range []int{1, 3} {
				parallel.SetWorkers(workers)
				d, err := DecomposeSparse(fx.m, method, opts)
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				for i, delta := range fx.deltas {
					prev := d.state.sides
					if d, err = d.Update(delta, Options{RefreshBudget: math.Inf(-1)}); err != nil {
						t.Fatalf("%s step %d: %v", key, i, err)
					}
					if hl := d.Health(); hl.Refreshes != i+1 || hl.Redecomposes != 0 {
						t.Fatalf("%s step %d: health %+v, want one refresh per step", key, i, hl)
					}
					m := d.state.m
					for side, f := range [...]*eig.SVDResult{sideLo: prev.lo, sideHi: prev.hi, sideMid: prev.mid} {
						if f == nil || !eig.SolverAuto.UseTruncated(routeRank, min(m.Rows, m.Cols)) {
							continue
						}
						op := sparse.NewOperator(sideCSR(m, side))
						if _, err := eig.TruncatedSVD(op, routeRank, eig.Options{StartU: f.U, StartV: f.V}); err != eig.ErrNoConvergence {
							t.Fatalf("%s step %d side %d: warm truncated solve returned %v, want ErrNoConvergence", key, i, side, err)
						}
					}
					ref, err := DecomposeSparse(m, method, opts)
					if err != nil {
						t.Fatal(err)
					}
					checkDecompAgreement(t, d, ref, 1e-10)
					hashFactors(h, d)
				}
				digests[w] = h.Sum64()
			}
			if digests[0] != digests[1] {
				t.Errorf("%s: chain digest %#x at 1 worker, %#x at 3", key, digests[0], digests[1])
			}
		}
	}
}
