package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/imatrix"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// checkDecompBitwise asserts two decompositions publish bit-identical
// factor outputs.
func checkDecompBitwise(t *testing.T, got, want *Decomposition, what string) {
	t.Helper()
	for name, pair := range map[string][2]*matrix.Dense{
		"U.Lo": {got.U.Lo, want.U.Lo}, "U.Hi": {got.U.Hi, want.U.Hi},
		"V.Lo": {got.V.Lo, want.V.Lo}, "V.Hi": {got.V.Hi, want.V.Hi},
		"Sigma.Lo": {got.Sigma.Lo, want.Sigma.Lo}, "Sigma.Hi": {got.Sigma.Hi, want.Sigma.Hi},
	} {
		a, b := pair[0], pair[1]
		if len(a.Data) != len(b.Data) {
			t.Fatalf("%s: %s shape differs", what, name)
		}
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("%s: %s differs bitwise at flat index %d", what, name, i)
			}
		}
	}
}

func TestDowndateMatchesFullRecomputeAllMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	base := nonNegLowRank(42, 30, 4, rng)
	sp := sparse.FromIMatrix(base)
	opts := Options{Rank: 10, Target: TargetB, Updatable: true}
	for _, method := range Methods() {
		for _, kind := range []string{"unpatch", "remove-rows", "remove-cols"} {
			t.Run(method.String()+"/"+kind, func(t *testing.T) {
				d, err := DecomposeSparse(sp, method, opts)
				if err != nil {
					t.Fatal(err)
				}
				var delta Delta
				var after *sparse.ICSR
				switch kind {
				case "unpatch":
					delta.Unpatch = []sparse.Cell{{Row: 1, Col: 2}, {Row: 1, Col: 5}, {Row: 8, Col: 3}}
					after, err = sp.ApplyCells(nil, delta.Unpatch)
				case "remove-rows":
					delta.RemoveRows = []int{41, 0, 7}
					after, err = sp.RemoveRows(delta.RemoveRows)
				case "remove-cols":
					delta.RemoveCols = []int{3, 29}
					after, err = sp.RemoveCols(delta.RemoveCols)
				}
				if err != nil {
					t.Fatal(err)
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
				if h := d2.Health(); !h.Updatable || h.Updates != 1 {
					t.Errorf("health after downdate: %+v", h)
				}
			})
		}
	}
}

// TestAppendThenDowndateRecovers is the sliding-window identity through
// the full engine: appending a slice of rows and then expiring exactly
// those rows must recover the never-appended decomposition to the
// engine's 1e-6 agreement contract, for every method and worker count.
func TestAppendThenDowndateRecovers(t *testing.T) {
	defer parallel.SetWorkers(0)
	rng := rand.New(rand.NewSource(89))
	base := nonNegLowRank(36, 24, 4, rng)
	sp := sparse.FromIMatrix(base)
	slice := sparse.FromIMatrix(nonNegLowRank(3, 24, 2, rand.New(rand.NewSource(90))))
	opts := Options{Rank: 10, Target: TargetB, Updatable: true}
	for _, method := range Methods() {
		for _, w := range []int{1, 3, 8} {
			t.Run(method.String()+"/w"+string(rune('0'+w)), func(t *testing.T) {
				parallel.SetWorkers(w)
				d, err := DecomposeSparse(sp, method, opts)
				if err != nil {
					t.Fatal(err)
				}
				grown, err := d.Update(Delta{AppendRows: slice}, Options{RefreshBudget: math.Inf(1)})
				if err != nil {
					t.Fatal(err)
				}
				back, err := grown.Update(Delta{RemoveRows: []int{36, 37, 38}}, Options{RefreshBudget: math.Inf(1)})
				if err != nil {
					t.Fatal(err)
				}
				checkDecompAgreement(t, back, d, 1e-6)
				if h := back.Health(); h.Updates != 2 || h.UpdatesSinceRefresh != 2 {
					t.Errorf("health counters after chain: %+v", h)
				}
			})
		}
	}
}

func TestForgetUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	sp := sparse.FromIMatrix(nonNegLowRank(30, 22, 4, rng))
	opts := Options{Rank: 8, Target: TargetB, Updatable: true}
	d, err := DecomposeSparse(sp, ISVD1, opts)
	if err != nil {
		t.Fatal(err)
	}

	// λ decays the decomposition exactly like decomposing the decayed
	// matrix: both the factors and the authoritative matrix scale.
	lam := 0.5
	decayed, err := d.Update(Delta{Forget: lam}, Options{RefreshBudget: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := sp.Scale(lam)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := DecomposeSparse(scaled, ISVD1, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkDecompAgreement(t, decayed, ref, 1e-6)

	// λ = 1 is pinned as a bitwise no-op: an update carrying Forget = 1
	// publishes bit-identical factors to the same update without it.
	patch, _ := streamPatch(sp, 2, rand.New(rand.NewSource(94)))
	plain, err := d.Update(Delta{Patch: patch}, Options{RefreshBudget: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	noop, err := d.Update(Delta{Forget: 1, Patch: patch}, Options{RefreshBudget: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	checkDecompBitwise(t, noop, plain, "forget-1 no-op")

	// A forget-only delta with λ = 1 is still a legal (if trivial) update.
	if _, err := d.Update(Delta{Forget: 1}, Options{RefreshBudget: math.Inf(1)}); err != nil {
		t.Errorf("forget-only λ=1 update rejected: %v", err)
	}

	for _, bad := range []float64{-0.5, 1.5, math.NaN()} {
		if _, err := d.Update(Delta{Forget: bad}, Options{}); err == nil {
			t.Errorf("forgetting factor %v accepted", bad)
		}
	}
}

// TestEscalationLadder drives each escalation trigger and checks the
// ladder acts in order, deterministically, with the health counters
// recording what happened.
func TestEscalationLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	// Full-spectrum data so additive updates discard mass.
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
	patch, after := streamPatch(sp, 4, rand.New(rand.NewSource(98)))

	// Level 1: a tripped residual budget warm-refreshes and records it.
	warm, err := d.Update(Delta{Patch: patch}, Options{RefreshBudget: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	h := warm.Health()
	if h.Refreshes != 1 || h.LastEscalation != "refresh" || h.UpdatesSinceRefresh != 0 {
		t.Fatalf("budget trip health: %+v", h)
	}
	if h.ResidualBudgetUsed != 0 {
		t.Fatalf("refresh did not reset the budget: %g", h.ResidualBudgetUsed)
	}
	if !strings.Contains(h.LastEscalationReason, "budget") {
		t.Errorf("refresh reason %q does not name the budget", h.LastEscalationReason)
	}

	// Level 2: orthogonality drift past OrthoBudget forces the full
	// windowed redecompose — bitwise identical to a cold decomposition of
	// the updated matrix.
	redec, err := d.Update(Delta{Patch: patch}, Options{RefreshBudget: math.Inf(1), OrthoBudget: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	h = redec.Health()
	if h.Redecomposes != 1 || h.LastEscalation != "redecompose" {
		t.Fatalf("ortho trip health: %+v", h)
	}
	ref, err := DecomposeSparse(after, ISVD1, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkDecompBitwise(t, redec, ref, "ortho-budget redecompose")
}

// TestIllConditionedDowndateEscalates drives the window-churn regime
// the removal's zeroing check exists for: a row carrying twelve orders
// of magnitude more mass than the rest arrives additively, then
// expires. Removing it cancels nearly the whole spectrum against the
// trailing directions, the updated factors still claim part of the
// removed row (its zeroing residual), and the engine must abandon the
// additive chain and redecompose the windowed matrix — even under an
// infinite RefreshBudget, which disables budget refreshes but not the
// guardrails. The caller sees a successful update, never an error and
// never damaged factors.
func TestIllConditionedDowndateEscalates(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	m := imatrix.New(12, 8)
	for i := range m.Lo.Data {
		v := math.Abs(rng.NormFloat64())
		m.Lo.Data[i] = v
		m.Hi.Data[i] = v + 0.05
	}
	sp := sparse.FromIMatrix(m)
	opts := Options{Rank: 5, Target: TargetB, Updatable: true}
	d, err := DecomposeSparse(sp, ISVD1, opts)
	if err != nil {
		t.Fatal(err)
	}
	row := imatrix.New(1, 8)
	for j := 0; j < 8; j++ {
		v := 1e12 * math.Abs(rng.NormFloat64())
		row.Lo.Set(0, j, v)
		row.Hi.Set(0, j, v*1.2)
	}
	// A lax OrthoBudget lets the violent append through additively (its
	// eigensolve noise alone would otherwise trip the drift guardrail,
	// which is the right call in production but not the path under test).
	grown, err := d.Update(Delta{AppendRows: sparse.FromIMatrix(row)},
		Options{RefreshBudget: math.Inf(1), OrthoBudget: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if h := grown.Health(); h.Redecomposes != 0 {
		t.Fatalf("append escalated early: %+v", h)
	}
	d2, err := grown.Update(Delta{RemoveRows: []int{12}}, Options{RefreshBudget: math.Inf(1)})
	if err != nil {
		t.Fatalf("ill-conditioned downdate surfaced as an error instead of escalating: %v", err)
	}
	h := d2.Health()
	if h.Redecomposes != 1 || h.LastEscalation != "redecompose" {
		t.Fatalf("health after ill-conditioned downdate: %+v", h)
	}
	for _, want := range []string{"RemoveRows", "zero residual"} {
		if !strings.Contains(h.LastEscalationReason, want) {
			t.Errorf("escalation reason %q does not name %q", h.LastEscalationReason, want)
		}
	}
	// Appending the row and expiring it leaves exactly the original
	// matrix, and the escalated redecompose is pinned bitwise to a cold
	// decomposition of it.
	ref, err := DecomposeSparse(sp, ISVD1, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkDecompBitwise(t, d2, ref, "ill-conditioned redecompose")
}

// TestDriftGuardrailEscalates pins the engine's one orthogonality
// check, the health gate against OrthoBudget: factors that already
// drifted 1e-6 past orthonormality go through a narrow unpatch, a wide
// merged slide, a row removal or a column removal, and every one of
// them escalates to exactly one redecompose of the final window,
// bitwise a cold decompose of it, with the gate's reason — even under
// an infinite RefreshBudget. A caller whose OrthoBudget tolerates the
// drift gets the unpatch published additively: no step overrules the
// budget with a tolerance of its own.
func TestDriftGuardrailEscalates(t *testing.T) {
	sp, deltas := scatterWindowChain(1, 60)
	opts := Options{Rank: 8, Target: TargetB, Updatable: true}
	never := Options{RefreshBudget: math.Inf(1)}
	lax := Options{RefreshBudget: math.Inf(1), OrthoBudget: 1e6}
	unpatch := Delta{Unpatch: deltas[0].Unpatch[:5]}
	for _, c := range []struct {
		name     string
		delta    Delta
		opts     Options
		additive bool
	}{
		{"unpatch", unpatch, never, false},
		{"merged slide", deltas[0], never, false},
		{"remove rows", Delta{RemoveRows: []int{3, 150}}, never, false},
		{"remove cols", Delta{RemoveCols: []int{0, 77}}, never, false},
		{"unpatch under a lax budget", unpatch, lax, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, err := DecomposeSparse(sp, ISVD4, opts)
			if err != nil {
				t.Fatal(err)
			}
			if c.delta.Patch != nil {
				_, arrive, expire, err := cellDeltas(d.state.m, c.delta, d.state.mid != nil)
				if err != nil {
					t.Fatal(err)
				}
				if !slideMerges(d.state.sides, arrive, expire, opts.Rank) {
					t.Fatal("the slide does not take the merged step")
				}
			}
			u := d.state.lo.U
			for i := 0; i < u.Rows; i++ {
				u.Data[i*u.Cols] *= 1 + 1e-6
			}
			got, err := d.Update(c.delta, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			h := got.Health()
			if c.additive {
				if h.Redecomposes != 0 || h.Refreshes != 0 {
					t.Fatalf("lax budget: %d redecomposes, %d refreshes (%s); want the unpatch published additively",
						h.Redecomposes, h.Refreshes, h.LastEscalationReason)
				}
				return
			}
			if h.Redecomposes != 1 || h.Refreshes != 0 {
				t.Fatalf("%d redecomposes, %d refreshes; want exactly 1 redecompose (%s)", h.Redecomposes, h.Refreshes, h.LastEscalationReason)
			}
			if !strings.Contains(h.LastEscalationReason, "orthogonality drift") {
				t.Errorf("escalation reason %q does not name the orthogonality drift", h.LastEscalationReason)
			}
			cold, err := DecomposeSparse(got.state.m, ISVD4, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkDecompBitwise(t, got, cold, "redecompose after a drifted "+c.name)
		})
	}
}

// TestPoisonedStateNeverPublishes: a non-finite factor entry fails the
// update with ErrPoisoned instead of propagating into a published
// decomposition.
func TestPoisonedStateNeverPublishes(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	sp := sparse.FromIMatrix(nonNegLowRank(20, 14, 3, rng))
	d, err := DecomposeSparse(sp, ISVD1, Options{Rank: 6, Target: TargetB, Updatable: true})
	if err != nil {
		t.Fatal(err)
	}
	d.state.lo.U.Data[0] = math.NaN()
	// Forget touches only the spectrum, so the NaN survives to the
	// finiteness gate rather than failing some earlier product.
	_, err = d.Update(Delta{Forget: 0.5}, Options{RefreshBudget: math.Inf(1)})
	if !errors.Is(err, ErrPoisoned) || !strings.Contains(err.Error(), "min side") {
		t.Fatalf("update on poisoned state: %v, want ErrPoisoned naming the min side", err)
	}
}

// TestUpdateRejectsBadCellBatch: a cell batch the stored matrix cannot
// take fails the whole update — a cell both patched and tombstoned, a
// tombstone for a cell the same batch inserts, a repeated tombstone —
// and the receiver keeps updating.
func TestUpdateRejectsBadCellBatch(t *testing.T) {
	sp, err := sparse.FromICOO(20, 14, []sparse.ITriplet{
		{Row: 0, Col: 0, Lo: 1, Hi: 2}, {Row: 3, Col: 5, Lo: 2, Hi: 2.5}, {Row: 7, Col: 1, Lo: 0.5, Hi: 1},
		{Row: 12, Col: 9, Lo: 3, Hi: 4}, {Row: 19, Col: 13, Lo: 1, Hi: 1.5}, {Row: 9, Col: 6, Lo: 2, Hi: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecomposeSparse(sp, ISVD1, Options{Rank: 3, Target: TargetB, Updatable: true})
	if err != nil {
		t.Fatal(err)
	}
	const both = "is both patched and tombstoned"
	for _, c := range []struct {
		name, want string
		delta      Delta
	}{
		{"stored cell in both", both, Delta{Patch: []sparse.ITriplet{{Row: 3, Col: 5, Lo: 1, Hi: 1}}, Unpatch: []sparse.Cell{{Row: 3, Col: 5}}}},
		{"inserted cell in both", both, Delta{Patch: []sparse.ITriplet{{Row: 4, Col: 4, Lo: 1, Hi: 1}}, Unpatch: []sparse.Cell{{Row: 4, Col: 4}}}},
		{"repeated tombstone", "duplicate tombstone", Delta{Unpatch: []sparse.Cell{{Row: 0, Col: 0}, {Row: 0, Col: 0}}}},
	} {
		if _, err := d.Update(c.delta, Options{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: update error %v, want one containing %q", c.name, err, c.want)
		}
	}
	if _, err := d.Update(Delta{Patch: []sparse.ITriplet{{Row: 4, Col: 4, Lo: 1, Hi: 1}}, Unpatch: []sparse.Cell{{Row: 0, Col: 0}}}, Options{}); err != nil {
		t.Fatalf("valid slide after rejected batches: %v", err)
	}
}

// TestHealthReport pins the report itself: non-updatable decompositions
// are all-zero, fresh chains start at zero, and the measured fields are
// sane.
func TestHealthReport(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	sp := sparse.FromIMatrix(nonNegLowRank(20, 14, 3, rng))
	plain, err := DecomposeSparse(sp, ISVD1, Options{Rank: 6, Target: TargetB})
	if err != nil {
		t.Fatal(err)
	}
	if h := plain.Health(); h != (Health{}) {
		t.Errorf("non-updatable health not zero: %+v", h)
	}
	d, err := DecomposeSparse(sp, ISVD1, Options{Rank: 6, Target: TargetB, Updatable: true})
	if err != nil {
		t.Fatal(err)
	}
	h := d.Health()
	if !h.Updatable || h.Updates != 0 || h.Refreshes != 0 || h.LastEscalation != "" {
		t.Fatalf("fresh chain health: %+v", h)
	}
	if h.Cond < 1 {
		t.Errorf("condition estimate %g below 1", h.Cond)
	}
	if h.OrthoDrift < 0 || h.OrthoDrift > 1e-8 {
		t.Errorf("fresh factors report drift %g", h.OrthoDrift)
	}
}
