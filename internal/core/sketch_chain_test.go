package core

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/eig"
	"repro/internal/parallel"
	"repro/internal/sparse"
	"repro/internal/update"
)

// scatterWindowChain returns a decaying non-negative 200×200 base and a
// window-churn chain over it: each of `steps` deltas inserts `churn`
// arrivals at fresh random cells and tombstones the `churn` oldest live
// tail cells (FIFO), and every 4th also forgets with λ = 0.95. Tail
// cells are the smaller half of the stored values, and arrivals draw
// their values from them, so the chain churns the spectrum's tail the
// way a served window does. Both halves of every slide touch far more
// distinct rows and columns than rank 8 + the sketch width, so every
// slide folds into one signed sketched Brand step per side.
func scatterWindowChain(steps, churn int) (*sparse.ICSR, []Delta) {
	rng := rand.New(rand.NewSource(151))
	m := sparseDecayICSR(rng, 200, 200, 0.05)
	type cell struct {
		c      sparse.Cell
		lo, hi float64
	}
	var stored []cell
	taken := map[sparse.Cell]bool{}
	m.ForEachRow(func(i int, cols []int, lo, hi []float64) {
		for p, j := range cols {
			c := sparse.Cell{Row: i, Col: j}
			stored = append(stored, cell{c, lo[p], hi[p]})
			taken[c] = true
		}
	})
	sort.SliceStable(stored, func(a, b int) bool { return stored[a].hi < stored[b].hi })
	tail := stored[:len(stored)/2]
	rng.Shuffle(len(tail), func(a, b int) { tail[a], tail[b] = tail[b], tail[a] })
	live := make([]sparse.Cell, len(tail))
	for i, t := range tail {
		live[i] = t.c
	}

	deltas := make([]Delta, steps)
	for s := range deltas {
		d := &deltas[s]
		for len(d.Patch) < churn {
			c := sparse.Cell{Row: rng.Intn(m.Rows), Col: rng.Intn(m.Cols)}
			if taken[c] {
				continue
			}
			taken[c] = true
			v := tail[rng.Intn(len(tail))]
			d.Patch = append(d.Patch, sparse.ITriplet{Row: c.Row, Col: c.Col, Lo: v.lo, Hi: v.hi})
			live = append(live, c)
		}
		d.Unpatch = append([]sparse.Cell(nil), live[:churn]...)
		live = live[churn:]
		if (s+1)%4 == 0 {
			d.Forget = 0.95
		}
	}
	return m, deltas
}

// TestSketchedWindowChain runs an ISVD4 window through 30 scattered
// slides, each one signed sketched Brand step per side: it must never
// redecompose, keep the factors orthonormal to 1e-9, agree with a cold
// decompose of the window after a forced refresh, and publish
// bitwise-identical updates at 1 and 3 workers.
func TestSketchedWindowChain(t *testing.T) {
	defer parallel.SetWorkers(0)
	const steps, churn = 30, 60
	sp, deltas := scatterWindowChain(steps, churn)
	opts := Options{Rank: 8, Target: TargetB, Updatable: true}

	d, err := DecomposeSparse(sp, ISVD4, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, delta := range deltas {
		// Both halves of every slide are wide on both sides, so each
		// takes one signed sketched step per side.
		_, arrive, expire, err := cellDeltas(d.state.m, delta, d.state.mid != nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slideMerges(d.state.sides, arrive, expire, opts.Rank) {
			t.Fatalf("step %d does not take the merged step", i)
		}
		if d, err = d.Update(delta, Options{}); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		h := d.Health()
		if h.Redecomposes != 0 {
			t.Fatalf("step %d redecomposed: %s", i, h.LastEscalationReason)
		}
		if h.OrthoDrift > 1e-9 {
			t.Fatalf("step %d: orthogonality drift %g > 1e-9", i, h.OrthoDrift)
		}
	}

	// A forced refresh re-solves the endpoint factors from the window;
	// the result is the cold decomposition's.
	refreshed, err := d.Update(Delta{Forget: 1}, Options{RefreshBudget: math.Inf(-1)})
	if err != nil {
		t.Fatal(err)
	}
	if h := refreshed.Health(); h.LastEscalation != "refresh" || h.Redecomposes != 0 {
		t.Fatalf("forced refresh: escalation %q, %d redecomposes", h.LastEscalation, h.Redecomposes)
	}
	cold, err := DecomposeSparse(d.state.m, ISVD4, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkDecompAgreement(t, refreshed, cold, 1e-6)

	var ref uint64
	for _, w := range []int{1, 3} {
		parallel.SetWorkers(w)
		base, err := DecomposeSparse(sp, ISVD4, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := chainDigest(t, base, deltas, Options{})
		if w == 1 {
			ref = got
		} else if got != ref {
			t.Fatalf("chain digest %#x at %d workers, %#x at 1", got, w, ref)
		}
	}
}

// slideBy replays the additive path of Update for a cell-only delta
// with the given per-side cell step: the per-side cell deltas (arrivals
// and negated tombstones, both additive), the step on each endpoint
// state, and the pipeline re-run from the stepped states.
func slideBy(t *testing.T, d *Decomposition, delta Delta,
	step func(f *eig.SVDResult, arrive, expire []sparse.Triplet) (*eig.SVDResult, float64, error)) *Decomposition {
	t.Helper()
	st := d.state
	next, arrive, expire, err := cellDeltas(st.m, delta, st.mid != nil)
	if err != nil {
		t.Fatal(err)
	}
	lo, _, err := step(st.lo, arrive[sideLo], expire[sideLo])
	if err != nil {
		t.Fatal(err)
	}
	hi, _, err := step(st.hi, arrive[sideHi], expire[sideHi])
	if err != nil {
		t.Fatal(err)
	}
	d2, err := decompose(updateOperand{sparseOperand{next}, sides{lo: lo, hi: hi}}, d.Method, st.opts)
	if err != nil {
		t.Fatal(err)
	}
	return d2
}

// TestSketchedSlideMergesWideHalves pins which Brand steps a window
// slide takes. When both halves are wide on both sides, Update folds
// them into one signed CellPatch per side (arrivals, then tombstones) —
// bitwise the merged replay, not the two-step one. When either half is
// narrow it keeps the two steps, a CellPatch of the arrivals then one
// of the tombstones, bit for bit.
func TestSketchedSlideMergesWideHalves(t *testing.T) {
	const rank = 8
	sp, deltas := scatterWindowChain(1, 60)
	d, err := DecomposeSparse(sp, ISVD4, Options{Rank: rank, Target: TargetB, Updatable: true})
	if err != nil {
		t.Fatal(err)
	}
	merged := func(f *eig.SVDResult, arrive, expire []sparse.Triplet) (*eig.SVDResult, float64, error) {
		signed := append(append([]sparse.Triplet(nil), arrive...), expire...)
		return update.CellPatch(f, signed, rank)
	}
	twoStep := func(f *eig.SVDResult, arrive, expire []sparse.Triplet) (*eig.SVDResult, float64, error) {
		mid, _, err := update.CellPatch(f, arrive, rank)
		if err != nil {
			return nil, 0, err
		}
		return update.CellPatch(mid, expire, rank)
	}
	never := Options{RefreshBudget: math.Inf(1)}

	wide := deltas[0]
	got, err := d.Update(wide, never)
	if err != nil {
		t.Fatal(err)
	}
	if h := got.Health(); h.LastEscalation != "" {
		t.Fatalf("wide slide escalated: %s", h.LastEscalationReason)
	}
	checkDecompBitwise(t, got, slideBy(t, d, wide, merged), "wide slide vs one signed step")
	if digestOf(got) == digestOf(slideBy(t, d, wide, twoStep)) {
		t.Fatal("the merged and two-step replays agree bitwise; the test cannot tell them apart")
	}

	for _, c := range []struct {
		name  string
		delta Delta
	}{
		{"narrow tombstones", Delta{Patch: wide.Patch, Unpatch: wide.Unpatch[:5]}},
		{"narrow arrivals", Delta{Patch: wide.Patch[:5], Unpatch: wide.Unpatch}},
	} {
		got, err := d.Update(c.delta, never)
		if err != nil {
			t.Fatal(err)
		}
		checkDecompBitwise(t, got, slideBy(t, d, c.delta, twoStep), c.name+" vs two CellPatch steps")
	}
}

// digestOf hashes a decomposition's published factors.
func digestOf(d *Decomposition) uint64 {
	h := fnv.New64a()
	hashFactors(h, d)
	return h.Sum64()
}
