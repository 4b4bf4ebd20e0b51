package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/parallel"
	"repro/internal/sparse"
)

// scatterWindowChain returns a decaying non-negative 200×200 base and a
// window-churn chain over it: each of `steps` deltas inserts `churn`
// arrivals at fresh random cells and tombstones the `churn` oldest live
// tail cells (FIFO), and every 4th also forgets with λ = 0.95. Tail
// cells are the smaller half of the stored values, and arrivals draw
// their values from them, so the chain churns the spectrum's tail the
// way a served window does. Every patch touches far more distinct rows
// and columns than rank 8 + the sketch width, so every Brand step is a
// sketched one.
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
// slides on the sketched Brand step: it must never redecompose, keep the
// factors orthonormal to 1e-9, agree with a cold decompose of the window
// after a forced refresh, and publish bitwise-identical updates at 1 and
// 3 workers.
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
