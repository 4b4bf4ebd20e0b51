package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/sparse"
)

// Seeded input generators. Every workload's traffic is a pure function
// of its seed and is rendered to wire text before ivmfd starts, so the
// server only ever sees generated inputs and two runs with one seed
// send byte-identical payloads.

// tenantInput is one tenant's complete write traffic: the decompose
// payload and the ordered update stream.
type tenantInput struct {
	name       string
	rows, cols int
	rank       int
	baseCOO    string
	updates    []updateInput
}

// updateInput is one update job: delta-COO wire text plus its
// forgetting factor (0 = none).
type updateInput struct {
	delta  string
	forget float64
}

// ratingsTenant builds a ratings-like tenant from
// dataset.MovieLensLike().Scaled(scale): the user×item interval matrix
// is split by dataset.StreamSplit into a base and `batches` arriving
// patches of about patchFrac of the cells each.
func ratingsTenant(name string, scale float64, rank, batches int, patchFrac float64, rng *rand.Rand) (*tenantInput, error) {
	data, err := dataset.GenerateRatings(dataset.MovieLensLike().Scaled(scale), rng)
	if err != nil {
		return nil, err
	}
	m := data.CFIntervalsCSR()
	base, patches, err := dataset.StreamSplit(m, patchFrac*float64(batches), batches, rng)
	if err != nil {
		return nil, err
	}
	t := &tenantInput{name: name, rows: m.Rows, cols: m.Cols, rank: rank}
	if t.baseCOO, err = renderBase(m.Rows, m.Cols, base); err != nil {
		return nil, err
	}
	for _, p := range patches {
		var sb strings.Builder
		if err := dataset.WriteDeltaCOO(&sb, m.Rows, m.Cols, p); err != nil {
			return nil, err
		}
		t.updates = append(t.updates, updateInput{delta: sb.String()})
	}
	return t, nil
}

// decayingMatrix builds an n×n non-negative sparse interval matrix with
// at least nnz stored cells from rank-1 8×8 patches whose scale decays
// by `decay` per patch down to a 1e-4 floor (modelled on the update
// benchmarks' stream matrix). The decay rate is the traffic dimension
// that decides whether window updates stay additive: the faster it
// decays, the less singular mass a churned tail cell carries. It also
// returns the cells first touched at full-floor scale (the tail) in
// generation order.
func decayingMatrix(n, nnz int, decay float64, rng *rand.Rand) (m *sparse.ICSR, tail []sparse.Cell, err error) {
	acc := make(map[sparse.Cell]float64, nnz)
	var order []sparse.Cell
	floor := map[sparse.Cell]bool{}
	scale := 1.0
	for len(acc) < nnz {
		ris := rng.Perm(n)[:8]
		cis := rng.Perm(n)[:8]
		for _, r := range ris {
			for _, c := range cis {
				k := sparse.Cell{Row: r, Col: c}
				if _, ok := acc[k]; !ok {
					order = append(order, k)
					floor[k] = scale <= 1e-4
				}
				acc[k] += scale * math.Abs(rng.NormFloat64())
			}
		}
		scale = math.Max(scale*decay, 1e-4)
	}
	ts := make([]sparse.ITriplet, 0, len(acc))
	for _, k := range order {
		v := acc[k]
		ts = append(ts, sparse.ITriplet{Row: k.Row, Col: k.Col, Lo: v, Hi: 1.2 * v})
		if floor[k] {
			tail = append(tail, k)
		}
	}
	m, err = sparse.FromICOO(n, n, ts)
	return m, tail, err
}

// windowTenant builds a window-churn tenant: a decaying-spectrum n×n
// matrix whose tail cells slide through a constant-size window. The
// base holds every cell except the stream. Each of `batches` updates
// inserts `churn` arriving tail cells and tombstones the `churn` oldest
// live tail cells (FIFO, like dataset.WindowSplit), and every
// forgetEvery-th update also decays the window by lambda.
func windowTenant(name string, n, window, rank, batches, churn, forgetEvery int, lambda, decay float64, rng *rand.Rand) (*tenantInput, error) {
	m, tail, err := decayingMatrix(n, window+batches*churn, decay, rng)
	if err != nil {
		return nil, err
	}
	if len(tail) < 2*batches*churn {
		return nil, fmt.Errorf("window tenant: %d tail cells, want %d", len(tail), 2*batches*churn)
	}
	rng.Shuffle(len(tail), func(a, b int) { tail[a], tail[b] = tail[b], tail[a] })
	stream := tail[len(tail)-batches*churn:]
	inStream := make(map[sparse.Cell]bool, len(stream))
	for _, c := range stream {
		inStream[c] = true
	}
	var base []sparse.ITriplet
	m.ForEachRow(func(i int, cols []int, lo, hi []float64) {
		for p, j := range cols {
			if !inStream[sparse.Cell{Row: i, Col: j}] {
				base = append(base, sparse.ITriplet{Row: i, Col: j, Lo: lo[p], Hi: hi[p]})
			}
		}
	})
	t := &tenantInput{name: name, rows: n, cols: n, rank: rank}
	if t.baseCOO, err = renderBase(n, n, base); err != nil {
		return nil, err
	}
	live := append([]sparse.Cell(nil), tail[:len(tail)-len(stream)]...) // FIFO of churnable live cells
	for k := 0; k < batches; k++ {
		var b dataset.DeltaBatch
		for _, c := range stream[k*churn : (k+1)*churn] {
			iv := m.At(c.Row, c.Col)
			b.Patch = append(b.Patch, sparse.ITriplet{Row: c.Row, Col: c.Col, Lo: iv.Lo, Hi: iv.Hi})
			live = append(live, c)
		}
		b.Tombstones = append(b.Tombstones, live[:churn]...)
		live = live[churn:]
		var sb strings.Builder
		if err := dataset.WriteDeltaBatchCOO(&sb, n, n, b); err != nil {
			return nil, err
		}
		u := updateInput{delta: sb.String()}
		if forgetEvery > 0 && (k+1)%forgetEvery == 0 {
			u.forget = lambda
		}
		t.updates = append(t.updates, u)
	}
	return t, nil
}

// renderBase writes a base cell set as interval-COO wire text.
func renderBase(rows, cols int, cells []sparse.ITriplet) (string, error) {
	m, err := sparse.FromICOO(rows, cols, append([]sparse.ITriplet(nil), cells...))
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if err := dataset.WriteIntervalCOO(&sb, m); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// sortBatch orders a parsed delta exactly like the service's request
// decoder (row, then column), so an offline replay folds cells in the
// order the server did.
func sortBatch(b *dataset.DeltaBatch) {
	sort.Slice(b.Patch, func(x, y int) bool {
		if b.Patch[x].Row != b.Patch[y].Row {
			return b.Patch[x].Row < b.Patch[y].Row
		}
		return b.Patch[x].Col < b.Patch[y].Col
	})
	sort.Slice(b.Tombstones, func(x, y int) bool {
		if b.Tombstones[x].Row != b.Tombstones[y].Row {
			return b.Tombstones[x].Row < b.Tombstones[y].Row
		}
		return b.Tombstones[x].Col < b.Tombstones[y].Col
	})
}
