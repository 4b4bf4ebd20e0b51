package ivmf_test

// Sliding-window benchmarks backing BENCH_window.json: the decremental
// half of the update engine (cell tombstones, row removal, forgetting)
// and the combined window-churn batch (arrivals + expiries) vs the full
// redecomposition of the slid window — the downdate-vs-redecompose
// crossover. Same matrix family as update_bench_test.go (n×n sparse
// non-negative interval matrices, ~40k stored cells, spectral decay).
//
// Every measured iteration must stay on the additive path: the benches
// b.Fatal if a guardrail escalation (warm refresh or redecompose)
// fires, so a numerical regression that silently reroutes the downdate
// through the refresh machinery fails loudly instead of reporting the
// refresh's cost as the downdate's.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sparse"
)

// tombstoneBatch collects the stored cells of whole rows from the top
// of the matrix totalling roughly frac of its NNZ — the expiring-ratings
// shape, matching rowBatch's arriving-ratings shape.
func tombstoneBatch(m *sparse.ICSR, frac float64) []sparse.Cell {
	target := int(float64(m.NNZ()) * frac)
	if target < 1 {
		target = 1
	}
	var cells []sparse.Cell
	for i := 0; i < m.Rows && len(cells) < target; i++ {
		cols, _, _ := m.RowView(i)
		for _, j := range cols {
			cells = append(cells, sparse.Cell{Row: i, Col: j})
		}
	}
	return cells
}

// mustStayAdditive fails the bench if the update left the additive path
// — the numbers would then measure the refresh machinery, not the
// downdate.
func mustStayAdditive(b *testing.B, d *core.Decomposition) {
	b.Helper()
	if h := d.Health(); h.LastEscalation != "" {
		b.Fatalf("benchmark update escalated (%s: %s); numbers would not measure the downdate",
			h.LastEscalation, h.LastEscalationReason)
	}
}

// BenchmarkDowndateUnpatch is the engine's tombstone path: Brand
// downdate of expired cells plus the factor-sized pipeline re-run.
func BenchmarkDowndateUnpatch(b *testing.B) {
	for _, n := range []int{512, 1024} {
		m := benchStreamMatrix(n, benchUpdateNNZ)
		d, err := core.DecomposeSparse(m, core.ISVD4, benchUpdateOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, frac := range []float64{0.001, 0.01, 0.10} {
			delta := core.Delta{Unpatch: tombstoneBatch(m, frac)}
			b.Run(fmt.Sprintf("n=%d/r=20/batch=%g%%", n, frac*100), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d2, err := d.Update(delta, core.Options{RefreshBudget: math.Inf(1)})
					if err != nil {
						b.Fatal(err)
					}
					mustStayAdditive(b, d2)
				}
			})
		}
	}
}

// BenchmarkDowndateRemoveRows is the structural downdate: whole rows
// leave the window and the factors shrink with them.
func BenchmarkDowndateRemoveRows(b *testing.B) {
	for _, n := range []int{512, 1024} {
		m := benchStreamMatrix(n, benchUpdateNNZ)
		d, err := core.DecomposeSparse(m, core.ISVD4, benchUpdateOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range []int{1, 8} {
			rows := make([]int, k)
			for i := range rows {
				rows[i] = i
			}
			delta := core.Delta{RemoveRows: rows}
			b.Run(fmt.Sprintf("n=%d/r=20/rows=%d", n, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d2, err := d.Update(delta, core.Options{RefreshBudget: math.Inf(1)})
					if err != nil {
						b.Fatal(err)
					}
					mustStayAdditive(b, d2)
				}
			})
		}
	}
}

// BenchmarkDowndateForget is the forgetting factor: a spectrum scale
// plus the factor-sized pipeline re-run — the cheapest update there is.
func BenchmarkDowndateForget(b *testing.B) {
	for _, n := range []int{512, 1024} {
		m := benchStreamMatrix(n, benchUpdateNNZ)
		d, err := core.DecomposeSparse(m, core.ISVD4, benchUpdateOpts())
		if err != nil {
			b.Fatal(err)
		}
		delta := core.Delta{Forget: 0.95}
		b.Run(fmt.Sprintf("n=%d/r=20", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d2, err := d.Update(delta, core.Options{RefreshBudget: math.Inf(1)})
				if err != nil {
					b.Fatal(err)
				}
				mustStayAdditive(b, d2)
			}
		})
	}
}

// BenchmarkWindowReplay is one slide of a constant-size window: a batch
// of arriving cells (rowBatch from the bottom of the matrix) plus
// equally heavy expiries (tombstoneBatch from the top), folded in as
// one combined additive update. Against BenchmarkUpdateColdDecompose
// (the redecomposition of the slid window) this is the crossover
// BENCH_window.json pins.
func BenchmarkWindowReplay(b *testing.B) {
	for _, n := range []int{512, 1024} {
		m := benchStreamMatrix(n, benchUpdateNNZ)
		d, err := core.DecomposeSparse(m, core.ISVD4, benchUpdateOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, frac := range []float64{0.001, 0.01, 0.10} {
			// Arrivals scale stored cells of rows from the bottom;
			// expiries tombstone rows from the top — disjoint by
			// construction, together ~2·frac of NNZ churn.
			arrive := rowBatchFrom(m, m.Rows-1, -1, frac)
			expire := tombstoneBatch(m, frac)
			delta := core.Delta{Patch: arrive, Unpatch: expire}
			b.Run(fmt.Sprintf("n=%d/r=20/churn=%g%%", n, frac*100), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d2, err := d.Update(delta, core.Options{RefreshBudget: math.Inf(1)})
					if err != nil {
						b.Fatal(err)
					}
					mustStayAdditive(b, d2)
				}
			})
		}
	}
}

// BenchmarkWindowScatter is one slide of a window whose churn is
// scattered, the window-churn serving shape: arrivals at random unstored
// cells plus as many tombstones of random stored cells. Unlike
// BenchmarkWindowReplay's whole-row churn, every cell lands in its own
// row and column, so each Brand step is a wide patch (batch rank well
// above the kept rank) and takes the sketched step.
func BenchmarkWindowScatter(b *testing.B) {
	for _, n := range []int{512, 1024} {
		m := benchStreamMatrix(n, benchUpdateNNZ)
		d, err := core.DecomposeSparse(m, core.ISVD4, benchUpdateOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, frac := range []float64{0.003, 0.01} {
			delta := scatterSlide(m, int(float64(m.NNZ())*frac), rand.New(rand.NewSource(int64(n))))
			b.Run(fmt.Sprintf("n=%d/r=20/churn=%g%%", n, frac*100), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d2, err := d.Update(delta, core.Options{RefreshBudget: math.Inf(1)})
					if err != nil {
						b.Fatal(err)
					}
					mustStayAdditive(b, d2)
				}
			})
		}
	}
}

// scatterSlide draws churn arrivals at distinct random unstored cells,
// each taking the value of a random stored cell, and churn tombstones
// of distinct random stored cells.
func scatterSlide(m *sparse.ICSR, churn int, rng *rand.Rand) core.Delta {
	type cell struct {
		c      sparse.Cell
		lo, hi float64
	}
	var stored []cell
	isStored := map[sparse.Cell]bool{}
	m.ForEachRow(func(i int, cols []int, lo, hi []float64) {
		for p, j := range cols {
			c := sparse.Cell{Row: i, Col: j}
			stored = append(stored, cell{c, lo[p], hi[p]})
			isStored[c] = true
		}
	})
	var delta core.Delta
	for _, k := range rng.Perm(len(stored))[:churn] {
		delta.Unpatch = append(delta.Unpatch, stored[k].c)
	}
	for len(delta.Patch) < churn {
		c := sparse.Cell{Row: rng.Intn(m.Rows), Col: rng.Intn(m.Cols)}
		if isStored[c] {
			continue
		}
		isStored[c] = true
		v := stored[rng.Intn(len(stored))]
		delta.Patch = append(delta.Patch, sparse.ITriplet{Row: c.Row, Col: c.Col, Lo: v.lo, Hi: v.hi})
	}
	return delta
}

// rowBatchFrom is rowBatch walking rows from a given start in a given
// direction, so arrivals and expiries can draw from disjoint row
// ranges.
func rowBatchFrom(m *sparse.ICSR, start, step int, frac float64) []sparse.ITriplet {
	target := int(float64(m.NNZ()) * frac)
	if target < 1 {
		target = 1
	}
	var patch []sparse.ITriplet
	for i := start; i >= 0 && i < m.Rows && len(patch) < target; i += step {
		cols, lo, hi := m.RowView(i)
		for p, j := range cols {
			patch = append(patch, sparse.ITriplet{Row: i, Col: j, Lo: lo[p] * 1.01, Hi: hi[p] * 1.01})
		}
	}
	return patch
}
