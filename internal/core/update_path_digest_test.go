package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/imatrix"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// updatePathChain returns a dense non-negative 30×22 base and a chain
// that takes every Delta stage on its own, then a narrow slide:
// forget, row and column appends, a patch, an unpatch, a patch with a
// few tombstones (two Brand steps per side), and row and column
// removals. Patch and tombstone cells never repeat within a delta.
func updatePathChain() (*sparse.ICSR, []Delta) {
	rng := rand.New(rand.NewSource(171))
	const rows, cols = 30, 22
	block := func(r, c int) *sparse.ICSR {
		m := imatrix.New(r, c)
		for i := range m.Lo.Data {
			v := math.Abs(rng.NormFloat64())
			m.Lo.Data[i] = v
			m.Hi.Data[i] = v + 0.1
		}
		return sparse.FromIMatrix(m)
	}
	base := block(rows, cols)
	// cells draws n distinct in-range cells of an r×c matrix, none of
	// them in avoid.
	cells := func(n, r, c int, avoid map[sparse.Cell]bool) []sparse.Cell {
		var out []sparse.Cell
		seen := map[sparse.Cell]bool{}
		for len(out) < n {
			cl := sparse.Cell{Row: rng.Intn(r), Col: rng.Intn(c)}
			if seen[cl] || avoid[cl] {
				continue
			}
			seen[cl] = true
			out = append(out, cl)
		}
		return out
	}
	patch := func(cs []sparse.Cell) []sparse.ITriplet {
		p := make([]sparse.ITriplet, len(cs))
		for i, cl := range cs {
			v := 2 * math.Abs(rng.NormFloat64())
			p[i] = sparse.ITriplet{Row: cl.Row, Col: cl.Col, Lo: v, Hi: 1.2*v + 0.1}
		}
		return p
	}
	// After the appends the matrix is 31×23 and every cell is stored.
	const r2, c2 = rows + 1, cols + 1
	slideArrive := cells(4, r2, c2, nil)
	arrived := map[sparse.Cell]bool{}
	for _, cl := range slideArrive {
		arrived[cl] = true
	}
	return base, []Delta{
		{Forget: 0.9},
		{AppendRows: block(1, cols)},
		{AppendCols: block(rows+1, 1)},
		{Patch: patch(cells(5, r2, c2, nil))},
		{Unpatch: cells(3, r2, c2, nil)},
		{Patch: patch(slideArrive), Unpatch: cells(2, r2, c2, arrived)},
		{RemoveRows: []int{3, 17}},
		{RemoveCols: []int{0}},
	}
}

// growChain returns a dense non-negative 30×22 base and a chain of
// appends only: three rows of which the third repeats the first, two
// columns, four rows and three columns in one delta, and two rows. At
// rank 5 every step keeps r + c at most the dimension the batch does
// not extend.
func growChain() (*sparse.ICSR, []Delta) {
	rng := rand.New(rand.NewSource(433))
	block := func(r, c int) *imatrix.IMatrix {
		m := imatrix.New(r, c)
		for i := range m.Lo.Data {
			v := math.Abs(rng.NormFloat64())
			m.Lo.Data[i] = v
			m.Hi.Data[i] = v + 0.1
		}
		return m
	}
	dup := block(3, 22)
	copy(dup.Lo.RowView(2), dup.Lo.RowView(0))
	copy(dup.Hi.RowView(2), dup.Hi.RowView(0))
	return sparse.FromIMatrix(block(30, 22)), []Delta{
		{AppendRows: sparse.FromIMatrix(dup)},
		{AppendCols: sparse.FromIMatrix(block(33, 2))},
		{AppendRows: sparse.FromIMatrix(block(4, 24)), AppendCols: sparse.FromIMatrix(block(37, 3))},
		{AppendRows: sparse.FromIMatrix(block(2, 27))},
	}
}

// stateDigest replays an update chain and hashes, per step, what
// chainDigest leaves out: the stored matrix's ICSR arrays and every
// Health field, escalation reason included (FNV-64a).
func stateDigest(t *testing.T, d *Decomposition, deltas []Delta, opts Options) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for i, delta := range deltas {
		var err error
		if d, err = d.Update(delta, opts); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		m := d.state.m
		put(uint64(m.Rows))
		put(uint64(m.Cols))
		for _, idx := range [][]int{m.RowPtr, m.ColInd} {
			put(uint64(len(idx)))
			for _, x := range idx {
				put(uint64(x))
			}
		}
		for _, vals := range [][]float64{m.Lo, m.Hi} {
			for _, x := range vals {
				put(math.Float64bits(x))
			}
		}
		hl := d.Health()
		for _, x := range []float64{hl.ResidualBudgetUsed, hl.OrthoDrift, hl.Cond} {
			put(math.Float64bits(x))
		}
		for _, x := range []int{hl.Updates, hl.UpdatesSinceRefresh, hl.Refreshes, hl.Redecomposes} {
			put(uint64(x))
		}
		h.Write([]byte(hl.LastEscalation + "\x00" + hl.LastEscalationReason + "\x00"))
	}
	return h.Sum64()
}

// TestUpdatePathDigests pins every path of Decomposition.Update bitwise:
// each Delta stage on its own, a narrow two-step slide, two wide merged
// slides and a chain of row and column appends, for ISVD0 (the midpoint
// side), ISVD1 and ISVD4 (the endpoint pair), under the default
// budgets, no refresh at all, a refresh on every update and a
// redecompose on every update. Each digest covers the published
// factors and counters (chainDigest), the stored matrix and the full
// Health report, and must not depend on the worker count.
func TestUpdatePathDigests(t *testing.T) {
	defer parallel.SetWorkers(0)
	stageBase, stageDeltas := updatePathChain()
	wideBase, wideDeltas := scatterWindowChain(2, 60)
	growBase, growDeltas := growChain()
	chains := []struct {
		name   string
		base   *sparse.ICSR
		deltas []Delta
		rank   int
	}{
		{"stages", stageBase, stageDeltas, 5},
		{"wide", wideBase, wideDeltas, 8},
		{"grow", growBase, growDeltas, 5},
	}
	regimes := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"never", Options{RefreshBudget: math.Inf(1)}},
		{"refresh", Options{RefreshBudget: math.Inf(-1)}},
		{"redecompose", Options{OrthoBudget: 1e-300}},
	}
	// Recorded before ApplyCells replaced the two-pass cell merge and one
	// loop replaced the four side-health checks. ISVD4/stages/never was
	// re-recorded when the health gate became the only orthogonality
	// check: its factors and counters (chainDigest 0x80577773f49dce35)
	// did not move, only the escalation reasons of the unpatch and
	// row-removal steps, which now name the gate's drift measurement.
	// The stages/default and stages/refresh digests were re-recorded when
	// the warm refresh moved to eig.GramSVD (a 22×22 or 23×23 Gram
	// SymEig in place of the Golub-Reinsch SVD at this size); every
	// step's escalation counters stayed the same. The grow digests were
	// recorded while AppendRows still had its own Brand step, before it
	// became a LowRank step on zero-padded factors.
	want := map[string]uint64{
		"ISVD0/stages/default":     0x0ed6c17646153d6e,
		"ISVD0/stages/never":       0x1846288b93f7a563,
		"ISVD0/stages/refresh":     0xcfb138c7c4aa5cf0,
		"ISVD0/stages/redecompose": 0xd47550060e15099f,
		"ISVD0/wide/default":       0xa8423dae7c78c06e,
		"ISVD0/wide/never":         0xa8423dae7c78c06e,
		"ISVD0/wide/refresh":       0x2c6fd388f7e248ad,
		"ISVD0/wide/redecompose":   0x5b235ab7d4fb6073,
		"ISVD0/grow/default":       0xd7c77314a09f4d3e,
		"ISVD0/grow/never":         0xb6ad097171f831e8,
		"ISVD0/grow/refresh":       0x3a75bd955a774986,
		"ISVD0/grow/redecompose":   0x15969f0a232e8352,
		"ISVD1/stages/default":     0x0b3307504232c24e,
		"ISVD1/stages/never":       0xab7f9fff0f24c453,
		"ISVD1/stages/refresh":     0xa7bae6066f4aa424,
		"ISVD1/stages/redecompose": 0x04a7886f6cc3ccef,
		"ISVD1/wide/default":       0x770d06579d95ee8c,
		"ISVD1/wide/never":         0x770d06579d95ee8c,
		"ISVD1/wide/refresh":       0xbf0606a0868971c9,
		"ISVD1/wide/redecompose":   0x5e74e62d71e0cf07,
		"ISVD1/grow/default":       0x467fac0b8b20e9f4,
		"ISVD1/grow/never":         0xe8b145300451435d,
		"ISVD1/grow/refresh":       0x14ce2c76077ef36d,
		"ISVD1/grow/redecompose":   0x8390aca240f97a72,
		"ISVD4/stages/default":     0x84d089ac4815c40a,
		"ISVD4/stages/never":       0x93834ba974796e7f,
		"ISVD4/stages/refresh":     0x0a06fa611fcd6c8a,
		"ISVD4/stages/redecompose": 0x21ab1d9b9c805b77,
		"ISVD4/wide/default":       0x8c64f08a446d6c34,
		"ISVD4/wide/never":         0x8c64f08a446d6c34,
		"ISVD4/wide/refresh":       0x7613e4bc8d3afdd6,
		"ISVD4/wide/redecompose":   0x01a7628fe1719129,
		"ISVD4/grow/default":       0xb1dcf06f837f576b,
		"ISVD4/grow/never":         0x4e389a9f8d7d7327,
		"ISVD4/grow/refresh":       0x18cf4738efa8d4a6,
		"ISVD4/grow/redecompose":   0xdaca5ef6234c8e58,
	}
	for _, w := range []int{1, 3} {
		parallel.SetWorkers(w)
		for _, method := range []Method{ISVD0, ISVD1, ISVD4} {
			for _, c := range chains {
				base, err := DecomposeSparse(c.base, method, Options{Rank: c.rank, Target: TargetB, Updatable: true})
				if err != nil {
					t.Fatal(err)
				}
				for _, rg := range regimes {
					key := method.String() + "/" + c.name + "/" + rg.name
					h := fnv.New64a()
					var buf [16]byte
					binary.LittleEndian.PutUint64(buf[:8], chainDigest(t, base, c.deltas, rg.opts))
					binary.LittleEndian.PutUint64(buf[8:], stateDigest(t, base, c.deltas, rg.opts))
					h.Write(buf[:])
					if got := h.Sum64(); got != want[key] {
						t.Errorf("%s at %d workers: digest %#x, want %#x", key, w, got, want[key])
					}
				}
			}
		}
	}
}
