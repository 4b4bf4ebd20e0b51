package sparse

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/imatrix"
	"repro/internal/interval"
)

func randomICSR(rows, cols, nnz int, rng *rand.Rand) *ICSR {
	m := imatrix.New(rows, cols)
	for k := 0; k < nnz; k++ {
		i, j := rng.Intn(rows), rng.Intn(cols)
		lo := rng.NormFloat64()
		m.Lo.Set(i, j, lo)
		m.Hi.Set(i, j, lo+rng.Float64())
	}
	return FromIMatrix(m)
}

// applyCellsCase is one batch for ApplyCells: a receiver, the patch and
// tombstone lists, and the error the batch must be rejected with ("" for
// an accepted batch).
type applyCellsCase struct {
	name    string
	a       *ICSR
	patch   []ITriplet
	dead    []Cell
	wantErr string
}

// applyCellsFixture is a small matrix with empty rows, a stored explicit
// zero and cells at both ends, shared by the ApplyCells table tests.
func applyCellsFixture(t *testing.T) *ICSR {
	t.Helper()
	a, err := FromICOO(6, 5, []ITriplet{
		{Row: 0, Col: 0, Lo: 1, Hi: 2},
		{Row: 0, Col: 3, Lo: 0.5, Hi: 0.7},
		{Row: 1, Col: 2, Lo: -1, Hi: 1},
		{Row: 2, Col: 1, Lo: 0, Hi: 0}, // stored explicit zero
		{Row: 3, Col: 0, Lo: 2, Hi: 3},
		{Row: 3, Col: 4, Lo: 4, Hi: 4},
		{Row: 5, Col: 2, Lo: 1, Hi: 1.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// runApplyCells checks each batch against a dense reference — the
// matrix expanded with a stored-cell mask, the patch written in (set
// semantics), the tombstones cleared — or a rejected batch by its error,
// and that the receiver is never mutated.
func runApplyCells(t *testing.T, cases []applyCellsCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := &ICSR{Rows: c.a.Rows, Cols: c.a.Cols, RowPtr: slices.Clone(c.a.RowPtr),
				ColInd: slices.Clone(c.a.ColInd), Lo: slices.Clone(c.a.Lo), Hi: slices.Clone(c.a.Hi)}
			got, err := c.a.ApplyCells(c.patch, c.dead)
			if !reflect.DeepEqual(c.a, before) {
				t.Fatal("ApplyCells mutated its receiver")
			}
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("error %v, want one containing %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want := denseCells(c.a)
			for _, p := range c.patch {
				want[p.Row][p.Col] = &interval.Interval{Lo: p.Lo, Hi: p.Hi}
			}
			for _, d := range c.dead {
				want[d.Row][d.Col] = nil
			}
			if g := denseCells(got); !reflect.DeepEqual(g, want) {
				t.Fatalf("stored cells\n%v\nwant\n%v", g, want)
			}
			if err := got.CheckStructure(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestApplyCells: empty and mixed batches, a wide random batch in
// reverse order, and the batches rejected for a cell in both lists.
func TestApplyCells(t *testing.T) {
	a := applyCellsFixture(t)
	// A wide random batch on a random matrix: every stored cell of
	// rows 1, 4 and 7 tombstoned, every unstored cell of rows 2 and 7
	// and every stored cell of row 5 patched.
	r := randomICSR(9, 7, 30, rand.New(rand.NewSource(41)))
	var rPatch []ITriplet
	var rDead []Cell
	for i := 0; i < r.Rows; i++ {
		cols, _, _ := r.RowView(i)
		stored := map[int]bool{}
		for _, j := range cols {
			stored[j] = true
		}
		for j := 0; j < r.Cols; j++ {
			switch {
			case stored[j] && (i == 1 || i == 4 || i == 7):
				rDead = append(rDead, Cell{Row: i, Col: j})
			case stored[j] && i == 5, !stored[j] && (i == 2 || i == 7):
				rPatch = append(rPatch, ITriplet{Row: i, Col: j, Lo: float64(i), Hi: float64(i + j)})
			}
		}
	}
	if len(rPatch) == 0 || len(rDead) == 0 {
		t.Fatalf("random batch has %d patch cells and %d tombstones; pick another seed", len(rPatch), len(rDead))
	}
	// Reverse both lists: the merge must not depend on input order.
	slices.Reverse(rPatch)
	slices.Reverse(rDead)

	runApplyCells(t, []applyCellsCase{
		{name: "empty", a: a},
		{name: "both", a: a,
			patch: []ITriplet{{Row: 0, Col: 1, Lo: 1, Hi: 1}, {Row: 3, Col: 0, Lo: 9, Hi: 9}, {Row: 4, Col: 4, Lo: 3, Hi: 4}},
			dead:  []Cell{{Row: 0, Col: 0}, {Row: 3, Col: 4}, {Row: 0, Col: 3}, {Row: 5, Col: 2}},
		},
		{name: "random batch", a: r, patch: rPatch, dead: rDead},

		{name: "stored cell in both lists", a: a,
			patch: []ITriplet{{Row: 1, Col: 2, Lo: 3, Hi: 3}}, dead: []Cell{{Row: 1, Col: 2}},
			wantErr: "cell (1, 2) is both patched and tombstoned"},
		{name: "inserted cell in both lists", a: a,
			patch: []ITriplet{{Row: 4, Col: 0, Lo: 3, Hi: 3}}, dead: []Cell{{Row: 4, Col: 0}},
			wantErr: "cell (4, 0) is both patched and tombstoned"},
	})
}

// TestApplyPatchMatchesDense: a patch-only batch equals patching the
// dense expansion cell for cell, for stored and unstored targets, and an
// explicit [0,0] patch is stored, not dropped.
func TestApplyPatchMatchesDense(t *testing.T) {
	runApplyCells(t, []applyCellsCase{
		{name: "patch only", a: applyCellsFixture(t), patch: []ITriplet{
			{Row: 4, Col: 1, Lo: 5, Hi: 6},     // unstored, empty row
			{Row: 0, Col: 3, Lo: -2, Hi: -1},   // over a stored cell
			{Row: 5, Col: 4, Lo: 2.5, Hi: 2.5}, // last cell
			{Row: 1, Col: 0, Lo: 0, Hi: 0},     // explicit observed zero
			{Row: 0, Col: 1, Lo: 7, Hi: 8},     // between stored cells
		}},
	})
}

// TestApplyPatchErrors: a patch cell out of range or listed twice
// rejects the batch.
func TestApplyPatchErrors(t *testing.T) {
	a := applyCellsFixture(t)
	runApplyCells(t, []applyCellsCase{
		{name: "patch row out of range", a: a, patch: []ITriplet{{Row: 6, Col: 0}}, wantErr: "patch cell (6, 0) outside"},
		{name: "patch col negative", a: a, patch: []ITriplet{{Row: 0, Col: -1}}, wantErr: "patch cell (0, -1) outside"},
		{name: "duplicate patch", a: a, patch: []ITriplet{{Row: 1, Col: 1, Lo: 1, Hi: 1}, {Row: 1, Col: 1, Lo: 2, Hi: 2}},
			wantErr: "duplicate patch cell (1, 1)"},
	})
}

// TestApplyUnpatchMatchesDense: a tombstone-only batch clears exactly
// its cells from the dense expansion; a stored explicit zero is
// removable, since storedness, not value, decides.
func TestApplyUnpatchMatchesDense(t *testing.T) {
	runApplyCells(t, []applyCellsCase{
		{name: "tombstones only", a: applyCellsFixture(t), dead: []Cell{
			{Row: 3, Col: 4}, {Row: 2, Col: 1}, // a stored zero is removable
			{Row: 0, Col: 0},
		}},
	})
}

// TestApplyUnpatchErrors: a tombstone out of range, listed twice or for
// a never-inserted cell rejects the batch.
func TestApplyUnpatchErrors(t *testing.T) {
	a := applyCellsFixture(t)
	runApplyCells(t, []applyCellsCase{
		{name: "tombstone row out of range", a: a, dead: []Cell{{Row: 6, Col: 0}}, wantErr: "tombstone cell (6, 0) outside"},
		{name: "tombstone col negative", a: a, dead: []Cell{{Row: 0, Col: -1}}, wantErr: "tombstone cell (0, -1) outside"},
		{name: "duplicate tombstone", a: a, dead: []Cell{{Row: 0, Col: 0}, {Row: 0, Col: 0}}, wantErr: "duplicate tombstone cell (0, 0)"},
		{name: "never-inserted tombstone", a: a, dead: []Cell{{Row: 0, Col: 0}, {Row: 1, Col: 1}}, wantErr: "never-inserted cell (1, 1)"},
	})
}

// denseCells expands a into a dense grid of its stored cells, nil where
// no cell is stored.
func denseCells(a *ICSR) [][]*interval.Interval {
	out := make([][]*interval.Interval, a.Rows)
	for i := range out {
		out[i] = make([]*interval.Interval, a.Cols)
		cols, lo, hi := a.RowView(i)
		for p, j := range cols {
			out[i][j] = &interval.Interval{Lo: lo[p], Hi: hi[p]}
		}
	}
	return out
}

func TestAppendRowsCols(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := randomICSR(6, 8, 20, rng)
	b := randomICSR(3, 8, 10, rng)
	rowsOut, err := AppendRows(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rowsOut.Rows != 9 || rowsOut.Cols != 8 || rowsOut.NNZ() != a.NNZ()+b.NNZ() {
		t.Fatalf("AppendRows shape/nnz wrong: %dx%d nnz %d", rowsOut.Rows, rowsOut.Cols, rowsOut.NNZ())
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 8; j++ {
			if rowsOut.At(i, j) != a.At(i, j) {
				t.Fatalf("AppendRows changed base cell (%d,%d)", i, j)
			}
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 8; j++ {
			if rowsOut.At(6+i, j) != b.At(i, j) {
				t.Fatalf("AppendRows misplaced new cell (%d,%d)", i, j)
			}
		}
	}

	c := randomICSR(6, 4, 9, rng)
	colsOut, err := AppendCols(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if colsOut.Rows != 6 || colsOut.Cols != 12 || colsOut.NNZ() != a.NNZ()+c.NNZ() {
		t.Fatalf("AppendCols shape/nnz wrong: %dx%d nnz %d", colsOut.Rows, colsOut.Cols, colsOut.NNZ())
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 8; j++ {
			if colsOut.At(i, j) != a.At(i, j) {
				t.Fatalf("AppendCols changed base cell (%d,%d)", i, j)
			}
		}
		for j := 0; j < 4; j++ {
			if colsOut.At(i, 8+j) != c.At(i, j) {
				t.Fatalf("AppendCols misplaced new cell (%d,%d)", i, j)
			}
		}
	}

	if _, err := AppendRows(a, c); err == nil {
		t.Error("AppendRows accepted mismatched cols")
	}
	if _, err := AppendCols(a, b); err == nil {
		t.Error("AppendCols accepted mismatched rows")
	}
}
