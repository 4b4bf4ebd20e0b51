package sparse

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Delta application for the streaming paths: an ICSR is immutable in
// this package's kernels, so arriving batches produce a new matrix that
// shares nothing with the old one — the decomposition engine
// (internal/core) can keep serving from the previous matrix while the
// updated one is built. Every operation costs O(NNZ + delta) and is
// entirely serial (index-ordered merges), hence trivially
// deterministic.

// Cell addresses one matrix cell; it is the payload of a tombstone
// record (a deletion has no value, only a position).
type Cell struct {
	Row, Col int
}

// ApplyCells returns a new ICSR with one batch of cell changes merged in
// a single pass. A patched cell's interval becomes exactly [t.Lo, t.Hi]
// (set semantics), whether the cell was stored or not: patching an
// unstored cell inserts it, and patching to [0, 0] stores an explicit
// zero, this package's "observed zero" convention. A tombstoned cell is
// deleted, reverting to "unobserved"; it must be stored in a, since a
// tombstone for a never-inserted cell means the stream and the model
// disagree about history. Both lists may arrive in any order and both
// address a's cells, so a cell may appear in at most one of them, once.
// Out-of-range indices, duplicates within either list, a cell in both
// lists and a tombstone for an unstored cell are errors.
func (a *ICSR) ApplyCells(patch []ITriplet, tombstones []Cell) (*ICSR, error) {
	ps := slices.Clone(patch)
	slices.SortFunc(ps, func(x, y ITriplet) int { return cmpCell(x.Row, x.Col, y.Row, y.Col) })
	ts := slices.Clone(tombstones)
	slices.SortFunc(ts, func(x, y Cell) int { return cmpCell(x.Row, x.Col, y.Row, y.Col) })
	for k, c := range ps {
		if err := a.checkCell("patch", c.Row, c.Col, k > 0 && c.Row == ps[k-1].Row && c.Col == ps[k-1].Col); err != nil {
			return nil, err
		}
	}
	for k, c := range ts {
		if err := a.checkCell("tombstone", c.Row, c.Col, k > 0 && c == ts[k-1]); err != nil {
			return nil, err
		}
	}

	// Tombstones only shrink the output, so NNZ + len(patch) bounds it.
	size := a.NNZ() + len(ps)
	out := &ICSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: make([]int, a.Rows+1),
		ColInd: make([]int, 0, size),
		Lo:     make([]float64, 0, size),
		Hi:     make([]float64, 0, size),
	}
	const none = math.MaxInt
	p, t := 0, 0 // next patch cell, next tombstone
	for i := 0; i < a.Rows; i++ {
		cols, lo, hi := a.RowView(i)
		q := 0 // next stored entry of row i
		for {
			stored, patched, dead := none, none, none
			if q < len(cols) {
				stored = cols[q]
			}
			if p < len(ps) && ps[p].Row == i {
				patched = ps[p].Col
			}
			if t < len(ts) && ts[t].Row == i {
				dead = ts[t].Col
			}
			j := min(stored, patched, dead)
			if j == none {
				break
			}
			switch {
			case j == dead && j == patched:
				return nil, fmt.Errorf("sparse: ApplyCells: cell (%d, %d) is both patched and tombstoned", i, j)
			case j == dead && j != stored:
				return nil, fmt.Errorf("sparse: ApplyCells: tombstone for never-inserted cell (%d, %d)", i, j)
			case j == dead:
				q++
				t++
			case j == patched:
				if j == stored {
					q++ // patched over a stored cell
				}
				out.ColInd = append(out.ColInd, j)
				out.Lo = append(out.Lo, ps[p].Lo)
				out.Hi = append(out.Hi, ps[p].Hi)
				p++
			default:
				out.ColInd = append(out.ColInd, j)
				out.Lo = append(out.Lo, lo[q])
				out.Hi = append(out.Hi, hi[q])
				q++
			}
		}
		out.RowPtr[i+1] = len(out.ColInd)
	}
	return out, nil
}

// cmpCell orders cells row-major.
func cmpCell(i1, j1, i2, j2 int) int { return cmp.Or(cmp.Compare(i1, i2), cmp.Compare(j1, j2)) }

// checkCell validates one entry of a sorted cell list: in range, and
// not a repeat of the entry before it (dup).
func (a *ICSR) checkCell(what string, i, j int, dup bool) error {
	if i < 0 || i >= a.Rows || j < 0 || j >= a.Cols {
		return fmt.Errorf("sparse: ApplyCells: %s cell (%d, %d) outside %dx%d", what, i, j, a.Rows, a.Cols)
	}
	if dup {
		return fmt.Errorf("sparse: ApplyCells: duplicate %s cell (%d, %d)", what, i, j)
	}
	return nil
}

// AppendRows returns [a; b]: b's rows appended below a's. The column
// counts must match.
func AppendRows(a, b *ICSR) (*ICSR, error) {
	if a.Cols != b.Cols {
		return nil, fmt.Errorf("sparse: AppendRows: %d cols below %d cols", b.Cols, a.Cols)
	}
	out := &ICSR{
		Rows:   a.Rows + b.Rows,
		Cols:   a.Cols,
		RowPtr: make([]int, a.Rows+b.Rows+1),
		ColInd: make([]int, 0, a.NNZ()+b.NNZ()),
		Lo:     make([]float64, 0, a.NNZ()+b.NNZ()),
		Hi:     make([]float64, 0, a.NNZ()+b.NNZ()),
	}
	out.ColInd = append(append(out.ColInd, a.ColInd...), b.ColInd...)
	out.Lo = append(append(out.Lo, a.Lo...), b.Lo...)
	out.Hi = append(append(out.Hi, a.Hi...), b.Hi...)
	copy(out.RowPtr, a.RowPtr)
	base := a.NNZ()
	for i := 0; i <= b.Rows; i++ {
		out.RowPtr[a.Rows+i] = base + b.RowPtr[i]
	}
	return out, nil
}

// AppendCols returns [a b]: b's columns appended to the right of a's.
// The row counts must match.
func AppendCols(a, b *ICSR) (*ICSR, error) {
	if a.Rows != b.Rows {
		return nil, fmt.Errorf("sparse: AppendCols: %d rows beside %d rows", b.Rows, a.Rows)
	}
	out := &ICSR{
		Rows:   a.Rows,
		Cols:   a.Cols + b.Cols,
		RowPtr: make([]int, a.Rows+1),
		ColInd: make([]int, 0, a.NNZ()+b.NNZ()),
		Lo:     make([]float64, 0, a.NNZ()+b.NNZ()),
		Hi:     make([]float64, 0, a.NNZ()+b.NNZ()),
	}
	for i := 0; i < a.Rows; i++ {
		cols, lo, hi := a.RowView(i)
		out.ColInd = append(out.ColInd, cols...)
		out.Lo = append(out.Lo, lo...)
		out.Hi = append(out.Hi, hi...)
		bcols, blo, bhi := b.RowView(i)
		for p, j := range bcols {
			out.ColInd = append(out.ColInd, a.Cols+j)
			out.Lo = append(out.Lo, blo[p])
			out.Hi = append(out.Hi, bhi[p])
		}
		out.RowPtr[i+1] = len(out.ColInd)
	}
	return out, nil
}
