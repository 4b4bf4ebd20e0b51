package sparse

import (
	"fmt"
	"math"
	"sort"
)

// Decremental operations for the sliding-window paths (cell tombstones
// merge in with ApplyCells, delta.go). Like the operations in delta.go
// these are serial index-ordered sweeps over the stored entries —
// O(NNZ + delta), immutable inputs, trivially deterministic.

// Scale returns the matrix with every stored endpoint multiplied by
// c, which must be positive and finite so interval order is preserved.
// The immutable index structure is shared with a; the value arrays are
// fresh. Forgetting-factor decay (internal/core Delta.Forget) uses this
// to keep the authoritative matrix consistent with the decayed factor
// states, so a later refresh re-solves the decayed data, not the
// original.
func (a *ICSR) Scale(c float64) (*ICSR, error) {
	if !(c > 0) || math.IsInf(c, 0) {
		return nil, fmt.Errorf("sparse: Scale: factor %v outside (0, +Inf)", c)
	}
	lo := make([]float64, len(a.Lo))
	hi := make([]float64, len(a.Hi))
	for p, v := range a.Lo {
		lo[p] = c * v
	}
	for p, v := range a.Hi {
		hi[p] = c * v
	}
	return &ICSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColInd: a.ColInd, Lo: lo, Hi: hi}, nil
}

// CheckRemovalIndices validates a removal index set against a dimension
// and returns it sorted ascending (a fresh copy; idx is not modified). The set must be non-empty, in range,
// duplicate-free, and strictly smaller than the dimension (removing
// every row or column leaves no matrix).
func CheckRemovalIndices(op string, idx []int, dim int) ([]int, error) {
	if len(idx) == 0 {
		return nil, fmt.Errorf("sparse: %s: empty index set", op)
	}
	if len(idx) >= dim {
		return nil, fmt.Errorf("sparse: %s: removing %d of %d", op, len(idx), dim)
	}
	sorted := make([]int, len(idx))
	copy(sorted, idx)
	sort.Ints(sorted)
	for k, i := range sorted {
		if i < 0 || i >= dim {
			return nil, fmt.Errorf("sparse: %s: index %d outside [0, %d)", op, i, dim)
		}
		if k > 0 && i == sorted[k-1] {
			return nil, fmt.Errorf("sparse: %s: duplicate index %d", op, i)
		}
	}
	return sorted, nil
}

// RemoveRows returns a new ICSR with the given rows deleted; surviving
// rows keep their relative order (row i > removed rows shifts up by the
// number of removed rows before it). Indices may arrive in any order;
// duplicates, out-of-range indices, and removing every row are errors.
func (a *ICSR) RemoveRows(idx []int) (*ICSR, error) {
	sorted, err := CheckRemovalIndices("RemoveRows", idx, a.Rows)
	if err != nil {
		return nil, err
	}
	out := &ICSR{
		Rows:   a.Rows - len(sorted),
		Cols:   a.Cols,
		RowPtr: make([]int, a.Rows-len(sorted)+1),
		ColInd: make([]int, 0, a.NNZ()),
		Lo:     make([]float64, 0, a.NNZ()),
		Hi:     make([]float64, 0, a.NNZ()),
	}
	p, r := 0, 0 // next removal index, next output row
	for i := 0; i < a.Rows; i++ {
		if p < len(sorted) && sorted[p] == i {
			p++
			continue
		}
		cols, lo, hi := a.RowView(i)
		out.ColInd = append(out.ColInd, cols...)
		out.Lo = append(out.Lo, lo...)
		out.Hi = append(out.Hi, hi...)
		r++
		out.RowPtr[r] = len(out.ColInd)
	}
	return out, nil
}

// RemoveCols returns a new ICSR with the given columns deleted;
// surviving columns keep their relative order and shift left past the
// removed ones. Same index validation as RemoveRows.
func (a *ICSR) RemoveCols(idx []int) (*ICSR, error) {
	sorted, err := CheckRemovalIndices("RemoveCols", idx, a.Cols)
	if err != nil {
		return nil, err
	}
	// shift[j] = number of removed columns <= j; removed columns are
	// marked with -1.
	shift := make([]int, a.Cols)
	p, n := 0, 0
	for j := 0; j < a.Cols; j++ {
		if p < len(sorted) && sorted[p] == j {
			shift[j] = -1
			p++
			n++
			continue
		}
		shift[j] = n
	}
	out := &ICSR{
		Rows:   a.Rows,
		Cols:   a.Cols - len(sorted),
		RowPtr: make([]int, a.Rows+1),
		ColInd: make([]int, 0, a.NNZ()),
		Lo:     make([]float64, 0, a.NNZ()),
		Hi:     make([]float64, 0, a.NNZ()),
	}
	for i := 0; i < a.Rows; i++ {
		cols, lo, hi := a.RowView(i)
		for q, j := range cols {
			if shift[j] < 0 {
				continue
			}
			out.ColInd = append(out.ColInd, j-shift[j])
			out.Lo = append(out.Lo, lo[q])
			out.Hi = append(out.Hi, hi[q])
		}
		out.RowPtr[i+1] = len(out.ColInd)
	}
	return out, nil
}
