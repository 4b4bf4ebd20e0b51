package core

import (
	"fmt"

	"repro/internal/eig"
	"repro/internal/imatrix"
	"repro/internal/matrix"
	"repro/internal/sparse"
)

// Persistence support for the crash-safe model store (internal/store):
// an updatable decomposition is a pure function of its retained engine
// state — the resolved options, the authoritative sparse matrix, the
// per-side factor triples, and the accumulated residual budget — so
// exporting exactly those fields (plus the published factors) and
// re-importing them yields a decomposition that serves bitwise-identical
// predictions and, crucially, absorbs future Update calls
// bitwise-identically to the original chain. That equivalence is what
// lets a restarted server recover by snapshot-load + write-ahead-log
// replay instead of redecomposing.

// PersistentState is the complete serializable image of an updatable
// decomposition. Every field is required except the factor-state sides,
// where exactly one of Mid (ISVD0) or the Lo/Hi pair (ISVD1-4) is set,
// and the diagnostics slices, which may be nil. The fields share storage
// with the decomposition they were exported from; treat them as
// read-only. Timings are not persisted — they are wall-clock
// diagnostics, zero on import.
type PersistentState struct {
	Method Method
	// Opts is the resolved decompose-time option set (rank clamped,
	// thresholds defaulted) that Update uses as its base configuration.
	Opts Options

	// Published interval factors: U is n×r, Sigma r×r, V m×r.
	U, Sigma, V *imatrix.IMatrix

	// Alignment diagnostics (Figures 3 and 5); nil slices allowed.
	CosVUnaligned  []float64
	CosVAligned    []float64
	CosURecovered  []float64
	CosVRecomputed []float64

	// Update-engine state: the authoritative sparse matrix, the per-side
	// endpoint factor states, and the accumulated relative discarded
	// singular mass since the last refresh.
	M           *sparse.ICSR
	Lo, Hi, Mid *eig.SVDResult
	ResAcc      float64
}

// ExportState returns the serializable image of an updatable
// decomposition. The returned struct shares storage with d (no copies);
// callers must treat it as read-only. Decompositions produced without
// Options.Updatable carry no engine state and cannot be exported.
func (d *Decomposition) ExportState() (*PersistentState, error) {
	if d.state == nil {
		return nil, fmt.Errorf("core: ExportState: decomposition carries no update state (decompose with Options.Updatable)")
	}
	return &PersistentState{
		Method:         d.Method,
		Opts:           d.state.opts,
		U:              d.U,
		Sigma:          d.Sigma,
		V:              d.V,
		CosVUnaligned:  d.CosVUnaligned,
		CosVAligned:    d.CosVAligned,
		CosURecovered:  d.CosURecovered,
		CosVRecomputed: d.CosVRecomputed,
		M:              d.state.m,
		Lo:             d.state.lo,
		Hi:             d.state.hi,
		Mid:            d.state.mid,
		ResAcc:         d.state.resAcc,
	}, nil
}

// ImportState rebuilds an updatable decomposition from its exported
// image, validating every structural invariant the engine depends on so
// a corrupted or adversarial image is rejected with an error instead of
// corrupting later updates. The imported decomposition takes ownership
// of the state's storage (which may be read-only memory, e.g. a
// memory-mapped snapshot: neither serving nor Update ever writes to the
// imported planes).
func ImportState(ps *PersistentState) (*Decomposition, error) {
	if ps == nil {
		return nil, fmt.Errorf("core: ImportState: nil state")
	}
	if ps.Method < ISVD0 || ps.Method > ISVD4 {
		return nil, fmt.Errorf("core: ImportState: unknown method %v", ps.Method)
	}
	if ps.M == nil {
		return nil, fmt.Errorf("core: ImportState: missing sparse matrix")
	}
	if err := ps.M.CheckStructure(); err != nil {
		return nil, fmt.Errorf("core: ImportState: matrix: %w", err)
	}
	if err := ValidateSparseInput(ps.M); err != nil {
		return nil, fmt.Errorf("core: ImportState: matrix: %w", err)
	}
	n, m := ps.M.Rows, ps.M.Cols
	r := ps.Opts.Rank
	maxRank := n
	if m < maxRank {
		maxRank = m
	}
	if r < 1 || r > maxRank {
		return nil, fmt.Errorf("core: ImportState: rank %d outside 1..%d", r, maxRank)
	}
	if ps.Opts.Target < TargetA || ps.Opts.Target > TargetC {
		return nil, fmt.Errorf("core: ImportState: unknown target %v", ps.Opts.Target)
	}
	if !ps.Opts.Updatable {
		return nil, fmt.Errorf("core: ImportState: options lost the Updatable flag")
	}
	if err := checkIMatrixShape("U", ps.U, n, r); err != nil {
		return nil, err
	}
	if err := checkIMatrixShape("Sigma", ps.Sigma, r, r); err != nil {
		return nil, err
	}
	if err := checkIMatrixShape("V", ps.V, m, r); err != nil {
		return nil, err
	}
	if ps.Method == ISVD0 {
		if ps.Mid == nil || ps.Lo != nil || ps.Hi != nil {
			return nil, fmt.Errorf("core: ImportState: ISVD0 wants exactly the mid factor state")
		}
		if err := checkFactorState("mid", ps.Mid, n, m); err != nil {
			return nil, err
		}
	} else {
		if ps.Mid != nil || ps.Lo == nil || ps.Hi == nil {
			return nil, fmt.Errorf("core: ImportState: %v wants exactly the lo/hi factor states", ps.Method)
		}
		if err := checkFactorState("lo", ps.Lo, n, m); err != nil {
			return nil, err
		}
		if err := checkFactorState("hi", ps.Hi, n, m); err != nil {
			return nil, err
		}
	}
	for _, diag := range []struct {
		name string
		s    []float64
	}{
		{"CosVUnaligned", ps.CosVUnaligned},
		{"CosVAligned", ps.CosVAligned},
		{"CosURecovered", ps.CosURecovered},
		{"CosVRecomputed", ps.CosVRecomputed},
	} {
		if len(diag.s) > maxRank {
			return nil, fmt.Errorf("core: ImportState: %s has %d entries, rank is %d", diag.name, len(diag.s), r)
		}
	}
	return &Decomposition{
		Method:         ps.Method,
		Target:         ps.Opts.Target,
		Rank:           r,
		U:              ps.U,
		Sigma:          ps.Sigma,
		V:              ps.V,
		ExactAlgebra:   ps.Opts.ExactAlgebra,
		CosVUnaligned:  ps.CosVUnaligned,
		CosVAligned:    ps.CosVAligned,
		CosURecovered:  ps.CosURecovered,
		CosVRecomputed: ps.CosVRecomputed,
		state: &updState{
			opts:   ps.Opts,
			m:      ps.M,
			sides:  sides{lo: ps.Lo, hi: ps.Hi, mid: ps.Mid},
			resAcc: ps.ResAcc,
		},
	}, nil
}

// checkIMatrixShape validates one published interval factor.
func checkIMatrixShape(name string, im *imatrix.IMatrix, rows, cols int) error {
	if im == nil || im.Lo == nil || im.Hi == nil {
		return fmt.Errorf("core: ImportState: missing factor %s", name)
	}
	check := func(side string, d *matrix.Dense) error {
		if d.Rows != rows || d.Cols != cols {
			return fmt.Errorf("core: ImportState: factor %s.%s is %dx%d, want %dx%d", name, side, d.Rows, d.Cols, rows, cols)
		}
		if len(d.Data) != rows*cols {
			return fmt.Errorf("core: ImportState: factor %s.%s carries %d values, want %d", name, side, len(d.Data), rows*cols)
		}
		return nil
	}
	if err := check("lo", im.Lo); err != nil {
		return err
	}
	return check("hi", im.Hi)
}

// checkFactorState validates one endpoint factor triple of the update
// engine: U n×k and V m×k with k = len(S), k at least 1 and at most
// min(n, m).
func checkFactorState(name string, f *eig.SVDResult, n, m int) error {
	if f.U == nil || f.V == nil {
		return fmt.Errorf("core: ImportState: factor state %s is missing U or V", name)
	}
	k := len(f.S)
	minDim := n
	if m < minDim {
		minDim = m
	}
	if k < 1 || k > minDim {
		return fmt.Errorf("core: ImportState: factor state %s keeps %d singular values, want 1..%d", name, k, minDim)
	}
	if f.U.Rows != n || f.U.Cols != k || len(f.U.Data) != n*k {
		return fmt.Errorf("core: ImportState: factor state %s.U is %dx%d (%d values), want %dx%d", name, f.U.Rows, f.U.Cols, len(f.U.Data), n, k)
	}
	if f.V.Rows != m || f.V.Cols != k || len(f.V.Data) != m*k {
		return fmt.Errorf("core: ImportState: factor state %s.V is %dx%d (%d values), want %dx%d", name, f.V.Rows, f.V.Cols, len(f.V.Data), m, k)
	}
	return nil
}
