package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/eig"
	"repro/internal/matrix"
	"repro/internal/sparse"
	"repro/internal/update"
)

// Incremental factor updates: a decomposition produced with
// Options.Updatable retains the truncated endpoint factor states (the
// per-side U, Σ, V of the endpoint matrices) plus an authoritative
// sparse copy of the input, and Update folds an arriving batch — new
// rows, new columns, or a sparse cell patch — into those states with the
// Brand-style low-rank updates of internal/update, then re-runs the
// method's align/solve/construct stages from the factors. Per batch that
// costs O((n+m)·r·c + (r+c)³) for the factor fold plus the method's
// factor-sized downstream work (ISVD3/4 additionally pay one O(NNZ·r)
// interval product for the U† recovery), instead of a full
// re-decomposition's many O(NNZ·r) solver sweeps.
//
// Each additive update discards singular mass when the batch pushes
// content past the kept rank; the engine accumulates the discarded
// fraction and schedules a warm-started re-solve (eig.GramSVD seeded
// with the current factors — one or two truncated sweeps on drifted
// data) when the running total exceeds
// Options.RefreshBudget. The additive path, the refresh
// path, and the downstream stages all run on the deterministic kernels,
// so updated decompositions are bitwise identical for any worker count.

// defaultRefreshBudget is the Options.RefreshBudget default threshold
// on the accumulated relative discarded singular mass: 1% of the
// spectrum's Frobenius norm keeps reconstruction drift well under
// typical evaluation tolerances while letting many small batches
// through between refreshes.
const defaultRefreshBudget = 0.01

// defaultOrthoBudget is the Options.OrthoBudget default: factor states
// whose ‖QᵀQ−I‖∞ drifts past it are rebuilt with a full windowed
// redecompose. It sits an order of magnitude above eigensolver rounding
// noise and two below the engine's 1e-6 agreement contract.
const defaultOrthoBudget = 1e-8

// ErrPoisoned marks an update whose factors came out non-finite
// (NaN/Inf). Update never returns such factors: the error leaves the
// previous functional decomposition serving, so a poisoned state is
// never published or persisted.
var ErrPoisoned = errors.New("core: update produced non-finite factors")

// Delta is a batch modification to a decomposed matrix. Any combination
// of the fields may be set; they apply in order Forget, AppendRows,
// AppendCols, Patch, Unpatch, RemoveRows, RemoveCols. Patch, Unpatch,
// and the removal index sets all address the post-append shape (and the
// removals run last, so their indices are stable against everything
// else in the same batch) — the natural sliding-window order: decay old
// evidence, admit the new slice, then expire the old one. Patch and
// Unpatch address disjoint cells of the same matrix, and the stored
// matrix takes both in one merge (sparse.ICSR.ApplyCells). A tombstone
// is a cell patch of the negated stored value; when Patch and Unpatch
// are both wide (see update.Wide) they fold into one signed Brand step
// per factor side, otherwise each takes its own step.
type Delta struct {
	// Forget, when in (0, 1), is the exponential forgetting factor λ:
	// the retained singular values and the stored matrix are scaled by
	// λ before the other stages, so older evidence decays by λ per
	// batch. Zero means no forgetting; λ = 1 is pinned as a bitwise
	// no-op (no multiply runs anywhere).
	Forget float64
	// AppendRows appends new rows at the bottom (c×cols).
	AppendRows *sparse.ICSR
	// AppendCols appends new columns at the right ((rows+appended)×c).
	AppendCols *sparse.ICSR
	// Patch sets cells to new interval values (absolute set semantics —
	// the engine derives the additive factor delta from the stored
	// values). Duplicate cells within one batch are an error.
	Patch []sparse.ITriplet
	// Unpatch reverts cells to unobserved zero (tombstones). Every cell
	// must be stored before the delta — a tombstone for a
	// never-inserted cell is an error — and may not appear twice, nor
	// in Patch as well.
	Unpatch []sparse.Cell
	// RemoveRows deletes rows (post-append indices, any order);
	// surviving rows shift up. Duplicates and removing every row are
	// errors.
	RemoveRows []int
	// RemoveCols deletes columns (post-append indices); surviving
	// columns shift left.
	RemoveCols []int
}

func (dl Delta) empty() bool {
	return dl.Forget == 0 && dl.AppendRows == nil && dl.AppendCols == nil &&
		len(dl.Patch) == 0 && len(dl.Unpatch) == 0 &&
		len(dl.RemoveRows) == 0 && len(dl.RemoveCols) == 0
}

// updState is the retained engine state of an updatable decomposition:
// the authoritative sparse matrix, the per-side truncated factor states,
// and the accumulated refresh-budget use. States are functional — every
// Update builds a new one — so an old Decomposition keeps serving while
// (or after) an updated one is built.
type updState struct {
	opts Options      // resolved decompose options (rank, target, solver…)
	m    *sparse.ICSR // current matrix
	sides
	// resAcc is the accumulated relative discarded singular mass since
	// the last refresh (what Options.RefreshBudget bounds).
	resAcc float64

	// Health counters (see Decomposition.Health). These are advisory
	// diagnostics: no escalation decision reads them — decisions depend
	// only on resAcc, the factors, the delta, and the per-call options,
	// all of which survive persistence — so WAL replay reproduces the
	// same refresh actions bitwise even though the counters restart at
	// zero on recovery.
	updates             int    // updates absorbed since decompose/import
	updatesSinceRefresh int    // updates since the last warm or full refresh
	refreshes           int    // warm-started truncated refreshes (ladder level 1)
	redecomposes        int    // full windowed redecomposes (ladder level 2)
	lastEscalation      string // "", "refresh", or "redecompose"
	lastReason          string // human-readable trigger of the last escalation
}

// sides holds the maintained factor states of an updatable
// decomposition: mid alone for ISVD0, the lo/hi endpoint pair for
// ISVD1-4.
type sides struct {
	lo, hi, mid *eig.SVDResult
}

// step applies one batch stage to every maintained side — mid alone,
// or the lo/hi pair concurrently on the pool (pairSides, which names
// the failing side) — and returns the stepped sides with each side's
// discarded mass, indexed by side. On error the sides are not usable.
func (s sides) step(workers int, stage func(f *eig.SVDResult, side int) (*eig.SVDResult, float64, error)) (next sides, disc [3]float64, err error) {
	if s.mid != nil {
		next.mid, disc[sideMid], err = stage(s.mid, sideMid)
	} else {
		err = pairSides(workers,
			func() (err error) { next.lo, disc[sideLo], err = stage(s.lo, sideLo); return err },
			func() (err error) { next.hi, disc[sideHi], err = stage(s.hi, sideHi); return err },
		)
	}
	return next, disc, err
}

// sideHealth is the numerical health of the maintained sides.
type sideHealth struct {
	drift float64 // worst ‖QᵀQ−I‖∞ of any factor (update.FactorDrift)
	cond  float64 // worst σ₁/σ_min over the non-zero retained values; 0 if none
	bad   string  // first side holding a NaN or Inf ("mid", "min", "max"), or ""
	err   error   // bad's update.CheckFinite error
}

// health measures every maintained side, in the order mid, lo, hi. It
// is the one check behind the additive gate, the warm-refresh and
// redecompose verifications, and Decomposition.Health.
func (s sides) health() (h sideHealth) {
	for _, sd := range [...]struct {
		name string
		f    *eig.SVDResult
	}{{"mid", s.mid}, {"min", s.lo}, {"max", s.hi}} {
		if sd.f == nil {
			continue
		}
		if h.err == nil {
			if err := update.CheckFinite(sd.f); err != nil {
				h.bad, h.err = sd.name, err
			}
		}
		h.drift = math.Max(h.drift, update.FactorDrift(sd.f))
		if len(sd.f.S) > 0 && sd.f.S[0] > 0 {
			if smin := update.SigmaMinNonzero(sd.f.S); smin > 0 {
				h.cond = math.Max(h.cond, sd.f.S[0]/smin)
			}
		}
	}
	return h
}

// Updatable reports whether this decomposition retains the incremental
// engine state (it was produced with Options.Updatable, or by Update).
func (d *Decomposition) Updatable() bool { return d.state != nil }

// validateUpdatable rejects Updatable configurations the factor-state
// engine cannot serve: exact interval algebra (the state pipeline runs
// the endpoint min/max kernels), and ISVD2-4 on data with negative
// endpoints — the interval Gram then does not separate into the
// per-endpoint Grams the factor states represent.
// nonNegative is queried lazily, only for the configurations that need
// the O(m·n) endpoint scan (Updatable ISVD2-4).
func validateUpdatable(method Method, opts Options, nonNegative func() bool) error {
	if !opts.Updatable {
		return nil
	}
	if opts.ExactAlgebra {
		return fmt.Errorf("core: Updatable requires endpoint algebra (ExactAlgebra is unsupported)")
	}
	if method >= ISVD2 && method <= ISVD4 && !nonNegative() {
		return fmt.Errorf("core: Updatable %v requires entrywise non-negative endpoints (the interval Gram must separate per endpoint); use ISVD0/ISVD1 or drop Updatable", method)
	}
	return nil
}

// captureState records the incremental engine state on d. Factors are
// deep-cloned: the pipeline mutates the hi side in place during ILSA,
// and callers own the returned Decomposition.
func captureState(d *Decomposition, op operand, opts Options, lo, hi, mid *eig.SVDResult) {
	st := &updState{opts: opts, m: op.toICSR()}
	if mid != nil {
		st.mid = sanitizeState(cloneSVD(mid))
	}
	if lo != nil {
		st.lo = sanitizeState(cloneSVD(lo))
	}
	if hi != nil {
		st.hi = sanitizeState(cloneSVD(hi))
	}
	d.state = st
}

// stateSigmaTol clamps captured singular values below stateSigmaTol
// times the largest to zero: a rank-r truncation of lower-rank data
// leaves eigen-rounding noise in the trailing values — Gram eigenvalues
// carry ~eps·λ₁ absolute noise, so their square roots sit at ~√eps·σ₁ ≈
// 1.5e-8·σ₁ — and ISVD2-4's U recovery divides by them, producing
// garbage non-orthogonal factor columns. The update engine's invariant
// is "factor columns are orthonormal or exactly zero per zero singular
// value", so noise-level triples are zeroed on capture; the cut sits an
// order of magnitude above the noise floor and an order below the
// engine's 1e-6 agreement contract.
const stateSigmaTol = 1e-7

// sanitizeState enforces the update-engine factor invariant on a freshly
// captured state, in place: singular values at rounding-noise level
// become exactly zero along with their U and V columns.
//
//ivmf:deterministic
func sanitizeState(f *eig.SVDResult) *eig.SVDResult {
	var smax float64
	for _, s := range f.S {
		if s > smax {
			smax = s
		}
	}
	for j, s := range f.S {
		if s > stateSigmaTol*smax {
			continue
		}
		f.S[j] = 0
		for i := 0; i < f.U.Rows; i++ {
			f.U.Data[i*f.U.Cols+j] = 0
		}
		for i := 0; i < f.V.Rows; i++ {
			f.V.Data[i*f.V.Cols+j] = 0
		}
	}
	return f
}

// cloneSVD deep-copies a factor triple; Truncate at full rank is
// already documented as a fully independent copy.
func cloneSVD(f *eig.SVDResult) *eig.SVDResult { return f.Truncate(len(f.S)) }

// Update folds a batch delta into this updatable decomposition: the
// sparse matrix copy absorbs the delta, the endpoint factor states take
// a Brand-style low-rank update (or a warm-started truncated re-solve,
// once the accumulated residual exceeds opts.RefreshBudget), and the
// method's align/solve/construct stages re-run from the factors. The
// receiver is not modified — it keeps serving — and the returned
// decomposition carries the advanced state for the next batch.
//
// opts controls the update step only: RefreshBudget and OrthoBudget
// set the escalation thresholds, Workers bounds this update's fan-outs
// (zero falls back to the decompose-time setting). The structural
// options — Rank, Target, Assign, Solver, thresholds — are fixed at
// decompose time and ignored here.
//
//ivmf:deterministic
func (d *Decomposition) Update(delta Delta, opts Options) (*Decomposition, error) {
	st := d.state
	if st == nil {
		return nil, fmt.Errorf("core: Update: decomposition does not carry update state (decompose with Options.Updatable)")
	}
	base := st.opts
	workers := opts.Workers
	if workers == 0 {
		workers = base.Workers
	}
	budget := opts.RefreshBudget
	if budget == 0 {
		budget = defaultRefreshBudget
	}
	orthoBudget := opts.OrthoBudget
	if orthoBudget == 0 {
		orthoBudget = defaultOrthoBudget
	}
	if delta.empty() {
		return nil, fmt.Errorf("core: Update: empty delta")
	}
	if err := validateDelta(d.Method, delta); err != nil {
		return nil, fmt.Errorf("core: Update: %w", err)
	}
	// The window must not shrink below the decompose-time rank: the
	// factor states keep up to Rank directions and every downstream
	// stage sizes against it.
	rows2, cols2 := d.state.m.Rows, d.state.m.Cols
	if delta.AppendRows != nil {
		rows2 += delta.AppendRows.Rows
	}
	if delta.AppendCols != nil {
		cols2 += delta.AppendCols.Cols
	}
	rows2 -= len(delta.RemoveRows)
	cols2 -= len(delta.RemoveCols)
	if rows2 < d.state.opts.Rank || cols2 < d.state.opts.Rank {
		return nil, fmt.Errorf("core: Update: delta shrinks the matrix to %dx%d, below rank %d", rows2, cols2, d.state.opts.Rank)
	}

	m2 := st.m
	cur := st.sides
	resAcc := st.resAcc
	rank := base.Rank

	// account folds one side's discarded mass into the running budget as
	// a fraction of that side's spectral Frobenius norm.
	account := func(f *eig.SVDResult, disc float64) {
		if disc == 0 {
			return
		}
		var norm float64
		for _, s := range f.S {
			norm += s * s
		}
		if norm == 0 {
			resAcc = math.Inf(1)
			return
		}
		resAcc += disc / math.Sqrt(norm)
	}

	// sideUpdate applies one batch stage to every maintained factor side
	// and charges each side's discarded mass, lo before hi.
	sideUpdate := func(stage func(f *eig.SVDResult, side int) (*eig.SVDResult, float64, error)) error {
		next, disc, err := cur.step(workers, stage)
		if err != nil {
			return err
		}
		for side, f := range [...]*eig.SVDResult{sideLo: next.lo, sideHi: next.hi, sideMid: next.mid} {
			if f != nil {
				account(f, disc[side])
			}
		}
		cur = next
		return nil
	}

	if lam := delta.Forget; lam != 0 {
		if math.IsNaN(lam) || lam <= 0 || lam > 1 {
			return nil, fmt.Errorf("core: Update: forgetting factor %v outside (0, 1]", lam)
		}
		// λ = 1 is pinned as a bitwise no-op: no multiply runs against
		// either the matrix or the factors.
		if lam != 1 {
			next, err := m2.Scale(lam)
			if err != nil {
				return nil, fmt.Errorf("core: Update: %w", err)
			}
			if err := sideUpdate(func(f *eig.SVDResult, side int) (*eig.SVDResult, float64, error) {
				nf, err := update.Forget(f, lam)
				return nf, 0, err
			}); err != nil {
				return nil, fmt.Errorf("core: Update: forget: %w", err)
			}
			m2 = next
		}
	}
	if delta.AppendRows != nil {
		b := delta.AppendRows
		if err := ValidateSparseInput(b); err != nil {
			return nil, fmt.Errorf("core: Update: appended rows: %w", err)
		}
		next, err := sparse.AppendRows(m2, b)
		if err != nil {
			return nil, fmt.Errorf("core: Update: %w", err)
		}
		if err := sideUpdate(func(f *eig.SVDResult, side int) (*eig.SVDResult, float64, error) {
			return update.AppendRows(f, sideDense(b, side), rank)
		}); err != nil {
			return nil, fmt.Errorf("core: Update: append rows: %w", err)
		}
		m2 = next
	}
	if delta.AppendCols != nil {
		b := delta.AppendCols
		if err := ValidateSparseInput(b); err != nil {
			return nil, fmt.Errorf("core: Update: appended cols: %w", err)
		}
		next, err := sparse.AppendCols(m2, b)
		if err != nil {
			return nil, fmt.Errorf("core: Update: %w", err)
		}
		if err := sideUpdate(func(f *eig.SVDResult, side int) (*eig.SVDResult, float64, error) {
			return update.AppendCols(f, sideDense(b, side), rank)
		}); err != nil {
			return nil, fmt.Errorf("core: Update: append cols: %w", err)
		}
		m2 = next
	}
	// Cell stages: arrivals and tombstones are both additive cell
	// deltas, so every cell step is a CellPatch. A wide slide folds the
	// two halves into one signed step per side, arrivals then
	// tombstones; otherwise the patch and the unpatch each take their
	// own step.
	if len(delta.Patch) > 0 || len(delta.Unpatch) > 0 {
		next, arrive, expire, err := cellDeltas(m2, delta, cur.mid != nil)
		if err != nil {
			return nil, err
		}
		// cellStep runs one CellPatch of cells(side) on every maintained
		// side.
		cellStep := func(what string, cells func(side int) []sparse.Triplet) error {
			if err := sideUpdate(func(f *eig.SVDResult, side int) (*eig.SVDResult, float64, error) {
				return update.CellPatch(f, cells(side), rank)
			}); err != nil {
				return fmt.Errorf("core: Update: %s: %w", what, err)
			}
			return nil
		}
		if len(delta.Patch) > 0 && len(delta.Unpatch) > 0 && slideMerges(cur, arrive, expire, rank) {
			err = cellStep("slide", func(side int) []sparse.Triplet { return slices.Concat(arrive[side], expire[side]) })
		} else {
			if len(delta.Patch) > 0 {
				err = cellStep("patch", func(side int) []sparse.Triplet { return arrive[side] })
			}
			if err == nil && len(delta.Unpatch) > 0 {
				err = cellStep("unpatch", func(side int) []sparse.Triplet { return expire[side] })
			}
		}
		if err != nil {
			return nil, err
		}
		m2 = next
	}

	// Removal stages. A removal whose cancellation leaves the removed
	// rows or columns in the factors (update.ErrIllConditioned) damages
	// the factor states but not the data, so instead of failing the
	// update the additive chain is abandoned (dead): the remaining
	// stages apply to the matrix only and the update escalates straight
	// to a full windowed redecompose from the final matrix. This is the
	// "route through the refresh machinery instead of returning
	// garbage" guarantee, and it holds even under an infinite
	// RefreshBudget — that disables budget-driven refreshes, not the
	// guardrails.
	dead := false
	deadReason := ""
	downdate := func(what string, apply func() error) error {
		if dead {
			return nil
		}
		err := apply()
		if err == nil {
			return nil
		}
		if errors.Is(err, update.ErrIllConditioned) {
			dead = true
			deadReason = fmt.Sprintf("%s: %v", what, err)
			return nil
		}
		return fmt.Errorf("core: Update: %s: %w", what, err)
	}

	if len(delta.RemoveRows) > 0 {
		next, err := m2.RemoveRows(delta.RemoveRows)
		if err != nil {
			return nil, fmt.Errorf("core: Update: %w", err)
		}
		if err := downdate("remove rows", func() error {
			return sideUpdate(func(f *eig.SVDResult, side int) (*eig.SVDResult, float64, error) {
				return update.RemoveRows(f, delta.RemoveRows, rank)
			})
		}); err != nil {
			return nil, err
		}
		m2 = next
	}
	if len(delta.RemoveCols) > 0 {
		next, err := m2.RemoveCols(delta.RemoveCols)
		if err != nil {
			return nil, fmt.Errorf("core: Update: %w", err)
		}
		if err := downdate("remove cols", func() error {
			return sideUpdate(func(f *eig.SVDResult, side int) (*eig.SVDResult, float64, error) {
				return update.RemoveCols(f, delta.RemoveCols, rank)
			})
		}); err != nil {
			return nil, err
		}
		m2 = next
	}

	// Numerical-health gate on the additive result, the engine's one
	// drift guardrail: a non-finite factor must never be published — the
	// typed ErrPoisoned leaves the previous functional decomposition
	// serving — and the orthogonality drift of every step's output,
	// inherited or caused, is measured here once against OrthoBudget.
	drift := 0.0
	if !dead {
		h := cur.health()
		if h.err != nil {
			return nil, fmt.Errorf("core: Update: %s side: %w: %v", h.bad, ErrPoisoned, h.err)
		}
		drift = h.drift
	}

	// Escalation ladder: additive (level 0) → warm-started truncated
	// refresh (level 1) → full windowed redecompose (level 2). The
	// triggers are monotone in severity — a spent refresh budget
	// requests level 1 (every update, when the budget is negative, since
	// resAcc >= 0); hard numerical damage (a removal left in the
	// factors, orthogonality drift past OrthoBudget, an unhealthy warm
	// result) requests level 2 — and deterministic: they read only
	// resAcc, the factor states, the delta, and the per-call options,
	// all of which survive persistence, so WAL replay re-derives
	// identical escalations.
	level, reason := 0, ""
	switch {
	case dead:
		level, reason = 2, deadReason
	case drift > orthoBudget:
		level, reason = 2, fmt.Sprintf("orthogonality drift %.3g exceeds budget %.3g", drift, orthoBudget)
	case resAcc > budget:
		level, reason = 1, fmt.Sprintf("accumulated discarded mass %.3g exceeds budget %.3g", resAcc, budget)
	}
	warmed := false
	if level == 1 {
		// The refresh re-decomposes each factor side from the updated
		// matrix on its smaller-side Gram (eig.GramSVD), seeded with the
		// current factors: on drifted data the warm-started truncated
		// solver converges in a sweep or two; when it is not routed or
		// does not converge (a flat spectrum, as on ratings data) the
		// full SymEig of the k×k Gram, built from the CSR, takes over.
		// The side is never densified. Like a capture, the refresh zeros
		// the noise-level triples a Gram solve leaves past the data's
		// rank (sanitizeState); unzeroed, their recovered columns are
		// not orthonormal and the health gate below would escalate.
		next, _, err := cur.step(workers, func(f *eig.SVDResult, side int) (*eig.SVDResult, float64, error) {
			nf, err := eig.GramSVD(sparse.NewOperator(sideCSR(m2, side)), rank, base.Solver,
				eig.Options{StartU: f.U, StartV: f.V})
			if err != nil {
				return nil, 0, err
			}
			return sanitizeState(nf), 0, nil
		})
		if err != nil {
			level, reason = 2, fmt.Sprintf("warm refresh failed: %v", err)
		} else {
			cur, warmed, resAcc = next, true, 0
			// Verify the warm result; an unhealthy refresh escalates to
			// the full redecompose instead of being published.
			if h := cur.health(); h.err != nil {
				level, reason = 2, fmt.Sprintf("warm refresh unhealthy: %v", h.err)
			} else if h.drift > orthoBudget {
				level, reason = 2, fmt.Sprintf("warm refresh drift %.3g exceeds budget %.3g", h.drift, orthoBudget)
			}
		}
	}

	// advanceHealth carries the chain's health counters onto the
	// updated decomposition (d2's freshly captured state starts at
	// zero). Counters are advisory; no decision above read them.
	advanceHealth := func(d2 *Decomposition) {
		s2 := d2.state
		s2.updates = st.updates + 1
		if level > 0 {
			s2.updatesSinceRefresh = 0
		} else {
			s2.updatesSinceRefresh = st.updatesSinceRefresh + 1
		}
		s2.refreshes = st.refreshes
		s2.redecomposes = st.redecomposes
		s2.lastEscalation, s2.lastReason = st.lastEscalation, st.lastReason
		if warmed {
			s2.refreshes++
			s2.lastEscalation, s2.lastReason = "refresh", reason
		}
		if level == 2 {
			s2.redecomposes++
			s2.lastEscalation, s2.lastReason = "redecompose", reason
		}
	}

	if level == 2 {
		// Full windowed redecompose: a cold decomposition of the current
		// (windowed) matrix — no warm start, the complete pipeline —
		// bitwise identical to DecomposeSparse on the same matrix, which
		// is exactly the offline baseline the chaos harness compares
		// against.
		reopts := base
		reopts.Workers = workers
		d2, err := DecomposeSparse(m2, d.Method, reopts)
		if err != nil {
			return nil, fmt.Errorf("core: Update: redecompose: %w", err)
		}
		if h := d2.state.health(); h.err != nil {
			return nil, fmt.Errorf("core: Update: redecompose %s side: %w: %v", h.bad, ErrPoisoned, h.err)
		}
		d2.state.resAcc = 0
		d2.state.opts.Workers = base.Workers
		advanceHealth(d2)
		return d2, nil
	}

	// Re-run the method's pipeline from the updated factor states; the
	// operand answers the decomposition steps from the factors and the
	// solve-step products from the updated matrix. The per-call Workers
	// override applies to this re-run but must not stick to the chain:
	// the captured state's options are restored below.
	reopts := base
	reopts.Workers = workers
	d2, err := decompose(updateOperand{sparseOperand{m2}, cur}, d.Method, reopts)
	if err != nil {
		return nil, err
	}
	d2.state.resAcc = resAcc
	d2.state.opts.Workers = base.Workers
	advanceHealth(d2)
	return d2, nil
}

// cellDeltas merges the delta's Patch and Unpatch into m in one pass
// (sparse.ApplyCells) and returns the result with the additive factor
// deltas of the maintained sides (indexed by side; the mid side alone
// when mid is set, the lo/hi pair otherwise): the arrivals (set
// semantics in, the change from the stored value out; zero changes
// omitted) and the tombstones (the negated stored value; zeros
// omitted). The two lists address disjoint cells, so every old value
// is read from m.
func cellDeltas(m *sparse.ICSR, delta Delta, mid bool) (next *sparse.ICSR, arrive, expire [3][]sparse.Triplet, err error) {
	if next, err = m.ApplyCells(delta.Patch, delta.Unpatch); err != nil {
		return nil, arrive, expire, fmt.Errorf("core: Update: %w", err)
	}
	maintained := []int{sideLo, sideHi}
	if mid {
		maintained = []int{sideMid}
	}
	for _, t := range delta.Patch {
		if math.IsNaN(t.Lo) || math.IsInf(t.Lo, 0) || math.IsNaN(t.Hi) || math.IsInf(t.Hi, 0) {
			return nil, arrive, expire, fmt.Errorf("core: Update: patch cell (%d, %d) has NaN or Inf endpoints", t.Row, t.Col)
		}
		if t.Lo > t.Hi {
			return nil, arrive, expire, fmt.Errorf("core: Update: patch cell (%d, %d) is misordered (lo > hi)", t.Row, t.Col)
		}
		old := m.At(t.Row, t.Col)
		for _, side := range maintained {
			if dv := sideValue(t.Lo, t.Hi, side) - sideValue(old.Lo, old.Hi, side); dv != 0 {
				arrive[side] = append(arrive[side], sparse.Triplet{Row: t.Row, Col: t.Col, Val: dv})
			}
		}
	}
	for _, cl := range delta.Unpatch {
		old := m.At(cl.Row, cl.Col)
		for _, side := range maintained {
			if v := sideValue(old.Lo, old.Hi, side); v != 0 {
				expire[side] = append(expire[side], sparse.Triplet{Row: cl.Row, Col: cl.Col, Val: -v})
			}
		}
	}
	return next, arrive, expire, nil
}

// sideValue is one side's value of the interval [lo, hi]: an endpoint,
// or the midpoint.
func sideValue(lo, hi float64, side int) float64 {
	switch side {
	case sideLo:
		return lo
	case sideHi:
		return hi
	default:
		return (lo + hi) / 2
	}
}

// slideMerges reports whether a slide's arrivals and tombstones fold
// into one signed Brand step per side: only when, on every maintained
// side, both halves would take the compressed step on their own. Every
// other slide — narrow patches, arrivals without expiries — keeps the
// two steps bit for bit.
func slideMerges(s sides, arrive, expire [3][]sparse.Triplet, rank int) bool {
	wide := func(f *eig.SVDResult, side int) bool {
		return update.Wide(f, arrive[side], rank) && update.Wide(f, expire[side], rank)
	}
	if s.mid != nil {
		return wide(s.mid, sideMid)
	}
	return wide(s.lo, sideLo) && wide(s.hi, sideHi)
}

// validateDelta rejects deltas the maintained factor states cannot
// absorb: for ISVD2-4 the data must stay entrywise non-negative (see
// validateUpdatable).
//
//ivmf:deterministic
func validateDelta(method Method, delta Delta) error {
	if method < ISVD2 || method > ISVD4 {
		return nil
	}
	check := func(m *sparse.ICSR, what string) error {
		if m != nil && !m.NonNegative() {
			return fmt.Errorf("%s introduce negative endpoints; updatable %v requires non-negative data", what, method)
		}
		return nil
	}
	if err := check(delta.AppendRows, "appended rows"); err != nil {
		return err
	}
	if err := check(delta.AppendCols, "appended cols"); err != nil {
		return err
	}
	for _, t := range delta.Patch {
		if t.Lo < 0 {
			return fmt.Errorf("patch cell (%d, %d) introduces a negative endpoint; updatable %v requires non-negative data", t.Row, t.Col, method)
		}
	}
	return nil
}

// Factor sides of the update engine.
const (
	sideLo = iota
	sideHi
	sideMid
)

// sideCSR is one endpoint (or the midpoint) of an interval matrix, the
// matrix a factor side decomposes.
func sideCSR(m *sparse.ICSR, side int) *sparse.CSR {
	switch side {
	case sideLo:
		return m.LoCSR()
	case sideHi:
		return m.HiCSR()
	default:
		return m.MidCSR()
	}
}

// sideDense densifies one side of a sparse batch block — batches are
// small, so the dense block the factor update needs is c×n (or m×c)
// transient.
func sideDense(b *sparse.ICSR, side int) *matrix.Dense { return sideCSR(b, side).ToDense() }

// updateOperand plugs the maintained factor states into the shared
// ISVD0-4 pipeline: the decomposition steps (svdMid, svdEndpoints,
// gramEig) are answered from the factors without any iteration — that
// is the entire point of the incremental engine — while every other
// method, the solve-step products included (the ISVD2 U recovery and
// the ISVD3/4 interval algebra), is the embedded sparseOperand's on the
// updated matrix. Align, solve, and construct therefore re-run
// unchanged on updated inputs, so an updated decomposition agrees with
// a full re-decomposition to the accuracy of the factor states
// themselves. Those states advance by internal/update's Brand steps:
// every factor step (append, cell patch, removal) is one LowRank or
// sketched step ending in rotate, and an append is a LowRank step on
// zero-padded factors.
type updateOperand struct {
	sparseOperand
	sides
}

func (o updateOperand) svdMid(opts Options) (*eig.SVDResult, time.Duration, time.Duration, error) {
	return cloneSVD(o.mid), 0, 0, nil
}

func (o updateOperand) svdEndpoints(opts Options) (*eig.SVDResult, *eig.SVDResult, error) {
	// Clones: the pipeline's ILSA step mutates the hi side in place.
	return cloneSVD(o.lo), cloneSVD(o.hi), nil
}

func (o updateOperand) gramEig(opts Options) (vLo, vHi *matrix.Dense, sLo, sHi []float64, pre, dec time.Duration, err error) {
	return o.lo.V.Clone(), o.hi.V.Clone(),
		append([]float64(nil), o.lo.S...), append([]float64(nil), o.hi.S...),
		0, 0, nil
}
