package core

// Health is the numerical-health report of an updatable decomposition:
// how much incremental damage the factor states have absorbed since the
// last refresh, and what the escalation ladder has done about it. The
// measured fields (drift, condition) are recomputed from the immutable
// factor states on every call, so Health is safe to call concurrently
// with serving; the counters advance along the update chain and reset
// to zero when a chain is recovered from the store (they are advisory —
// no escalation decision reads them, see updState).
type Health struct {
	// Updatable is false for decompositions without engine state; all
	// other fields are then zero.
	Updatable bool

	// ResidualBudgetUsed is the accumulated relative discarded singular
	// mass since the last refresh — the fraction of
	// Options.RefreshBudget already spent.
	ResidualBudgetUsed float64
	// OrthoDrift is the worst ‖QᵀQ−I‖∞ over the maintained factor
	// sides: zero for perfectly orthonormal-or-zero factors, escalation
	// territory past Options.OrthoBudget.
	OrthoDrift float64
	// Cond estimates the factor-state conditioning as σ₁/σ_min over the
	// non-zero retained singular values, worst side; 0 when the
	// spectrum is empty.
	Cond float64

	// Updates counts the deltas absorbed since decompose or import;
	// UpdatesSinceRefresh counts those since the last warm refresh or
	// full redecompose.
	Updates             int
	UpdatesSinceRefresh int
	// Refreshes counts warm-started truncated refreshes (escalation
	// level 1); Redecomposes counts full windowed redecomposes (level
	// 2). One update may increment both: a warm refresh whose result
	// failed verification escalates in order.
	Refreshes    int
	Redecomposes int
	// LastEscalation is "", "refresh", or "redecompose";
	// LastEscalationReason is the trigger that forced it, for logs.
	LastEscalation       string
	LastEscalationReason string
}

// Health reports the numerical health of this decomposition's update
// chain. Non-updatable decompositions return the zero report.
//
//ivmf:deterministic
func (d *Decomposition) Health() Health {
	st := d.state
	if st == nil {
		return Health{}
	}
	sh := st.health()
	return Health{
		Updatable:            true,
		ResidualBudgetUsed:   st.resAcc,
		OrthoDrift:           sh.drift,
		Cond:                 sh.cond,
		Updates:              st.updates,
		UpdatesSinceRefresh:  st.updatesSinceRefresh,
		Refreshes:            st.refreshes,
		Redecomposes:         st.redecomposes,
		LastEscalation:       st.lastEscalation,
		LastEscalationReason: st.lastReason,
	}
}
