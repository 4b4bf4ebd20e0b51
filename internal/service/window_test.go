package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sparse"
	"repro/internal/store"
)

// deltaBatchText renders a patch + tombstone batch as the delta-COO
// payload of an update request.
func deltaBatchText(tb testing.TB, rows, cols int, batch dataset.DeltaBatch) string {
	tb.Helper()
	var sb strings.Builder
	if err := dataset.WriteDeltaBatchCOO(&sb, rows, cols, batch); err != nil {
		tb.Fatal(err)
	}
	return sb.String()
}

// TestWindowUpdateEndToEnd drives a sliding-window update — cell
// patches, tombstones, and a forgetting factor in one request — through
// the service, pins the served predictions bitwise to the oracle's
// replay of the same envelopes, and then crashes and recovers the
// store to prove the WAL carries the full window delta (tombstones, λ,
// ortho budget) bit-exactly across a restart.
func TestWindowUpdateEndToEnd(t *testing.T) {
	defer leakCheck(t)()
	const rows, cols = 12, 9
	fs := store.NewMemFS()
	s := persistService(t, fs, Config{})
	s.Start()
	m := testMatrix(t, 7, rows, cols, 0.5)
	decReq := Request{
		Tenant: "w", Kind: "decompose", Rank: 3, Target: "b", Min: 1, Max: 5,
		COO: cooText(t, m),
	}
	waitJob(t, s, mustSubmit(t, s, decReq).ID)

	// Tombstone two stored cells, patch two others, decay by λ = 0.9.
	var tombs []sparse.Cell
	for _, i := range []int{2, 8} {
		cols, _, _ := m.RowView(i)
		if len(cols) == 0 {
			t.Fatalf("seed row %d empty", i)
		}
		tombs = append(tombs, sparse.Cell{Row: i, Col: cols[0]})
	}
	batch := dataset.DeltaBatch{
		Patch: []sparse.ITriplet{
			{Row: 0, Col: 4, Lo: 2.5, Hi: 3},
			{Row: 5, Col: 1, Lo: 1, Hi: 1.25},
		},
		Tombstones: tombs,
	}
	updReq := Request{
		Tenant: "w", Kind: "update", Delta: deltaBatchText(t, rows, cols, batch), Forget: 0.9, Refresh: "never",
	}
	waitJob(t, s, mustSubmit(t, s, updReq).ID)
	snap := s.Snapshot("w")
	if snap == nil || snap.Version != 2 {
		t.Fatalf("snapshot after window update: %+v", snap)
	}
	assertServed(t, s, "w", decReq, updReq)

	// The health gauges exist for the tenant, and /readyz carries the
	// per-tenant health detail.
	var metrics strings.Builder
	if err := s.metrics.write(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{mHealthResidual, mHealthOrtho, mHealthCond, mHealthSinceRefresh} {
		if !strings.Contains(metrics.String(), fam+`{tenant="w"}`) {
			t.Errorf("metrics missing %s for tenant w", fam)
		}
	}
	srv := httptest.NewServer(s.Handler())
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready readyBody
	if err := decodeBody(resp, &ready); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	th, ok := ready.Health["w"]
	if !ok {
		t.Fatalf("/readyz health missing tenant w: %+v", ready)
	}
	if th.Cond < 1 || th.UpdatesSinceRefresh != 1 {
		t.Errorf("/readyz health for w: %+v", th)
	}

	// Crash-and-recover: the WAL record carrying tombstones + λ replays
	// to bitwise the acknowledged predictions.
	want := s.Snapshot("w")
	drain(t, s)
	fs.Crash()
	s2 := persistService(t, fs, Config{})
	got := s2.Snapshot("w")
	if got == nil {
		t.Fatal("tenant not recovered")
	}
	samePredictions(t, got, want)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHealthEscalationMetrics walks the escalation ladder through the
// service under a fake clock and checks the exact
// ivmfd_model_health_escalations_total counts at each rung: a tripped
// refresh budget warm-refreshes, a violent cell arriving and expiring
// forces the ill-conditioned-downdate redecompose, and the health
// gauges track the chain. Leak-checked; no sleeps, no real time.
func TestHealthEscalationMetrics(t *testing.T) {
	defer leakCheck(t)()
	const rows, cols = 12, 9
	clock := newFakeClock()
	s := New(Config{Clock: clock.Now})
	s.Start()
	m := testMatrix(t, 7, rows, cols, 0.5)
	info := mustSubmit(t, s, Request{
		Tenant: "h", Kind: "decompose", Rank: 3, Target: "b", Min: 1, Max: 5,
		COO: cooText(t, m),
	})
	waitJob(t, s, info.ID)
	refreshC := func() float64 { return s.metrics.snapshotCounter(mHealthEscalations, label("level", "refresh")) }
	redecC := func() float64 { return s.metrics.snapshotCounter(mHealthEscalations, label("level", "redecompose")) }
	if refreshC() != 0 || redecC() != 0 {
		t.Fatalf("escalation counters after decompose: refresh=%g redecompose=%g", refreshC(), redecC())
	}

	// Rung 1: full-spectrum data at rank 3 discards mass on any patch, so
	// a vanishing refresh budget trips the warm refresh.
	info = mustSubmit(t, s, Request{
		Tenant: "h", Kind: "update", RefreshBudget: 1e-12,
		Delta: deltaText(t, rows, cols, []sparse.ITriplet{{Row: 1, Col: 3, Lo: 2, Hi: 2.5}}),
	})
	waitJob(t, s, info.ID)
	if refreshC() != 1 || redecC() != 0 {
		t.Fatalf("after budget trip: refresh=%g redecompose=%g, want 1, 0", refreshC(), redecC())
	}

	// Rung 2: a cell five orders of magnitude above the spectrum arrives
	// (the lax ortho budget lets the violent append through additively)…
	info = mustSubmit(t, s, Request{
		Tenant: "h", Kind: "update", Refresh: "never", OrthoBudget: 1e6,
		Delta: deltaText(t, rows, cols, []sparse.ITriplet{{Row: 0, Col: 1, Lo: 5e5, Hi: 6e5}}),
	})
	waitJob(t, s, info.ID)
	if refreshC() != 1 || redecC() != 0 {
		t.Fatalf("after violent patch: refresh=%g redecompose=%g, want 1, 0", refreshC(), redecC())
	}

	// …and expires. The downdate cancels nearly the whole spectrum: the
	// guardrail abandons the damaged additive chain and redecomposes,
	// even though the policy is refresh-never.
	info = mustSubmit(t, s, Request{
		Tenant: "h", Kind: "update", Refresh: "never",
		Delta: deltaBatchText(t, rows, cols, dataset.DeltaBatch{
			Tombstones: []sparse.Cell{{Row: 0, Col: 1}},
		}),
	})
	waitJob(t, s, info.ID)
	if refreshC() != 1 || redecC() != 1 {
		t.Fatalf("after expiry: refresh=%g redecompose=%g, want 1, 1", refreshC(), redecC())
	}
	snap := s.Snapshot("h")
	if snap == nil || snap.Version != 4 {
		t.Fatalf("snapshot after ladder: %+v", snap)
	}
	h := snap.Decomp.Health()
	if h.LastEscalation != "redecompose" || h.UpdatesSinceRefresh != 0 {
		t.Fatalf("chain health after ladder: %+v", h)
	}
	lbl := label("tenant", "h")
	s.metrics.mu.Lock()
	sinceRefresh := s.metrics.gauges[mHealthSinceRefresh][lbl]
	residual := s.metrics.gauges[mHealthResidual][lbl]
	s.metrics.mu.Unlock()
	if sinceRefresh != 0 {
		t.Errorf("updates_since_refresh gauge %g after escalation, want 0", sinceRefresh)
	}
	if residual != 0 {
		t.Errorf("residual gauge %g after redecompose, want 0", residual)
	}
	drain(t, s)
}
