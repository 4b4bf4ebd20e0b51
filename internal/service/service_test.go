package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/interval"
	"repro/internal/oracle"
	"repro/internal/service/sched"
	"repro/internal/sparse"
)

// offlineStates replays reqs through the oracle and returns the probe
// predictions after each job (index 0: the decomposition).
func offlineStates(tb testing.TB, probes [][2]int, reqs ...Request) [][]interval.Interval {
	tb.Helper()
	var c oracle.Chain
	states := make([][]interval.Interval, len(reqs))
	for k, r := range reqs {
		if err := c.Apply(oracle.Job(r)); err != nil {
			tb.Fatal(err)
		}
		var err error
		if states[k], err = c.Predict(probes); err != nil {
			tb.Fatal(err)
		}
	}
	return states
}

// probeCells picks a deterministic scatter of in-shape cells.
func probeCells(rows, cols, n int, seed int64) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	cells := make([][2]int, n)
	for i := range cells {
		cells[i] = [2]int{rng.Intn(rows), rng.Intn(cols)}
	}
	return cells
}

// TestSnapshotSwapConsistency hammers the serving path from several
// goroutines while the executor swaps snapshots underneath them, and
// checks every read against the offline chain: whatever version a
// reader observes, all its cell reads must match that version exactly
// (single-version consistency, no torn reads). Run with -race.
func TestSnapshotSwapConsistency(t *testing.T) {
	const (
		rows, cols = 30, 20
		rank       = 6
		nDeltas    = 4
		readers    = 8
	)
	m := testMatrix(t, 11, rows, cols, 0.35)
	base, deltas, err := dataset.StreamSplit(m, 0.3, nDeltas, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	baseCSR, err := sparse.FromICOO(rows, cols, base)
	if err != nil {
		t.Fatal(err)
	}
	const tenant = "swap-test"
	reqs := []Request{{
		Tenant: tenant, Kind: "decompose", Method: "ISVD4",
		Rank: rank, Target: "b", Min: 1, Max: 5, COO: cooText(t, baseCSR),
	}}
	for _, patch := range deltas {
		reqs = append(reqs, Request{Tenant: tenant, Kind: "update", Delta: deltaText(t, rows, cols, patch)})
	}
	probes := probeCells(rows, cols, 16, 17)
	want := offlineStates(t, probes, reqs...)

	s := New(Config{})
	s.Start()
	defer s.Drain(context.Background())

	waitJob(t, s, mustSubmit(t, s, reqs[0]).ID)

	stop := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastVersion uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.Snapshot(tenant)
				if snap == nil {
					continue
				}
				if snap.Version < lastVersion {
					errs <- fmt.Errorf("version went backwards: %d after %d", snap.Version, lastVersion)
					return
				}
				lastVersion = snap.Version
				got := make([]interval.Interval, len(probes))
				for ci, c := range probes {
					iv, err := snap.Pred.PredictInterval(c[0], c[1])
					if err != nil {
						errs <- err
						return
					}
					got[ci] = iv
				}
				if mm := oracle.Diff(probes, got, want[snap.Version-1]); len(mm) > 0 {
					errs <- fmt.Errorf("version %d %v (torn read?)", snap.Version, mm[0])
					return
				}
			}
		}()
	}

	// Apply the deltas one at a time, waiting for each, so versions step
	// 2, 3, ... with no coalescing — exactly the offline chain.
	for _, req := range reqs[1:] {
		waitJob(t, s, mustSubmit(t, s, req).ID)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if snap := s.Snapshot(tenant); snap == nil || snap.Version != uint64(1+nDeltas) {
		t.Fatalf("final snapshot %+v, want version %d", snap, 1+nDeltas)
	}
}

func TestGracefulDrain(t *testing.T) {
	const rows, cols = 20, 12
	m := testMatrix(t, 3, rows, cols, 0.4)
	s := New(Config{})
	s.Start()

	ids := []uint64{
		mustSubmit(t, s, Request{Tenant: "d", Kind: "decompose", Rank: 4, Target: "b",
			Min: 1, Max: 5, COO: cooText(t, m)}).ID,
	}
	for k := 0; k < 3; k++ {
		patch := []sparse.ITriplet{{Row: k, Col: k + 1, Lo: 2, Hi: 3}}
		ids = append(ids, mustSubmit(t, s, Request{
			Tenant: "d", Kind: "update", Delta: deltaText(t, rows, cols, patch),
		}).ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Every admitted job ran to completion; none were dropped.
	for _, id := range ids {
		info, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State != JobDone {
			t.Errorf("job %d state %q after drain: %s", id, info.State, info.Error)
		}
	}
	// New admissions are refused.
	_, err := submitEnvelope(s, Request{Tenant: "d", Kind: "decompose", COO: cooText(t, m)})
	if !errors.Is(err, errDraining) {
		t.Fatalf("post-drain submit err = %v, want errDraining", err)
	}
	if !s.Draining() {
		t.Error("Draining() = false after Drain")
	}
}

// TestCoalescedUpdates drives the executor by hand (the service is
// never started) so the scheduler provably sees all three updates at
// once: they must collapse into one unit, apply as a single last-wins
// merged patch, and publish exactly one new snapshot whose predictions
// match the equivalent offline single Update.
func TestCoalescedUpdates(t *testing.T) {
	const rows, cols = 20, 12
	m := testMatrix(t, 7, rows, cols, 0.4)
	s := New(Config{})

	decReq := Request{Tenant: "c", Kind: "decompose", Rank: 5, Target: "b",
		Min: 1, Max: 5, COO: cooText(t, m)}
	dec := mustSubmit(t, s, decReq)
	patches := [][]sparse.ITriplet{
		{{Row: 1, Col: 2, Lo: 2, Hi: 3}, {Row: 4, Col: 5, Lo: 1, Hi: 1.5}},
		{{Row: 1, Col: 2, Lo: 4, Hi: 4.5}}, // overwrites the first patch's cell
		{{Row: 6, Col: 0, Lo: 3, Hi: 3}},
	}
	var upd []JobInfo
	for _, p := range patches {
		upd = append(upd, mustSubmit(t, s, Request{
			Tenant: "c", Kind: "update", Delta: deltaText(t, rows, cols, p),
		}))
	}

	batch := sched.Schedule(s.pending, s.cfg.Budget)
	if len(batch.Units) != 2 {
		t.Fatalf("batch has %d units, want decompose + coalesced updates", len(batch.Units))
	}
	if got := len(batch.Units[1].Jobs); got != 3 {
		t.Fatalf("update unit coalesced %d jobs, want 3", got)
	}
	for _, u := range batch.Units {
		s.execUnit(u)
	}

	if got := s.metrics.snapshotCounter(mCoalesced, ""); got != 2 {
		t.Errorf("coalesced counter = %g, want 2", got)
	}
	if info := waitJob(t, s, dec.ID); info.Version != 1 {
		t.Errorf("decompose published version %d, want 1", info.Version)
	}
	for _, u := range upd {
		info := waitJob(t, s, u.ID)
		if info.Version != 2 {
			t.Errorf("update %d published version %d, want 2 (one shared swap)", u.ID, info.Version)
		}
	}
	snap := s.Snapshot("c")
	if snap == nil || snap.Version != 2 {
		t.Fatalf("snapshot after coalesced update: %+v", snap)
	}

	// Offline equivalent: one Update with the last-wins merged patch in
	// admission order, first-touch cell order.
	merged := []sparse.ITriplet{
		{Row: 1, Col: 2, Lo: 4, Hi: 4.5},
		{Row: 4, Col: 5, Lo: 1, Hi: 1.5},
		{Row: 6, Col: 0, Lo: 3, Hi: 3},
	}
	assertServed(t, s, "c", decReq, Request{Tenant: "c", Kind: "update",
		Delta: deltaText(t, rows, cols, merged)})
}

// TestCoalescedUpdatesKeepTheirPolicy: a unit runs under one refresh
// and orthogonality budget, so an update that sets its own policy is a
// unit of its own — a Refresh:"always" job queued ahead of a default
// one must refresh, not take the default's budget — while the
// default-policy burst behind it still coalesces.
func TestCoalescedUpdatesKeepTheirPolicy(t *testing.T) {
	const rows, cols = 20, 12
	m := testMatrix(t, 7, rows, cols, 0.4)
	s := New(Config{})

	mustSubmit(t, s, Request{Tenant: "p", Kind: "decompose", Rank: 5, Target: "b",
		Min: 1, Max: 5, COO: cooText(t, m)})
	for _, c := range []struct {
		refresh string
		ortho   float64
		cell    sparse.ITriplet
	}{
		{"always", 0, sparse.ITriplet{Row: 1, Col: 2, Lo: 2, Hi: 3}},
		{"", 1e-6, sparse.ITriplet{Row: 2, Col: 3, Lo: 1, Hi: 2}},
		{"", 0, sparse.ITriplet{Row: 4, Col: 5, Lo: 1, Hi: 1.5}},
		{"", 0, sparse.ITriplet{Row: 6, Col: 0, Lo: 3, Hi: 3}},
	} {
		mustSubmit(t, s, Request{Tenant: "p", Kind: "update", Refresh: c.refresh, OrthoBudget: c.ortho,
			Delta: deltaText(t, rows, cols, []sparse.ITriplet{c.cell})})
	}

	batch := sched.Schedule(s.pending, s.cfg.Budget)
	var sizes []int
	for _, u := range batch.Units {
		sizes = append(sizes, len(u.Jobs))
	}
	if fmt.Sprint(sizes) != "[1 1 1 2]" {
		t.Fatalf("unit sizes %v, want [1 1 1 2]: decompose, the always job, the orthoBudget job, the default pair", sizes)
	}
	for i, u := range batch.Units {
		s.execUnit(u)
		if i == 1 {
			if h := s.Snapshot("p").Decomp.Health(); h.Refreshes != 1 {
				t.Fatalf("the refresh:always update ran %d refreshes, want 1", h.Refreshes)
			}
		}
	}
	if h := s.Snapshot("p").Decomp.Health(); h.Updates != 3 {
		t.Errorf("%d updates applied, want 3 (two single jobs and one coalesced pair)", h.Updates)
	}
}

func TestSubmitRejections(t *testing.T) {
	const rows, cols = 8, 6
	m := testMatrix(t, 1, rows, cols, 0.5)
	delta := deltaText(t, rows, cols, []sparse.ITriplet{{Row: 0, Col: 1, Lo: 2, Hi: 2}})

	t.Run("update before decompose", func(t *testing.T) {
		s := New(Config{})
		_, err := submitEnvelope(s, Request{Tenant: "t", Kind: "update", Delta: delta})
		if !errors.Is(err, errNoModel) {
			t.Fatalf("err = %v, want errNoModel", err)
		}
	})
	t.Run("shape mismatch", func(t *testing.T) {
		s := New(Config{})
		mustSubmit(t, s, Request{Tenant: "t", Kind: "decompose", COO: cooText(t, m)})
		bad := deltaText(t, rows+1, cols, []sparse.ITriplet{{Row: 0, Col: 0, Lo: 1, Hi: 1}})
		_, err := submitEnvelope(s, Request{Tenant: "t", Kind: "update", Delta: bad})
		if err == nil || errors.Is(err, errNoModel) {
			t.Fatalf("err = %v, want shape mismatch", err)
		}
	})
	t.Run("queue full", func(t *testing.T) {
		s := New(Config{MaxQueue: 1})
		mustSubmit(t, s, Request{Tenant: "t", Kind: "decompose", COO: cooText(t, m)})
		_, err := submitEnvelope(s, Request{Tenant: "t", Kind: "update", Delta: delta})
		if !errors.Is(err, errQueueFull) {
			t.Fatalf("err = %v, want errQueueFull", err)
		}
		// Other tenants are unaffected by a full neighbor.
		mustSubmit(t, s, Request{Tenant: "u", Kind: "decompose", COO: cooText(t, m)})
	})
	t.Run("byte budget", func(t *testing.T) {
		s := New(Config{})
		mustSubmit(t, s, Request{Tenant: "t", Kind: "decompose", COO: cooText(t, m)})
		data, err := json.Marshal(Request{Tenant: "u", Kind: "decompose", COO: cooText(t, m)})
		if err != nil {
			t.Fatal(err)
		}
		jr, err := decodeRequest(data, s.cfg.MaxBodyBytes)
		if err != nil {
			t.Fatal(err)
		}
		// With one job resident, any estimate of the whole budget
		// pushes the total past it.
		jr.bytes = DefaultMaxPendingBytes
		_, err = s.Submit(jr)
		if !errors.Is(err, errQueueFull) {
			t.Fatalf("err = %v, want errQueueFull", err)
		}
		var ra *retryAfterError
		if !errors.As(err, &ra) || ra.after != DefaultRetryAfterHint {
			t.Fatalf("byte-budget rejection carries no %v Retry-After: %v", DefaultRetryAfterHint, err)
		}
		if n := s.metrics.snapshotCounter(mRejected, label("reason", reasonByteBudget)); n != 1 {
			t.Fatalf("%g byte_budget rejections counted, want 1", n)
		}
	})
	t.Run("job not found", func(t *testing.T) {
		s := New(Config{})
		if _, err := s.Job(42); !errors.Is(err, errNotFound) {
			t.Fatalf("err = %v, want errNotFound", err)
		}
	})
	t.Run("start twice panics", func(t *testing.T) {
		s := New(Config{})
		s.Start()
		defer s.Drain(context.Background())
		defer func() {
			if recover() == nil {
				t.Error("second Start did not panic")
			}
		}()
		s.Start()
	})
}
