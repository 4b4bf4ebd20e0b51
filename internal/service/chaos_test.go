package service

// Failure-injection tests over the executor's fault-isolation
// machinery: recover guards, deadlines, quarantine, the store circuit
// breaker, and drain under pressure. The governing invariant is the
// isolation contract — a poisoned tenant, a hung unit, or a dying disk
// may fail its own jobs, but every other tenant's served predictions
// stay bitwise equal to the offline chain of its acknowledged jobs, and
// the daemon itself never wedges or leaks.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/oracle"
	"repro/internal/sparse"
	"repro/internal/store"
)

// TestPanicIsolation poisons one tenant's executor with panics while a
// healthy neighbor streams updates: the victim's jobs fail cleanly
// (ledger terminal, old snapshot keeps serving), the neighbor's served
// chain stays bitwise correct, and nothing leaks.
func TestPanicIsolation(t *testing.T) {
	defer leakCheck(t)()
	fs := store.NewMemFS()
	s := persistService(t, fs, Config{})
	s.Start()

	decomposeTenant(t, s, "victim")
	decomposeTenant(t, s, "healthy")
	victimSnap := s.Snapshot("victim")

	release := s.ArmFailpoint(FailExec, FailpointSpec{Tenant: "victim", Mode: FailPanic, Count: 2})
	defer release()

	// Interleave: victim updates panic, healthy updates succeed.
	var healthyAcked []int
	for k := 1; k <= 2; k++ {
		vinfo := submitPatch(t, s, "victim", k)
		hinfo := submitPatch(t, s, "healthy", k)
		healthyAcked = append(healthyAcked, k)
		vdone := waitTerminal(t, s, vinfo.ID)
		if vdone.State != JobFailed || !strings.Contains(vdone.Error, "panicked") {
			t.Fatalf("victim job %d = %+v, want failed with panic", k, vdone)
		}
		waitJob(t, s, hinfo.ID)
	}

	// The victim's pre-poison snapshot is untouched.
	if got := s.Snapshot("victim"); got.Version != victimSnap.Version {
		t.Fatalf("victim snapshot moved to version %d under panics", got.Version)
	}
	// The healthy tenant's served state equals the offline chain of its
	// acknowledged updates, bitwise.
	assertServed(t, s, "healthy", patchChain(t, "healthy", healthyAcked...)...)

	// The victim recovers: the failpoint is exhausted, so the next
	// update succeeds against the old snapshot.
	info := submitPatch(t, s, "victim", 9)
	waitJob(t, s, info.ID)
	if got := s.Snapshot("victim"); got.Version != victimSnap.Version+1 {
		t.Fatalf("victim did not resume publishing: version %d", got.Version)
	}
	if n := s.metrics.snapshotCounter(mResPanics, label("tenant", "victim")); n != 2 {
		t.Fatalf("panic counter = %v, want 2", n)
	}
	drain(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// waitTerminal polls a job until done or failed (unlike waitJob it
// tolerates failure — fault tests assert on it).
func waitTerminal(tb testing.TB, s *Service, id uint64) JobInfo {
	tb.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		info, err := s.Job(id)
		if err != nil {
			tb.Fatal(err)
		}
		if info.State == JobDone || info.State == JobFailed {
			return info
		}
		time.Sleep(time.Millisecond)
	}
	tb.Fatalf("job %d did not reach a terminal state", id)
	return JobInfo{}
}

// TestDeadlineAbandonsHungUnit hangs one unit at the executor failpoint
// and fires the injected deadline timer: the job fails with the typed
// deadline error, the hung goroutine's eventual result is discarded
// (never published, never persisted), and the tenant's chain continues
// from the pre-hang state.
func TestDeadlineAbandonsHungUnit(t *testing.T) {
	defer leakCheck(t)()
	timerCh := make(chan time.Time)
	fs := store.NewMemFS()
	s := persistService(t, fs, Config{
		After: func(time.Duration) <-chan time.Time { return timerCh },
	})
	s.Start()

	decomposeTenant(t, s, "h")
	base := s.Snapshot("h")

	release := s.ArmFailpoint(FailExec, FailpointSpec{Tenant: "h", Mode: FailHang, Count: 1})
	info := submitPatch(t, s, "h", 1)
	// The unit is hung at the failpoint; fire its deadline.
	timerCh <- time.Now()
	done := waitTerminal(t, s, info.ID)
	if done.State != JobFailed || !strings.Contains(done.Error, "deadline exceeded") {
		t.Fatalf("hung job = %+v, want deadline failure", done)
	}
	// Release the hung goroutine: it finishes computing but lost the
	// publication claim, so nothing may change.
	release()
	if got := s.Snapshot("h"); got.Version != base.Version {
		t.Fatalf("abandoned unit published version %d", got.Version)
	}

	// The chain resumes from the pre-hang state: the abandoned delta is
	// NOT part of it — ledger and durable chain agree it never happened.
	info = submitPatch(t, s, "h", 2)
	waitJob(t, s, info.ID)
	assertServed(t, s, "h", patchChain(t, "h", 2)...)
	if n := s.metrics.snapshotCounter(mResDeadline, label("tenant", "h")); n != 1 {
		t.Fatalf("deadline counter = %v, want 1", n)
	}
	drain(t, s)

	// Crash and reboot: the durable chain must match the ledger — no
	// trace of the abandoned unit.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	s2 := persistService(t, fs, Config{})
	defer func() {
		drain(t, s2)
		_ = s2.Close()
	}()
	s2.Start()
	assertServed(t, s2, "h", patchChain(t, "h", 2)...)
}

// TestQuarantineLifecycle drives a tenant through trip → reject →
// cooldown → probe → clear under an injected clock, pinning every
// admission decision and metric transition.
func TestQuarantineLifecycle(t *testing.T) {
	defer leakCheck(t)()
	clk := newFakeClock()
	s := New(Config{
		Clock:              clk.Now,
		QuarantineAfter:    2,
		QuarantineCooldown: 10 * time.Second,
	})
	s.Start()
	defer drain(t, s)

	decomposeTenant(t, s, "q")
	snap := s.Snapshot("q")

	release := s.ArmFailpoint(FailExec, FailpointSpec{Tenant: "q", Mode: FailError, Count: 2})
	defer release()
	for k := 1; k <= 2; k++ {
		info := submitPatch(t, s, "q", k)
		if got := waitTerminal(t, s, info.ID); got.State != JobFailed {
			t.Fatalf("poisoned job %d = %+v", k, got)
		}
	}

	// Quarantined: admission rejects with the typed error and a
	// Retry-After hint; the old snapshot keeps serving.
	_, err := submitEnvelope(s, Request{
		Tenant: "q", Kind: "update", Refresh: "never",
		Delta: deltaText(t, persistRows, persistCols, persistPatch(3)),
	})
	if !errors.Is(err, errQuarantined) {
		t.Fatalf("quarantined submit error = %v, want errQuarantined", err)
	}
	var ra *retryAfterError
	if !errors.As(err, &ra) || ra.after <= 0 {
		t.Fatalf("quarantine rejection carries no Retry-After: %v", err)
	}
	if got := s.Snapshot("q"); got.Version != snap.Version {
		t.Fatalf("quarantined tenant's snapshot moved to %d", got.Version)
	}

	// Cooldown expiry admits exactly one probe; its success clears.
	clk.Advance(11 * time.Second)
	info := submitPatch(t, s, "q", 3)
	waitJob(t, s, info.ID)
	info = submitPatch(t, s, "q", 4)
	waitJob(t, s, info.ID)

	for _, c := range []struct {
		event string
		want  float64
	}{{"tripped", 1}, {"probe", 1}, {"cleared", 1}} {
		if n := s.metrics.snapshotCounter(mResQuarTrans, label("event", c.event)); n != c.want {
			t.Fatalf("quarantine transition %q = %v, want %v", c.event, n, c.want)
		}
	}
}

// TestBreakerLifecycle trips the store circuit breaker with exhausted
// persist operations, verifies mutations are rejected (and predictions
// keep serving) while open, and walks it through half-open recovery
// under the injected clock. Store failures must never quarantine the
// tenant — the disk's fault is not the tenant's.
func TestBreakerLifecycle(t *testing.T) {
	defer leakCheck(t)()
	clk := newFakeClock()
	fs := store.NewMemFS()
	s := persistService(t, fs, Config{
		Clock:            clk.Now,
		PersistRetries:   -1, // no retries: one failpoint hit = one exhausted op
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Second,
		Sleep:            func(time.Duration) {},
	})
	s.Start()

	decomposeTenant(t, s, "b")
	snap := s.Snapshot("b")

	release := s.ArmFailpoint(FailPersist, FailpointSpec{Mode: FailError, Count: 2})
	defer release()
	for k := 1; k <= 2; k++ {
		info := submitPatch(t, s, "b", k)
		got := waitTerminal(t, s, info.ID)
		if got.State != JobFailed || !strings.Contains(got.Error, "store unavailable") {
			t.Fatalf("persist-failed job %d = %+v", k, got)
		}
	}

	// Open: mutations rejected with the typed error + Retry-After.
	_, err := submitEnvelope(s, Request{
		Tenant: "b", Kind: "update", Refresh: "never",
		Delta: deltaText(t, persistRows, persistCols, persistPatch(3)),
	})
	if !errors.Is(err, errStoreUnavailable) {
		t.Fatalf("open-breaker submit error = %v, want errStoreUnavailable", err)
	}
	var ra *retryAfterError
	if !errors.As(err, &ra) || ra.after <= 0 {
		t.Fatalf("breaker rejection carries no Retry-After: %v", err)
	}
	// Reads still serve, and the store's failures did not quarantine
	// the tenant.
	if got := s.Snapshot("b"); got == nil || got.Version != snap.Version {
		t.Fatalf("serving snapshot lost under open breaker: %+v", got)
	}
	if n := s.metrics.snapshotCounter(mResQuarTrans, label("event", "tripped")); n != 0 {
		t.Fatal("store outage tripped the tenant quarantine")
	}

	// Cooldown expiry: the next unit is the half-open probe; the
	// failpoint is exhausted, so it persists and closes the breaker.
	clk.Advance(11 * time.Second)
	info := submitPatch(t, s, "b", 3)
	waitJob(t, s, info.ID)
	for _, c := range []struct {
		to   string
		want float64
	}{{"open", 1}, {"half_open", 1}, {"closed", 1}} {
		if n := s.metrics.snapshotCounter(mResBreakerTrans, label("to", c.to)); n != c.want {
			t.Fatalf("breaker transition to %q = %v, want %v", c.to, n, c.want)
		}
	}
	drain(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainDuringPersistBackoff drains the service while a unit is
// mid-backoff between persist retries: the drain must wait for the
// retry to succeed (no lost acknowledgement) and return without
// hanging.
func TestDrainDuringPersistBackoff(t *testing.T) {
	defer leakCheck(t)()
	fs := store.NewMemFS()
	backingOff := make(chan struct{}, 4)
	s := persistService(t, fs, Config{
		PersistBackoff: time.Millisecond,
		Sleep: func(d time.Duration) {
			select {
			case backingOff <- struct{}{}:
			default:
			}
			time.Sleep(d)
		},
	})
	s.Start()
	decomposeTenant(t, s, "d")

	release := s.ArmFailpoint(FailPersist, FailpointSpec{Mode: FailError, Count: 2})
	defer release()
	info := submitPatch(t, s, "d", 1)
	<-backingOff // the unit is between persist attempts right now

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain during persist backoff: %v", err)
	}
	// The job completed durably despite draining mid-retry.
	if got := waitTerminal(t, s, info.ID); got.State != JobDone {
		t.Fatalf("job after drain = %+v, want done", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	s2 := persistService(t, fs, Config{})
	defer func() { _ = s2.Close() }()
	if got := s2.Snapshot("d"); got == nil || got.Version != 2 {
		t.Fatalf("acked update lost across crash: %+v", got)
	}
}

// TestDrainWithBreakerOpen drains while the breaker is open with work
// still queued: queued units fail fast instead of wedging behind a dead
// disk, every job reaches a terminal state, and drain returns.
func TestDrainWithBreakerOpen(t *testing.T) {
	defer leakCheck(t)()
	fs := store.NewMemFS()
	s := persistService(t, fs, Config{
		PersistRetries:   -1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		Sleep:            func(time.Duration) {},
	})
	s.Start()
	decomposeTenant(t, s, "t1")
	decomposeTenant(t, s, "t2")

	// Everything the disk is asked to do now fails. t1's unit hangs
	// before it runs until both patches are admitted, so its failing
	// persist cannot open the breaker before t2's admission.
	release := s.ArmFailpoint(FailPersist, FailpointSpec{Mode: FailError})
	defer release()
	hold := s.ArmFailpoint(FailExec, FailpointSpec{Tenant: "t1", Mode: FailHang, Count: 1})
	defer hold()
	i1 := submitPatch(t, s, "t1", 1)
	i2 := submitPatch(t, s, "t2", 1)
	hold()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain with open breaker: %v", err)
	}
	// All admitted jobs are terminal; the one behind the trip failed
	// fast on the open circuit.
	g1, g2 := waitTerminal(t, s, i1.ID), waitTerminal(t, s, i2.ID)
	if g1.State != JobFailed || g2.State != JobFailed {
		t.Fatalf("jobs not terminal-failed: %+v / %+v", g1, g2)
	}
	if !strings.Contains(g2.Error, "circuit open") && !strings.Contains(g1.Error, "circuit open") {
		t.Fatalf("no job failed fast on the open circuit: %q / %q", g1.Error, g2.Error)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIdempotentSubmit pins the dedupe contract at the service layer:
// a repeated key replays the original acknowledgement (same job ID,
// Deduped set, no second admission), distinct keys admit normally, and
// replays keep working while draining.
func TestIdempotentSubmit(t *testing.T) {
	defer leakCheck(t)()
	s := New(Config{})
	s.Start()

	m := testMatrix(t, 7, persistRows, persistCols, 0.4)
	req := Request{Tenant: "i", Kind: "decompose", Rank: 3, Target: "b",
		Min: 1, Max: 5, COO: cooText(t, m)}
	first, err := submitEnvelopeIdem(s, req, "boot:1")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, first.ID)

	replay, err := submitEnvelopeIdem(s, req, "boot:1")
	if err != nil {
		t.Fatal(err)
	}
	if !replay.Deduped || replay.ID != first.ID || replay.State != JobDone {
		t.Fatalf("replay = %+v, want deduped ack of job %d", replay, first.ID)
	}
	if n := s.metrics.snapshotCounter(mAdmitted, label("kind", "decompose")); n != 1 {
		t.Fatalf("admitted = %v after replay, want 1", n)
	}
	if n := s.metrics.snapshotCounter(mResIdemReplays, ""); n != 1 {
		t.Fatalf("replay counter = %v, want 1", n)
	}

	// A fresh key is new work; the same key on another tenant is too
	// (keys are tenant-scoped).
	upd := Request{Tenant: "i", Kind: "update", Refresh: "never",
		Delta: deltaText(t, persistRows, persistCols, persistPatch(1))}
	u1, err := submitEnvelopeIdem(s, upd, "u:1")
	if err != nil || u1.Deduped {
		t.Fatalf("fresh key: %+v, %v", u1, err)
	}
	waitJob(t, s, u1.ID)

	drain(t, s)
	// Draining: replays still converge, new work is rejected.
	replay, err = submitEnvelopeIdem(s, req, "boot:1")
	if err != nil || !replay.Deduped || replay.ID != first.ID {
		t.Fatalf("replay while draining = %+v, %v", replay, err)
	}
	if _, err := submitEnvelopeIdem(s, upd, "u:2"); !errors.Is(err, errDraining) {
		t.Fatalf("new work while draining: %v, want errDraining", err)
	}
}

// TestIdempotencyAcrossRestart is the exactly-once contract the WAL and
// snapshot meta exist for: acknowledged keys survive a crash, so a
// client retrying across the restart gets the original acknowledgement
// instead of a duplicate execution.
func TestIdempotencyAcrossRestart(t *testing.T) {
	defer leakCheck(t)()
	fs := store.NewMemFS()
	s := persistService(t, fs, Config{})
	s.Start()

	m := testMatrix(t, 7, persistRows, persistCols, 0.4)
	dreq := Request{Tenant: "r", Kind: "decompose", Rank: 3, Target: "b",
		Min: 1, Max: 5, COO: cooText(t, m)}
	dinfo, err := submitEnvelopeIdem(s, dreq, "boot:1")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, dinfo.ID)
	upd := func(k int) Request {
		return Request{Tenant: "r", Kind: "update", Refresh: "never",
			Delta: deltaText(t, persistRows, persistCols, persistPatch(k))}
	}
	var uinfo [3]JobInfo
	for k := 1; k <= 2; k++ {
		info, err := submitEnvelopeIdem(s, upd(k), "u:"+string(rune('0'+k)))
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, s, info.ID)
		uinfo[k] = info
	}
	wantVersion := s.Snapshot("r").Version
	drain(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	fs.Crash()
	s2 := persistService(t, fs, Config{})
	s2.Start()
	defer func() {
		drain(t, s2)
		_ = s2.Close()
	}()

	// Every acknowledged key replays with its original job ID.
	for _, c := range []struct {
		req Request
		key string
		id  uint64
	}{
		{dreq, "boot:1", dinfo.ID},
		{upd(1), "u:1", uinfo[1].ID},
		{upd(2), "u:2", uinfo[2].ID},
	} {
		info, err := submitEnvelopeIdem(s2, c.req, c.key)
		if err != nil {
			t.Fatalf("key %q after restart: %v", c.key, err)
		}
		if !info.Deduped || info.ID != c.id || info.State != JobDone {
			t.Fatalf("key %q after restart = %+v, want deduped ack of job %d", c.key, info, c.id)
		}
	}
	// No duplicate execution: the served version is the acknowledged
	// one, and a genuinely new key still admits fresh work.
	if got := s2.Snapshot("r").Version; got != wantVersion {
		t.Fatalf("version %d after replays, want %d", got, wantVersion)
	}
	info, err := submitEnvelopeIdem(s2, upd(3), "u:3")
	if err != nil || info.Deduped {
		t.Fatalf("fresh key after restart: %+v, %v", info, err)
	}
	waitJob(t, s2, info.ID)
}

// TestHTTPResilienceSurface pins the wire-level resilience contract:
// /readyz reflects drain state, queue-full backpressure answers 429
// with a Retry-After header, and the Idempotency-Key header dedupes
// (200 + Idempotency-Replayed) with invalid keys rejected up front.
func TestHTTPResilienceSurface(t *testing.T) {
	defer leakCheck(t)()
	// MaxQueue counts running + queued: the hung unit holds one slot,
	// one update queues behind it, the next bounces.
	s := New(Config{MaxQueue: 2, RetryAfterHint: 2 * time.Second})
	s.Start()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	post := func(req Request, key string) *http.Response {
		t.Helper()
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		hr, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set("Content-Type", "application/json")
		if key != "" {
			hr.Header.Set("Idempotency-Key", key)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Fully up: ready.
	if resp := get("/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Keyed decompose admits once (202), then replays (200 + header).
	m := testMatrix(t, 7, persistRows, persistCols, 0.4)
	dreq := Request{Tenant: "h", Kind: "decompose", Rank: 3, Target: "b",
		Min: 1, Max: 5, COO: cooText(t, m)}
	var first JobInfo
	resp := post(dreq, "boot:1")
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("Idempotency-Replayed") != "" {
		t.Fatalf("first keyed submit: %d, replayed=%q", resp.StatusCode, resp.Header.Get("Idempotency-Replayed"))
	}
	if err := decodeBody(resp, &first); err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, first.ID)
	var replay JobInfo
	resp = post(dreq, "boot:1")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatalf("replayed submit: %d, replayed=%q", resp.StatusCode, resp.Header.Get("Idempotency-Replayed"))
	}
	if err := decodeBody(resp, &replay); err != nil {
		t.Fatal(err)
	}
	if !replay.Deduped || replay.ID != first.ID {
		t.Fatalf("replay body = %+v, want dedupe of job %d", replay, first.ID)
	}

	// Malformed keys never reach admission.
	resp = post(dreq, "bad key")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid key = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Backpressure: hang the executor on the next update, fill the
	// queue behind it, and the next submit bounces with the configured
	// Retry-After.
	release := s.ArmFailpoint(FailExec, FailpointSpec{Tenant: "h", Mode: FailHang, Count: 1})
	upd := func(k int) Request {
		return Request{Tenant: "h", Kind: "update", Refresh: "never",
			Delta: deltaText(t, persistRows, persistCols, persistPatch(k))}
	}
	resp = post(upd(1), "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("hung update = %d, want 202", resp.StatusCode)
	}
	var hung JobInfo
	if err := decodeBody(resp, &hung); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		info, err := s.Job(hung.ID)
		if err != nil {
			t.Fatal(err)
		}
		if info.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d never started running", hung.ID)
		}
		time.Sleep(time.Millisecond)
	}
	resp = post(upd(2), "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued update = %d, want 202", resp.StatusCode)
	}
	var queued JobInfo
	if err := decodeBody(resp, &queued); err != nil {
		t.Fatal(err)
	}
	resp = post(upd(3), "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue update = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}
	resp.Body.Close()

	release()
	waitJob(t, s, hung.ID)
	waitJob(t, s, queued.ID)

	// Draining flips readiness while replays keep converging.
	drain(t, s)
	resp = get("/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", resp.StatusCode)
	}
	var rb struct {
		Status string `json:"status"`
	}
	if err := decodeBody(resp, &rb); err != nil {
		t.Fatal(err)
	}
	if rb.Status != "draining" {
		t.Fatalf("readyz status = %q, want draining", rb.Status)
	}
	resp = post(dreq, "boot:1")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatalf("replay while draining = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestChaos is the isolation contract end to end, over real HTTP against
// an in-process durable server, while the run turns hostile around three
// tenants. Tenant 0 is poisoned once its model is up: executor panics
// until it is quarantined, plus persist faults. A hostile worker sends
// malformed and poisonous envelopes, a disconnect worker tears down
// connections mid-request, and the server is drained and restarted on
// the same data dir mid-stream. The contract:
//   - no healthy tenant loses or fails a job, and injected failures land
//     only on tenant 0;
//   - every hostile envelope gets a 4xx, never a 2xx;
//   - clients ride through the restart on retries plus Idempotency-Key;
//   - at every acknowledged version, and finally after the restart, each
//     healthy tenant's served predictions are finite and bitwise equal to
//     the oracle's replay of its acknowledged envelopes.
//
// The stream subtest replays plain patch batches. The window subtest
// replays a sliding window (arrivals plus tombstone expiries, λ decay)
// with an injected arrive-then-expire cycle that must show up as a
// guardrail redecompose.
func TestChaos(t *testing.T) {
	t.Run("stream", func(t *testing.T) { runChaos(t, false, 0.02, 4) })
	t.Run("window", func(t *testing.T) { runChaos(t, true, 0.05, 2) })
}

// Chaos run shape.
const (
	chaosTenants     = 3
	chaosRank        = 10
	chaosPredictCell = 16 // cells per background predict request
	chaosProbes      = 32 // cells per verification predict
	// windowForget decays the window's spectrum on every regular batch,
	// so the WAL round-trips λ under fire.
	windowForget = 0.95
	// violentMass is the injected cell: orders of magnitude above the
	// 1-5 rating spectrum, so its expiry is the near-σ_r cancellation the
	// downdate guardrail exists for.
	violentMass = 5e5
)

// hostileEnvelopes must all be rejected 4xx: malformed JSON, unknown
// fields, a traversal tenant name, a bomb declaring huge dimensions,
// non-finite cells, an unknown kind, and not JSON at all.
var hostileEnvelopes = []string{
	`{"tenant":"h","kind":"decompose","coo":"2,2\n0,0,1\n"`,
	`{"tenant":"h","kind":"decompose","boom":1}`,
	`{"tenant":"..","kind":"update","delta":"1,1\n0,0,1\n"}`,
	`{"tenant":"h","kind":"decompose","coo":"999999999,999999999\n0,0,1\n"}`,
	`{"tenant":"h","kind":"update","delta":"2,2\n0,0,nan\n"}`,
	`{"tenant":"h","kind":"wat"}`,
	`not json at all`,
}

// disconnectShapes are the mid-request teardowns the server must shrug
// off: a body promised and never sent, a request line cut mid-token, an
// immediate close.
var disconnectShapes = []string{
	"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 1000000\r\n\r\n{\"tenant\"",
	"GET /v1/topn?tenant=ten",
	"",
}

func runChaos(t *testing.T, window bool, scale float64, batches int) {
	plans := make([]chaosPlan, chaosTenants)
	for i := range plans {
		plans[i] = planTenant(t, i, window, scale, batches)
	}
	h := &chaosHarness{
		srv:        &chaosServer{dataDir: t.TempDir()},
		stop:       make(chan struct{}),
		kick:       make(chan struct{}),
		hostile4xx: make([]int, len(hostileEnvelopes)),
		shapes:     make([]int, len(disconnectShapes)),
	}
	if err := h.srv.open("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := h.srv.stop(); err != nil {
			t.Error(err)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	h.start(ctx)

	outcomes := make([]chaosOutcome, chaosTenants)
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outcomes[i] = h.drive(ctx, plans[i])
		}()
	}
	wg.Wait()
	h.finish()

	if len(h.errs) > 0 {
		t.Fatal(h.errs[0])
	}
	if h.restarts != 1 {
		t.Errorf("restarts = %d, want 1 mid-stream", h.restarts)
	}
	if h.hostileAccepted != 0 {
		t.Errorf("%d hostile envelopes got a 2xx", h.hostileAccepted)
	}
	for k, n := range h.hostile4xx {
		if n == 0 {
			t.Errorf("hostile envelope %d never got a 4xx", k)
		}
	}
	for k, n := range h.shapes {
		if n == 0 {
			t.Errorf("disconnect shape %d never sent", k)
		}
	}
	var retries int64
	for i, o := range outcomes {
		retries += o.retries
		if o.err != nil {
			t.Errorf("tenant %d: %v", i, o.err)
			continue
		}
		if o.predictErrs != 0 {
			t.Errorf("tenant %d: %d background predicts failed", i, o.predictErrs)
		}
		if plans[i].chaotic {
			if o.injected == 0 {
				t.Errorf("tenant %d: no injected failure landed (%d busy rejections)", i, o.busy)
			}
			continue
		}
		// Final served state, after the restart.
		c := &Client{Base: h.srv.base()}
		resp, err := c.Predict(ctx, plans[i].tenant, plans[i].probes)
		if err != nil {
			t.Fatalf("tenant %d final predict: %v", i, err)
		}
		mm, err := o.chain.Check(plans[i].probes, servedWire(resp))
		if err != nil {
			t.Fatal(err)
		}
		if o.mismatches += len(mm); o.mismatches != 0 {
			t.Errorf("tenant %d: %d served cells differ from the oracle", i, o.mismatches)
		}
		if o.verified != len(plans[i].jobs)-1 {
			t.Errorf("tenant %d: verified %d of %d updates", i, o.verified, len(plans[i].jobs)-1)
		}
		if h := o.chain.Health(); window && h.Redecomposes < 1 {
			t.Errorf("tenant %d: the injected arrive-then-expire cycle never redecomposed (health %+v)", i, h)
		}
	}
	if retries == 0 {
		t.Error("no client retried across the restart")
	}
	t.Logf("restarts %d, hostile 4xx %v, disconnects %v, tenant 0 injected %d busy %d, retries %d",
		h.restarts, h.hostile4xx, h.shapes, outcomes[0].injected, outcomes[0].busy, retries)
}

// chaosPlan is one tenant's generated traffic: its decompose envelope,
// its update envelopes, and the cells its verification probes read.
type chaosPlan struct {
	tenant  string
	chaotic bool
	seed    int64
	rows    int
	cols    int
	jobs    []Request
	probes  [][2]int
}

// planTenant generates tenant i's traffic. A stream plan replays
// StreamSplit batches as patches. A window plan replays WindowSplit
// batches (arrivals plus expiries, each decaying by windowForget) with an
// injected cycle after the first batch: a violentMass cell arrives (the
// lax ortho budget lets it through additively) and then expires under
// refresh-never, which forces the ill-conditioned-downdate guardrail to
// redecompose. The cycle uses a cell no other batch touches.
func planTenant(t *testing.T, i int, window bool, scale float64, batches int) chaosPlan {
	t.Helper()
	p := chaosPlan{tenant: fmt.Sprintf("tenant-%d", i), chaotic: i == 0, seed: int64(1 + i)}
	rng := rand.New(rand.NewSource(p.seed))
	data, err := dataset.GenerateRatings(dataset.MovieLensLike().Scaled(scale), rng)
	if err != nil {
		t.Fatal(err)
	}
	m := data.CFIntervalsCSR()
	p.rows, p.cols = m.Rows, m.Cols
	var (
		base []sparse.ITriplet
		ops  []Request
	)
	if !window {
		var deltas [][]sparse.ITriplet
		if base, deltas, err = dataset.StreamSplit(m, 0.1, batches, rng); err != nil {
			t.Fatal(err)
		}
		for _, d := range deltas {
			ops = append(ops, Request{Delta: deltaText(t, m.Rows, m.Cols, d)})
		}
	} else {
		var wb []dataset.DeltaBatch
		if base, wb, err = dataset.WindowSplit(m, 0.1, batches, rng); err != nil {
			t.Fatal(err)
		}
		spare := spareCell(t, m, base, wb)
		ops = append(ops,
			Request{Delta: deltaBatchText(t, m.Rows, m.Cols, wb[0]), Forget: windowForget},
			Request{Delta: deltaText(t, m.Rows, m.Cols, []sparse.ITriplet{
				{Row: spare.Row, Col: spare.Col, Lo: violentMass, Hi: violentMass * 1.2},
			}), Refresh: "never", OrthoBudget: 1e6},
			Request{Delta: deltaBatchText(t, m.Rows, m.Cols, dataset.DeltaBatch{
				Tombstones: []sparse.Cell{spare},
			}), Refresh: "never"})
		for _, b := range wb[1:] {
			ops = append(ops, Request{Delta: deltaBatchText(t, m.Rows, m.Cols, b), Forget: windowForget})
		}
	}
	baseCSR, err := sparse.FromICOO(m.Rows, m.Cols, base)
	if err != nil {
		t.Fatal(err)
	}
	p.jobs = append(p.jobs, Request{Tenant: p.tenant, Kind: "decompose", Method: "ISVD4",
		Rank: chaosRank, Target: "b", Min: 1, Max: 5, COO: cooText(t, baseCSR)})
	for _, op := range ops {
		op.Tenant, op.Kind = p.tenant, "update"
		p.jobs = append(p.jobs, op)
	}
	p.probes = probeCells(m.Rows, m.Cols, chaosProbes, p.seed+7919)
	return p
}

// spareCell finds a cell that neither the window base nor any batch
// touches.
func spareCell(t *testing.T, m *sparse.ICSR, base []sparse.ITriplet, wb []dataset.DeltaBatch) sparse.Cell {
	t.Helper()
	used := make(map[sparse.Cell]bool, m.NNZ())
	for _, c := range base {
		used[sparse.Cell{Row: c.Row, Col: c.Col}] = true
	}
	for _, b := range wb {
		for _, c := range b.Patch {
			used[sparse.Cell{Row: c.Row, Col: c.Col}] = true
		}
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if c := (sparse.Cell{Row: i, Col: j}); !used[c] {
				return c
			}
		}
	}
	t.Fatal("no untouched cell left for the injected cycle")
	return sparse.Cell{}
}

// chaosServer is an in-process ivmfd on a fixed loopback address that
// can be drained and restarted on the same data dir.
type chaosServer struct {
	dataDir string

	mu   sync.Mutex
	svc  *Service
	srv  *http.Server
	addr string
}

// open boots the service and binds addr (a restart re-binds the exact
// address it had). The quarantine cooldown is short so tenant 0's
// retrying client waits out its quarantine in milliseconds, not the
// default half minute.
func (p *chaosServer) open(addr string) error {
	s, err := Open(Config{DataDir: p.dataDir, QuarantineCooldown: 100 * time.Millisecond})
	if err != nil {
		return err
	}
	s.Start()
	var ln net.Listener
	for attempt := 0; ; attempt++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		// The dying listener may not have released the port yet.
		if attempt >= 100 {
			_ = s.Close()
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
	srv := &http.Server{Handler: s.Handler()}
	go func() { _ = srv.Serve(ln) }()
	p.mu.Lock()
	p.svc, p.srv, p.addr = s, srv, ln.Addr().String()
	p.mu.Unlock()
	return nil
}

func (p *chaosServer) base() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return "http://" + p.addr
}

// stop drains admitted jobs, shuts the listener down, and closes the
// store: every acknowledged job is durable before the process "dies".
func (p *chaosServer) stop() error {
	p.mu.Lock()
	s, srv := p.svc, p.srv
	p.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		return err
	}
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	return s.Close()
}

// chaosHarness runs the fault injectors of one chaos run.
type chaosHarness struct {
	srv  *chaosServer
	stop chan struct{}
	kick chan struct{} // closed by the first healthy acknowledgement
	wg   sync.WaitGroup

	// mu serializes arming with the restart, so failpoints always land on
	// the live instance; it also guards the counters below.
	mu              sync.Mutex
	armed, kicked   bool
	restarts        int
	hostile4xx      []int // per hostileEnvelopes entry
	hostileAccepted int
	shapes          []int // per disconnectShapes entry
	errs            []error
}

func (h *chaosHarness) start(ctx context.Context) {
	h.wg.Add(3)
	go h.hostileLoop(ctx)
	go h.disconnectLoop(ctx)
	go h.restartLoop(ctx)
}

// finish stops the injectors once each has covered all its cases.
func (h *chaosHarness) finish() {
	close(h.stop)
	h.wg.Wait()
}

// stopping reports whether finish was called and covered is true.
func (h *chaosHarness) stopping(ctx context.Context, covered func() bool) bool {
	select {
	case <-ctx.Done():
		return true
	case <-h.stop:
		h.mu.Lock()
		defer h.mu.Unlock()
		return covered()
	default:
		return false
	}
}

// armFailpoints poisons tenant 0 on the live instance: enough executor
// panics to trip quarantine, plus persist faults. A restart re-arms them
// (failpoints die with the instance they were armed on).
func (h *chaosHarness) armFailpoints() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.armed = true
	h.arm()
}

func (h *chaosHarness) arm() {
	s := h.srv.svc
	s.ArmFailpoint(FailExec, FailpointSpec{Tenant: "tenant-0", Mode: FailPanic, Count: DefaultQuarantineAfter})
	s.ArmFailpoint(FailPersist, FailpointSpec{Tenant: "tenant-0", Mode: FailError, Count: 2})
}

func (h *chaosHarness) kickRestart() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.kicked {
		h.kicked = true
		close(h.kick)
	}
}

// restartLoop drains and restarts the server once, on the first healthy
// acknowledgement, so the restart lands mid-stream.
func (h *chaosHarness) restartLoop(ctx context.Context) {
	defer h.wg.Done()
	select {
	case <-h.stop:
		return
	case <-ctx.Done():
		return
	case <-h.kick:
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	err := h.srv.stop()
	if err == nil {
		err = h.srv.open(h.srv.addr)
	}
	if err != nil {
		h.errs = append(h.errs, fmt.Errorf("chaos restart: %w", err))
		return
	}
	h.restarts++
	if h.armed {
		h.arm()
	}
}

// hostileLoop sends the hostile envelopes in turn until each has drawn a
// 4xx. A 2xx is a contract violation; 5xx and transport errors are the
// server legitimately down mid-restart.
func (h *chaosHarness) hostileLoop(ctx context.Context) {
	defer h.wg.Done()
	hc := &http.Client{Timeout: 5 * time.Second}
	covered := func() bool { return !slices.Contains(h.hostile4xx, 0) }
	for i := 0; !h.stopping(ctx, covered); i++ {
		time.Sleep(10 * time.Millisecond)
		k := i % len(hostileEnvelopes)
		resp, err := hc.Post(h.srv.base()+"/v1/jobs", "application/json", strings.NewReader(hostileEnvelopes[k]))
		if err != nil {
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		h.mu.Lock()
		switch {
		case resp.StatusCode < 400:
			h.hostileAccepted++
		case resp.StatusCode < 500:
			h.hostile4xx[k]++
		}
		h.mu.Unlock()
	}
}

// disconnectLoop opens raw connections, sends a partial request, and
// slams them shut, until every shape has gone out at least once.
func (h *chaosHarness) disconnectLoop(ctx context.Context) {
	defer h.wg.Done()
	covered := func() bool { return !slices.Contains(h.shapes, 0) }
	for i := 0; !h.stopping(ctx, covered); i++ {
		time.Sleep(25 * time.Millisecond)
		conn, err := net.DialTimeout("tcp", strings.TrimPrefix(h.srv.base(), "http://"), time.Second)
		if err != nil {
			continue
		}
		k := i % len(disconnectShapes)
		_, err = io.WriteString(conn, disconnectShapes[k])
		_ = conn.Close()
		if err == nil {
			h.mu.Lock()
			h.shapes[k]++
			h.mu.Unlock()
		}
	}
}

// chaosOutcome is one tenant's accounting.
type chaosOutcome struct {
	err         error        // a contract violation or harness failure
	chain       oracle.Chain // the oracle's replay of the acknowledged jobs
	mismatches  int          // verified cells that differed from chain
	verified    int          // acknowledged versions verified
	injected    int          // jobs failed by an injected fault (tenant 0)
	busy        int          // submissions rejected 429/503 (tenant 0)
	predictErrs int
	retries     int64
}

// drive runs one tenant: decompose, then the updates in order, each
// waited for, while one closed-loop worker keeps predicting. Healthy
// tenants verify the served model against the oracle at every
// acknowledged version; tenant 0 absorbs the injected faults.
func (h *chaosHarness) drive(ctx context.Context, p chaosPlan) (o chaosOutcome) {
	// Retries cover a full drain-and-restart on connection errors alone;
	// idempotency keys make retried submissions exactly-once.
	c := &Client{Base: h.srv.base(), Retry: &RetryPolicy{
		MaxAttempts: 10, BaseBackoff: 25 * time.Millisecond, MaxBackoff: time.Second, Seed: p.seed,
	}}
	defer func() { o.retries = c.Retries() }()

	// run submits one job and waits for it; tolerated means the job was
	// lost to an injected fault on tenant 0.
	run := func(k int, req Request) (tolerated bool, err error) {
		var info JobInfo
		for {
			info, err = c.SubmitIdem(ctx, req, fmt.Sprintf("%s:%d", p.tenant, k))
			var apiErr *APIError
			if p.chaotic && errors.As(err, &apiErr) &&
				(apiErr.Status == http.StatusTooManyRequests || apiErr.Status == http.StatusServiceUnavailable) {
				o.busy++
				return true, nil
			}
			if err != nil {
				return false, err
			}
			id := info.ID
			info, err = c.WaitJob(ctx, id, 2*time.Millisecond)
			if p.chaotic && errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
				// The restart forgot a job that failed unacknowledged;
				// the same key resubmits it.
				continue
			}
			if err != nil {
				return false, fmt.Errorf("job %d lost: %w", id, err)
			}
			break
		}
		switch {
		case info.State == JobDone:
			return false, nil
		case info.State == JobFailed && p.chaotic && injectedFailure(info.Error):
			o.injected++
			return true, nil
		default:
			return false, fmt.Errorf("job %d ended %s: %s", info.ID, info.State, info.Error)
		}
	}

	if _, err := run(0, p.jobs[0]); err != nil {
		o.err = err
		return o
	}
	if p.chaotic {
		h.armFailpoints()
	} else if o.err = o.chain.Apply(oracle.Job(p.jobs[0])); o.err != nil {
		return o
	}

	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		rng := rand.New(rand.NewSource(p.seed * 1000))
		errs := 0
		for {
			select {
			case <-stop:
				done <- errs
				return
			default:
			}
			cells := make([][2]int, chaosPredictCell)
			for i := range cells {
				cells[i] = [2]int{rng.Intn(p.rows), rng.Intn(p.cols)}
			}
			if _, err := c.Predict(ctx, p.tenant, cells); err != nil {
				errs++
			}
		}
	}()
	defer func() {
		close(stop)
		o.predictErrs = <-done
	}()

	for k, req := range p.jobs[1:] {
		tolerated, err := run(k+1, req)
		if err != nil {
			o.err = fmt.Errorf("update %d: %w", k, err)
			return o
		}
		if p.chaotic || tolerated {
			continue
		}
		h.kickRestart()
		if o.err = o.chain.Apply(oracle.Job(req)); o.err != nil {
			return o
		}
		resp, err := c.Predict(ctx, p.tenant, p.probes)
		if err != nil {
			o.err = fmt.Errorf("update %d: verify predict: %w", k, err)
			return o
		}
		mm, err := o.chain.Check(p.probes, servedWire(resp))
		if err != nil {
			o.err = err
			return o
		}
		o.mismatches += len(mm)
		o.verified++
	}
	return o
}

// injectedFailure recognizes a job failure caused by the harness's own
// faults (panic, injected store error, quarantine fallout).
func injectedFailure(msg string) bool {
	for _, marker := range []string{"panicked", "injected", "store unavailable", "deadline"} {
		if strings.Contains(msg, marker) {
			return true
		}
	}
	return false
}
