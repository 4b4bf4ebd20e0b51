package service

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/recommend"
	"repro/internal/store"
)

// Durability wiring: with Config.DataDir set, every published model
// state is made durable before its job is acknowledged — a decompose
// writes a full snapshot generation (atomic temp+rename), an update
// appends one fsynced record to the tenant's write-ahead log — and Open
// recovers all tenants from disk before the server starts admitting.
// The persisted chain replays bitwise-identically (core.Update is a
// pure function of persisted state, delta, and the budgets the record
// carries; kernel results are worker-count invariant), so a
// rebooted server serves exactly the predictions the crashed one
// acknowledged.

// Persistence defaults.
const (
	// DefaultCompactEvery bounds a tenant's write-ahead log: at this
	// many records the executor folds it into a fresh snapshot
	// generation, and after an escalated update it folds it at once
	// when that retires no idempotency key. BENCH_store.json puts
	// the replay-vs-cold crossover near 25 additive records in the
	// reference regime; compacting well before that keeps recovery
	// strictly cheaper than a cold boot. An escalated record can cost as
	// much as a cold boot on its own; persistUpdate compacts after it.
	DefaultCompactEvery = 8
	// DefaultPersistRetries and DefaultPersistBackoff bound the retry
	// loop around transient store failures before a job is failed.
	DefaultPersistRetries = 3
	DefaultPersistBackoff = 25 * time.Millisecond
)

// Open builds a Service like New and, when cfg.DataDir is set, attaches
// the crash-safe model store rooted there: every persisted tenant is
// recovered (newest durable snapshot plus write-ahead log replay) into
// serving state before Open returns, and subsequent jobs are made
// durable before they are acknowledged. Call Close after draining and
// after the last prediction has been served — recovered snapshots may
// serve zero-copy from mappings Close tears down.
func Open(cfg Config) (*Service, error) {
	s := New(cfg)
	if s.cfg.DataDir == "" {
		return s, nil
	}
	st, err := store.Open(s.cfg.DataDir, store.Options{FS: s.cfg.StoreFS, OnEvent: s.storeEvent})
	if err != nil {
		return nil, err
	}
	s.store = st
	tenants, err := st.Tenants()
	if err != nil {
		_ = st.Close()
		return nil, err
	}
	for _, tenant := range tenants {
		if err := s.recoverTenant(tenant); err != nil {
			_ = st.Close()
			return nil, fmt.Errorf("service: recover %q: %w", tenant, err)
		}
	}
	return s, nil
}

// recoverTenant boots one tenant from the store. A tenant whose durable
// state is entirely unusable (all generations quarantined) boots cold:
// it must be re-decomposed, but the server still starts — corruption
// degrades, it never takes the whole tier down.
func (s *Service) recoverTenant(tenant string) error {
	rec, err := s.store.Recover(tenant)
	if errors.Is(err, store.ErrNoState) {
		s.metrics.addCounter(mStoreRecovered, label("outcome", "none"), 1)
		return nil
	}
	if err != nil {
		return err
	}
	pred, err := recommend.FromSparseDecomposition(rec.Decomp, rec.MinRating, rec.MaxRating)
	if err != nil {
		return err
	}
	rows, cols := rec.Decomp.U.Lo.Rows, rec.Decomp.V.Lo.Rows
	meta := s.newTenantMeta()
	meta.rows, meta.cols, meta.rank = rows, cols, rec.Decomp.Rank
	meta.genKeyed.Store(len(rec.Acked) > 0)
	meta.store.swap(&Snapshot{
		Version: rec.Seq,
		JobID:   rec.JobID,
		Pred:    pred,
		Decomp:  rec.Decomp,
		Rows:    rows,
		Cols:    cols,
		Rank:    rec.Decomp.Rank,
	})
	outcome := "ok"
	if rec.Degraded {
		outcome = "degraded"
	}
	s.mu.Lock()
	s.tenants[tenant] = meta
	if rec.JobID > s.seq {
		// Job IDs appear in durable records; resuming past the highest
		// persisted one keeps (tenant, seq) -> job attribution unique
		// across restarts.
		s.seq = rec.JobID
	}
	for _, a := range rec.Acked {
		// Re-register durably acknowledged idempotency keys so a client
		// retrying across the restart replays the original ack instead
		// of re-running the job. The synthesized ledger entry answers
		// GET /v1/jobs/{id} for it; the dedupe window is bounded by
		// compaction (keys retired with an old generation are new work
		// again).
		if a.JobID > s.seq {
			s.seq = a.JobID
		}
		if _, ok := s.jobs[a.JobID]; !ok {
			s.jobs[a.JobID] = &jobRecord{info: JobInfo{
				ID: a.JobID, Tenant: tenant, Kind: "recovered", State: JobDone,
			}}
		}
		s.idem[idemMapKey(tenant, a.Key)] = a.JobID
	}
	s.mu.Unlock()
	s.metrics.addCounter(mStoreRecovered, label("outcome", outcome), 1)
	s.metrics.setGauge(mSnapVer, label("tenant", tenant), float64(rec.Seq))
	// Health counters reset with recovery (they are advisory, per-chain);
	// the measured gauges reflect the recovered factors immediately.
	s.publishHealth(tenant, core.Health{}, rec.Decomp.Health())
	return nil
}

// Close releases the model store (open log handles and snapshot
// mappings). Call it only after Drain has returned and the last
// prediction response has been written: tenants recovered zero-copy
// serve factor planes that alias mappings Close unmaps. It is safe
// without a store and safe to call twice.
func (s *Service) Close() error {
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}

// storeEvent surfaces one store degradation event as a metric.
func (s *Service) storeEvent(ev store.Event) {
	s.metrics.addCounter(mStoreEvents, label("kind", ev.Kind), 1)
}

// persist runs one store write with bounded retry and exponential
// backoff: transient filesystem failures (the store repairs its log
// before reusing it) should not fail a job that can succeed a moment
// later, but retry is bounded so a dead disk fails jobs instead of
// wedging the executor. The operation's final outcome — not each
// attempt — feeds the circuit breaker, and an exhausted retry loop is
// classified errStoreUnavailable so the failure never counts against
// the tenant's quarantine.
func (s *Service) persist(op, tenant string, write func() error) error {
	backoff := s.cfg.PersistBackoff
	var err error
	for attempt := 0; ; attempt++ {
		if err = s.failpoint(FailPersist, tenant); err == nil {
			err = write()
		}
		if err == nil {
			s.metrics.addCounter(mStorePersist, label("op", op), 1)
			s.noteStoreOutcome(false)
			return nil
		}
		if attempt >= s.cfg.PersistRetries {
			s.noteStoreOutcome(true)
			return fmt.Errorf("%w: persist %s: %v", errStoreUnavailable, op, err)
		}
		s.metrics.addCounter(mStoreRetries, label("op", op), 1)
		s.cfg.Sleep(backoff)
		backoff *= 2
	}
}

// persistSnapshot durably writes a full snapshot generation for a
// freshly published state.
func (s *Service) persistSnapshot(tenant string, d *core.Decomposition, meta store.SnapshotMeta) error {
	ps, err := d.ExportState()
	if err != nil {
		return err
	}
	return s.persist("snapshot", tenant, func() error {
		return s.store.SaveSnapshot(tenant, ps, meta)
	})
}

// persistUpdate appends the update's merged delta to the tenant's
// write-ahead log (fsynced before return, so acknowledging the job
// afterwards is safe) and folds the log into a fresh snapshot once it
// reaches the compaction bound. An escalated update folds it at once:
// replaying its record re-runs the warm refresh or full redecompose
// (on flat spectra a dense SVD per endpoint), as costly as a cold
// boot, while the snapshot costs a fraction of the escalation itself.
// That early fold is skipped while the generation holds idempotency
// keys it would retire (the compacted snapshot carries only the
// publishing job's key), so it never shortens the restart dedupe
// window. Compaction failure is deliberately non-fatal: the record is
// already durable, so the job is acknowledged and compaction retries on
// a later update.
func (s *Service) persistUpdate(tenant string, meta *tenantMeta, next *Snapshot, escalated bool, rec *store.WALRecord) error {
	var records int
	err := s.persist("delta", tenant, func() error {
		n, err := s.store.AppendDelta(tenant, rec)
		records = n
		return err
	})
	if err != nil {
		return err
	}
	smeta := store.SnapshotMeta{
		Seq: next.Version, JobID: next.JobID,
		MinRating: next.Pred.Min, MaxRating: next.Pred.Max,
	}
	// The compacted snapshot carries its publishing job's key so the
	// dedupe window survives the log it retires.
	retires := meta.genKeyed.Load()
	for _, a := range rec.Acked {
		if a.JobID == next.JobID {
			smeta.IdemKey = a.Key
		} else {
			retires = true
		}
	}
	keyed := meta.genKeyed.Load() || len(rec.Acked) > 0
	if records >= DefaultCompactEvery || escalated && !retires {
		if err := s.persistSnapshot(tenant, next.Decomp, smeta); err != nil {
			s.metrics.addCounter(mStoreEvents, label("kind", "compaction_deferred"), 1)
		} else {
			keyed = smeta.IdemKey != ""
		}
	}
	meta.genKeyed.Store(keyed)
	return nil
}
