// Package service is the batched decomposition serving tier: a
// long-running server that admits decomposition and update jobs into
// per-tenant queues (payloads resident as O(NNZ) sparse matrices, never
// dense), schedules them across the shared worker pool in cost-budgeted
// batches (internal/service/sched — admission prices decompositions at
// NNZ×rank and updates at delta-NNZ×rank), and serves predictions from
// immutable factor-backed snapshots that swap atomically on job
// completion. The update path rides core's incremental factor engine,
// so arriving deltas cost O(delta), and because update states are
// functional the previous snapshot keeps serving — without locks —
// while its successor is being built: zero-downtime model refresh.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/recommend"
	"repro/internal/service/sched"
	"repro/internal/sparse"
	"repro/internal/store"
)

// Config tunes a Service. The zero value serves with the documented
// defaults.
type Config struct {
	// Budget is the scheduler's per-round cost budget in admission
	// units (NNZ×rank). 0 means DefaultBudget; negative degenerates to
	// one job per round.
	Budget int64
	// MaxBodyBytes caps request bodies; 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxQueue caps pending jobs per tenant; 0 means DefaultMaxQueue.
	MaxQueue int
	// Workers is the default per-job pool bound when a request does not
	// set its own (0 = the shared pool default).
	Workers int
	// Clock is the injected time source (admission stamps, latency
	// accounting); nil means time.Now. The scheduler itself never reads
	// it — batches are a pure function of the queue snapshot.
	Clock func() time.Time

	// DataDir roots the crash-safe model store. When set (via Open),
	// every job's result is made durable — snapshot for a decompose,
	// fsynced write-ahead record for an update — before the job is
	// acknowledged, and boot recovers all tenants from disk. Empty
	// disables persistence.
	DataDir string
	// PersistRetries is how many times a failed store write is retried
	// before the job fails; PersistBackoff is the initial retry delay,
	// doubling per attempt. Zero values mean the defaults.
	PersistRetries int
	PersistBackoff time.Duration
	// StoreFS overrides the store's filesystem (fault-injection tests);
	// nil means the real OS filesystem.
	StoreFS store.FS

	// Resilience knobs. Zero values mean the documented defaults;
	// negative values disable the mechanism.

	// QuarantineAfter quarantines a tenant after this many consecutive
	// failed execution units; QuarantineCooldown is the first rejection
	// period (doubling per re-trip, capped). QuarantineAfter < 0
	// disables quarantine.
	QuarantineAfter    int
	QuarantineCooldown time.Duration
	// BreakerThreshold trips the store circuit breaker after this many
	// consecutive exhausted persist operations; BreakerCooldown is the
	// first open period. BreakerThreshold < 0 disables the breaker.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// RetryAfterHint is the Retry-After value attached to queue- and
	// byte-budget rejections (quarantine/breaker rejections report their
	// actual remaining cooldown).
	RetryAfterHint time.Duration
	// RequestTimeout bounds predict/topn request handling; < 0 disables
	// the per-request deadline.
	RequestTimeout time.Duration
	// After is the injected deadline timer (nil = time.After); Sleep is
	// the injected persist-backoff sleeper (nil = time.Sleep). Tests
	// inject both to make timing paths deterministic.
	After func(time.Duration) <-chan time.Time
	Sleep func(time.Duration)
}

// Service defaults.
const (
	DefaultBudget       = int64(1) << 22 // ~4M cost units per round
	DefaultMaxBodyBytes = int64(16) << 20
	DefaultMaxQueue     = 64

	// DefaultDeadlineBase/PerCost/Max bound a unit's execution time at
	// base + perCost×cost, capped at max, under the injected timer. A
	// unit past its deadline fails (the tenant's previous snapshot keeps
	// serving).
	DefaultDeadlineBase    = 2 * time.Minute
	DefaultDeadlinePerCost = 2 * time.Microsecond
	DefaultDeadlineMax     = 15 * time.Minute
	// DefaultMaxPendingBytes caps the estimated resident payload bytes
	// across all queued jobs; admission past it rejects with
	// 429/Retry-After.
	DefaultMaxPendingBytes = int64(256) << 20
	// DefaultRetryAfterHint is the backpressure retry hint.
	DefaultRetryAfterHint = time.Second
	// DefaultRequestTimeout bounds predict/topn handling.
	DefaultRequestTimeout = 30 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Budget == 0 {
		c.Budget = DefaultBudget
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = DefaultMaxQueue
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.PersistRetries == 0 {
		c.PersistRetries = DefaultPersistRetries
	}
	if c.PersistRetries < 0 {
		c.PersistRetries = 0
	}
	if c.PersistBackoff <= 0 {
		c.PersistBackoff = DefaultPersistBackoff
	}
	if c.QuarantineAfter == 0 {
		c.QuarantineAfter = DefaultQuarantineAfter
	}
	if c.QuarantineCooldown <= 0 {
		c.QuarantineCooldown = DefaultQuarantineCooldown
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = DefaultBreakerThreshold
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = DefaultBreakerCooldown
	}
	if c.RetryAfterHint <= 0 {
		c.RetryAfterHint = DefaultRetryAfterHint
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.After == nil {
		c.After = time.After
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// JobState is a job's lifecycle phase.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// JobInfo is the externally visible job status.
type JobInfo struct {
	ID      uint64   `json:"id"`
	Tenant  string   `json:"tenant"`
	Kind    string   `json:"kind"`
	State   JobState `json:"state"`
	Cost    int64    `json:"cost"`
	Error   string   `json:"error,omitempty"`
	Version uint64   `json:"version,omitempty"` // snapshot the job published
	// LatencyMs is admission→completion wall time, set on done/failed.
	LatencyMs float64 `json:"latencyMs,omitempty"`
	// Deduped reports that this response replays an earlier admission
	// acknowledged under the same Idempotency-Key — no new job was
	// created.
	Deduped bool `json:"deduped,omitempty"`
}

// jobRecord is the service-side job ledger entry: scheduling identity,
// payload, and status.
type jobRecord struct {
	job   sched.Job
	req   *jobRequest
	bytes int64 // payload estimate charged against DefaultMaxPendingBytes
	info  JobInfo
}

// tenantMeta is what admission remembers about a tenant's model before
// the decomposition has even run: the declared shape and rank admit and
// price subsequent updates without waiting for the model.
type tenantMeta struct {
	rows, cols int
	rank       int
	store      *snapStore
	quar       quarantine
	// genKeyed reports that the tenant's current store generation (its
	// snapshot or a logged record) holds an idempotency key, which a
	// compaction would retire; see persistUpdate.
	genKeyed atomic.Bool
}

// Service is the batched decomposition service. Create with New, start
// the executor with Start, stop with Drain.
type Service struct {
	cfg     Config
	metrics *registry
	store   *store.Store // nil unless built by Open with a DataDir

	mu       sync.Mutex
	pending  []sched.Job
	jobs     map[uint64]*jobRecord
	tenants  map[string]*tenantMeta
	seq      uint64
	draining bool
	// pendingBytes is the estimated resident payload total of queued
	// jobs; idem maps tenant\x00key to the acknowledged job ID; brk is
	// the store circuit breaker (nil when disabled or storeless);
	// quarCount tracks the quarantined-tenants gauge.
	pendingBytes int64
	idem         map[string]uint64
	brk          *breaker
	quarCount    int

	fpMu       sync.Mutex
	failpoints map[string][]*armedFailpoint

	wake     chan struct{}
	loopDone chan struct{}
	started  bool
}

// New builds a Service with the given configuration.
func New(cfg Config) *Service {
	s := &Service{
		cfg:      cfg.withDefaults(),
		metrics:  newServiceRegistry(),
		jobs:     make(map[uint64]*jobRecord),
		tenants:  make(map[string]*tenantMeta),
		idem:     make(map[string]uint64),
		wake:     make(chan struct{}, 1),
		loopDone: make(chan struct{}),
	}
	if s.cfg.BreakerThreshold > 0 {
		s.brk = newBreaker(s.cfg.BreakerThreshold, s.cfg.BreakerCooldown)
	}
	return s
}

// Start launches the executor loop. It must be called exactly once.
func (s *Service) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		panic("service: Start called twice")
	}
	s.started = true
	s.mu.Unlock()
	go s.loop()
}

// Drain stops admission (new submissions fail with errDraining / HTTP
// 503), lets every already-admitted job run to completion, and returns
// when the executor has exited or ctx is done. No admitted job is ever
// dropped.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	started := s.started
	s.mu.Unlock()
	s.signalWake()
	if !started {
		return nil
	}
	select {
	case <-s.loopDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether the service has begun shutting down.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Service) signalWake() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// rejection reasons for the rejected-jobs counter.
const (
	reasonDraining    = "draining"
	reasonQueueFull   = "queue_full"
	reasonByteBudget  = "byte_budget"
	reasonQuarantined = "quarantined"
	reasonStoreOpen   = "store_open"
	reasonNoModel     = "no_model"
	reasonShape       = "shape_mismatch"
	reasonInvalid     = "invalid"
)

// newTenantMeta builds a tenant's admission record with its quarantine
// initialized from the service configuration.
func (s *Service) newTenantMeta() *tenantMeta {
	return &tenantMeta{
		store: &snapStore{},
		quar:  newQuarantine(s.cfg.QuarantineAfter, s.cfg.QuarantineCooldown),
	}
}

// idemMapKey scopes an idempotency key to its tenant; NUL cannot appear
// in either per the admission grammars.
func idemMapKey(tenant, key string) string { return tenant + "\x00" + key }

func (s *Service) reject(reason string, err error) (JobInfo, error) {
	s.metrics.addCounter(mRejected, label("reason", reason), 1)
	return JobInfo{}, err
}

// Submit admits a decoded job request: prices it, appends it to the
// tenant's queue, and wakes the executor. It returns the queued job's
// info or the admission error. A request whose idempotency key matches
// an already-acknowledged admission replays that job's info (Deduped
// set) instead of creating a new job — even while draining or
// quarantined, so client retries converge.
func (s *Service) Submit(req *jobRequest) (JobInfo, error) {
	now := s.cfg.Clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.idemKey != "" {
		if id, ok := s.idem[idemMapKey(req.tenant, req.idemKey)]; ok {
			if rec := s.jobs[id]; rec != nil {
				info := rec.info
				info.Deduped = true
				s.metrics.addCounter(mResIdemReplays, "", 1)
				return info, nil
			}
		}
	}
	if s.draining {
		return s.reject(reasonDraining, errDraining)
	}
	meta := s.tenants[req.tenant]
	if meta != nil && s.cfg.QuarantineAfter > 0 {
		if ok, after := meta.quar.check(now); !ok {
			return s.reject(reasonQuarantined, withRetryAfter(
				fmt.Errorf("%w: tenant %q is failing jobs", errQuarantined, req.tenant), after))
		}
	}
	if s.store != nil && s.brk != nil {
		if ok, after := s.brk.allowAdmit(now); !ok {
			return s.reject(reasonStoreOpen, withRetryAfter(
				fmt.Errorf("%w: circuit open after consecutive persist failures", errStoreUnavailable), after))
		}
	}
	depth := 0
	for _, j := range s.pending {
		if j.Tenant == req.tenant {
			depth++
		}
	}
	if depth >= s.cfg.MaxQueue {
		return s.reject(reasonQueueFull, withRetryAfter(
			fmt.Errorf("%w: %d pending jobs for %q", errQueueFull, depth, req.tenant), s.cfg.RetryAfterHint))
	}
	if s.pendingBytes > 0 && s.pendingBytes+req.bytes > DefaultMaxPendingBytes {
		return s.reject(reasonByteBudget, withRetryAfter(
			fmt.Errorf("%w: %d resident payload bytes", errQueueFull, s.pendingBytes), s.cfg.RetryAfterHint))
	}

	var cost int64
	switch req.kind {
	case sched.Decompose:
		rank := req.opts.Rank
		if maxRank := min(req.base.Rows, req.base.Cols); rank <= 0 || rank > maxRank {
			rank = maxRank
		}
		cost = int64(req.base.NNZ()) * int64(rank)
		if meta == nil {
			meta = s.newTenantMeta()
			s.tenants[req.tenant] = meta
		}
		// Updates admitted after this job are judged against the new
		// declared shape, whether or not the decomposition has run yet.
		meta.rows, meta.cols, meta.rank = req.base.Rows, req.base.Cols, rank
	case sched.Update:
		if meta == nil {
			return s.reject(reasonNoModel, fmt.Errorf("%w: %q (submit a decompose job first)", errNoModel, req.tenant))
		}
		if req.patchRows != meta.rows || req.patchCols != meta.cols {
			return s.reject(reasonShape, fmt.Errorf("service: delta header %dx%d does not match model %dx%d",
				req.patchRows, req.patchCols, meta.rows, meta.cols))
		}
		cost = int64(len(req.patch)+len(req.unpatch)) * int64(meta.rank)
		if cost < 1 {
			// A forget-only update still decays every retained cell.
			cost = int64(meta.rank)
		}
	}
	if cost < 1 {
		cost = 1
	}
	if s.cfg.QuarantineAfter > 0 && meta.quar.claimProbe(now) {
		// This admission is the quarantined tenant's single probe job.
		s.metrics.addCounter(mResQuarTrans, label("event", "probe"), 1)
	}

	// Only default-policy updates coalesce. λ-decay does not commute
	// with the last-wins cell merge (a cell patched before the decay and
	// one patched after end up at different values), and a unit runs
	// under one refresh and orthogonality budget, so a job that sets its
	// own forget factor or budget runs as its own unit, in admission
	// order.
	coalescable := req.kind == sched.Update && req.forget == 0 &&
		req.refreshBudget == 0 && req.orthoBudget == 0
	s.seq++
	job := sched.Job{
		ID:          s.seq,
		Seq:         s.seq,
		Tenant:      req.tenant,
		Kind:        req.kind,
		Cost:        cost,
		Coalescable: coalescable,
		Submitted:   now,
	}
	rec := &jobRecord{job: job, req: req, bytes: req.bytes, info: JobInfo{
		ID: job.ID, Tenant: job.Tenant, Kind: job.Kind.String(),
		State: JobQueued, Cost: cost,
	}}
	s.jobs[job.ID] = rec
	s.pending = append(s.pending, job)
	s.pendingBytes += req.bytes
	if req.idemKey != "" {
		s.idem[idemMapKey(req.tenant, req.idemKey)] = job.ID
	}
	s.metrics.addCounter(mAdmitted, label("kind", job.Kind.String()), 1)
	s.metrics.setGauge(mQueueDepth, label("tenant", job.Tenant), float64(depth+1))
	info := rec.info
	s.signalWake()
	return info, nil
}

// Job returns the status of a job by ID.
func (s *Service) Job(id uint64) (JobInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return JobInfo{}, fmt.Errorf("%w: job %d", errNotFound, id)
	}
	return rec.info, nil
}

// Snapshot returns the tenant's current serving snapshot, or nil when
// the tenant has no completed model.
func (s *Service) Snapshot(tenant string) *Snapshot {
	s.mu.Lock()
	meta := s.tenants[tenant]
	s.mu.Unlock()
	if meta == nil {
		return nil
	}
	return meta.store.load()
}

// loop is the executor: it snapshots the queue, schedules one batch,
// executes its units in order, and repeats; on drain it exits once the
// queue is empty. Jobs execute one unit at a time — each decomposition
// or update is internally parallel on the shared pool — so per-tenant
// ordering is trivially preserved.
func (s *Service) loop() {
	defer close(s.loopDone)
	for {
		s.mu.Lock()
		pending := make([]sched.Job, len(s.pending))
		copy(pending, s.pending)
		draining := s.draining
		s.mu.Unlock()

		if len(pending) == 0 {
			if draining {
				return
			}
			<-s.wake
			continue
		}
		batch := sched.Schedule(pending, s.cfg.Budget)
		s.metrics.addCounter(mBatches, "", 1)
		for _, unit := range batch.Units {
			s.execUnit(unit)
		}
	}
}

// finish records a unit's outcome for all its jobs and removes them
// from the queue. Outcomes feed the tenant's quarantine: any failure
// except a store outage (the breaker's domain, not the tenant's fault)
// counts toward tripping it, and a success clears it.
func (s *Service) finish(unit sched.Unit, version uint64, err error) {
	now := s.cfg.Clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	done := make(map[uint64]bool, len(unit.Jobs))
	for _, j := range unit.Jobs {
		done[j.ID] = true
		rec := s.jobs[j.ID]
		rec.info.LatencyMs = now.Sub(j.Submitted).Seconds() * 1e3
		kind := label("kind", j.Kind.String())
		if err != nil {
			rec.info.State = JobFailed
			rec.info.Error = err.Error()
			s.metrics.addCounter(mFailed, kind, 1)
		} else {
			rec.info.State = JobDone
			rec.info.Version = version
			s.metrics.addCounter(mCompleted, kind, 1)
		}
		s.pendingBytes -= rec.bytes
		rec.bytes = 0
		rec.req = nil // payload is no longer needed; release the memory
		s.metrics.observe(mJobLatency, kind, now.Sub(j.Submitted).Seconds())
	}
	kept := s.pending[:0]
	depth := 0
	for _, j := range s.pending {
		if !done[j.ID] {
			kept = append(kept, j)
			if j.Tenant == unit.Tenant {
				depth++
			}
		}
	}
	s.pending = kept
	s.metrics.setGauge(mQueueDepth, label("tenant", unit.Tenant), float64(depth))
	if err == nil {
		s.metrics.setGauge(mSnapVer, label("tenant", unit.Tenant), float64(version))
	}
	if meta := s.tenants[unit.Tenant]; meta != nil && s.cfg.QuarantineAfter > 0 {
		switch {
		case err == nil:
			if meta.quar.onSuccess() {
				s.quarCount--
				s.metrics.addCounter(mResQuarTrans, label("event", "cleared"), 1)
			}
		case errors.Is(err, errStoreUnavailable):
			// A store outage is not the tenant's fault; the probe slot
			// reopens without re-tripping.
			meta.quar.probing = false
		default:
			wasActive := meta.quar.active
			if meta.quar.onFailure(now) {
				if !wasActive {
					s.quarCount++
				}
				s.metrics.addCounter(mResQuarTrans, label("event", "tripped"), 1)
			}
		}
		s.metrics.setGauge(mResQuarantined, "", float64(s.quarCount))
	}
}

// execUnit runs one scheduled unit to completion and publishes the
// resulting snapshot. The unit runs under a recover guard and a
// cost-proportional deadline; with the store breaker open it fails
// fast instead of queueing behind a dead disk.
func (s *Service) execUnit(unit sched.Unit) {
	now := s.cfg.Clock()
	s.mu.Lock()
	reqs := make([]*jobRequest, len(unit.Jobs))
	for i, j := range unit.Jobs {
		rec := s.jobs[j.ID]
		rec.info.State = JobRunning
		reqs[i] = rec.req
	}
	meta := s.tenants[unit.Tenant]
	brkOK := true
	if s.store != nil && s.brk != nil {
		prev := s.brk.state
		brkOK = s.brk.allowExec(now)
		s.noteBreakerState(prev)
	}
	s.mu.Unlock()
	if !brkOK {
		s.finish(unit, 0, fmt.Errorf("%w: circuit open, failing fast", errStoreUnavailable))
		return
	}
	if len(unit.Jobs) > 1 {
		s.metrics.addCounter(mCoalesced, "", float64(len(unit.Jobs)-1))
	}

	version, err := s.runGuarded(unit, reqs, meta)
	s.finish(unit, version, err)
}

// noteBreakerState emits breaker metrics after a possible transition;
// the caller holds s.mu and passes the state before the mutation.
func (s *Service) noteBreakerState(prev breakerState) {
	if s.brk.state != prev {
		s.metrics.addCounter(mResBreakerTrans, label("to", s.brk.state.String()), 1)
	}
	s.metrics.setGauge(mResBreaker, "", float64(s.brk.state))
}

// noteStoreOutcome feeds one finished persist operation (after retries)
// into the circuit breaker.
func (s *Service) noteStoreOutcome(failed bool) {
	if s.brk == nil {
		return
	}
	now := s.cfg.Clock()
	s.mu.Lock()
	prev := s.brk.state
	if failed {
		s.brk.onFailure(now)
	} else {
		s.brk.onSuccess()
	}
	s.noteBreakerState(prev)
	s.mu.Unlock()
}

// unitResult carries a guarded unit's outcome across the goroutine
// boundary.
type unitResult struct {
	version uint64
	err     error
}

// runGuarded executes the unit in its own goroutine with a recover
// guard and a cost-proportional deadline. A panic fails only this unit;
// a deadline overrun abandons it — the claimed flag guarantees an
// abandoned unit can never persist or publish, so the ledger and the
// durable chain never diverge. If publication already began when the
// timer fires, the guard waits for it instead: a result that may reach
// disk must also reach the ledger.
func (s *Service) runGuarded(unit sched.Unit, reqs []*jobRequest, meta *tenantMeta) (uint64, error) {
	claimed := new(atomic.Bool)
	done := make(chan unitResult, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				s.metrics.addCounter(mResPanics, label("tenant", unit.Tenant), 1)
				done <- unitResult{err: fmt.Errorf("%w: %v", errPanic, r)}
			}
		}()
		if err := s.failpoint(FailExec, unit.Tenant); err != nil {
			done <- unitResult{err: err}
			return
		}
		v, err := s.runUnit(unit, reqs, meta, claimed)
		done <- unitResult{version: v, err: err}
	}()
	limit := unitDeadline(DefaultDeadlineBase, DefaultDeadlinePerCost, unit.Cost, DefaultDeadlineMax)
	timeout := s.cfg.After(limit)
	select {
	case res := <-done:
		return res.version, res.err
	case <-timeout:
		if claimed.CompareAndSwap(false, true) {
			// The unit never reached its publication point; abandon it.
			// The goroutine may keep computing but can never persist a
			// record or swap a snapshot.
			s.metrics.addCounter(mResDeadline, label("tenant", unit.Tenant), 1)
			return 0, fmt.Errorf("%w: %s unit over %v", errDeadline, unit.Tenant, limit)
		}
		res := <-done
		return res.version, res.err
	}
}

// runUnit executes the unit's work: a decomposition, or a (possibly
// coalesced) update run against the tenant's current snapshot. The
// claimed flag is the publication gate shared with the deadline guard:
// runUnit must win the claim before anything persists or publishes, so
// an abandoned unit leaves no durable or served trace.
func (s *Service) runUnit(unit sched.Unit, reqs []*jobRequest, meta *tenantMeta, claimed *atomic.Bool) (uint64, error) {
	prev := meta.store.load()
	var prevVersion uint64
	if prev != nil {
		prevVersion = prev.Version
	}

	switch unit.Jobs[0].Kind {
	case sched.Decompose:
		req := reqs[0]
		opts := req.opts
		opts.Updatable = true
		if opts.Workers == 0 {
			opts.Workers = s.cfg.Workers
		}
		d, err := core.DecomposeSparse(req.base, req.method, opts)
		if err != nil {
			return 0, err
		}
		pred, err := recommend.FromSparseDecomposition(d, req.min, req.max)
		if err != nil {
			return 0, err
		}
		next := &Snapshot{
			Version: prevVersion + 1,
			JobID:   unit.Jobs[0].ID,
			Pred:    pred,
			Decomp:  d,
			Rows:    req.base.Rows,
			Cols:    req.base.Cols,
			Rank:    d.Rank,
		}
		if !claimed.CompareAndSwap(false, true) {
			return 0, fmt.Errorf("%w: result discarded", errDeadline)
		}
		if s.store != nil {
			// Durability before acknowledgement: the snapshot reaches
			// disk (fsync + atomic rename) before the job can report
			// done or the model serve. On failure nothing is published.
			err := s.persistSnapshot(unit.Tenant, d, store.SnapshotMeta{
				Seq: next.Version, JobID: next.JobID,
				MinRating: req.min, MaxRating: req.max,
				IdemKey: req.idemKey,
			})
			if err != nil {
				return 0, err
			}
			meta.genKeyed.Store(req.idemKey != "")
		}
		meta.store.swap(next)
		s.publishHealth(unit.Tenant, core.Health{}, d.Health())
		return next.Version, nil

	case sched.Update:
		if prev == nil {
			return 0, fmt.Errorf("service: tenant %q has no completed model to update", unit.Tenant)
		}
		// Coalesced jobs merge into one batch with last-wins set
		// semantics per cell — a later job's patch overwrites an earlier
		// patch or tombstone of the same cell, and a later tombstone
		// overwrites an earlier patch. The merge is deterministic: jobs
		// in admission order, first-touch cell order. Jobs carrying a
		// forget factor or their own budgets are never coalesced (see
		// Submit), so λ and the budgets belong to the unit's single job
		// when set.
		last := reqs[len(reqs)-1]
		type cellOp struct {
			t    sparse.ITriplet
			tomb bool
		}
		ops := make([]cellOp, 0, len(reqs[0].patch)+len(reqs[0].unpatch))
		at := make(map[[2]int]int)
		place := func(key [2]int, op cellOp) {
			if i, ok := at[key]; ok {
				ops[i] = op
				return
			}
			at[key] = len(ops)
			ops = append(ops, op)
		}
		for _, req := range reqs {
			for _, t := range req.patch {
				place([2]int{t.Row, t.Col}, cellOp{t: t})
			}
			for _, c := range req.unpatch {
				place([2]int{c.Row, c.Col}, cellOp{t: sparse.ITriplet{Row: c.Row, Col: c.Col}, tomb: true})
			}
		}
		delta := core.Delta{Forget: last.forget}
		for _, op := range ops {
			if op.tomb {
				delta.Unpatch = append(delta.Unpatch, sparse.Cell{Row: op.t.Row, Col: op.t.Col})
			} else {
				delta.Patch = append(delta.Patch, op.t)
			}
		}
		opts := core.Options{
			RefreshBudget: last.refreshBudget,
			OrthoBudget:   last.orthoBudget,
			Workers:       last.workers,
		}
		if opts.Workers == 0 {
			opts.Workers = s.cfg.Workers
		}
		prevHealth := prev.Decomp.Health()
		d2, err := prev.Decomp.Update(delta, opts)
		if err != nil {
			return 0, err
		}
		pred, err := recommend.FromSparseDecomposition(d2, prev.Pred.Min, prev.Pred.Max)
		if err != nil {
			return 0, err
		}
		next := &Snapshot{
			Version: prevVersion + 1,
			JobID:   unit.Jobs[len(unit.Jobs)-1].ID,
			Pred:    pred,
			Decomp:  d2,
			Rows:    prev.Rows,
			Cols:    prev.Cols,
			Rank:    prev.Rank,
		}
		if !claimed.CompareAndSwap(false, true) {
			return 0, fmt.Errorf("%w: result discarded", errDeadline)
		}
		health := d2.Health()
		if s.store != nil {
			// The merged delta and the policies that shaped d2 go to the
			// write-ahead log (fsynced) before the job can be
			// acknowledged; replay re-derives d2 bitwise from them —
			// including any guardrail escalation, which reads only the
			// persisted inputs. The record also carries every coalesced
			// job's idempotency key, so a restarted server still dedupes
			// their retries.
			var acked []store.IdemAck
			for i, req := range reqs {
				if req.idemKey != "" {
					acked = append(acked, store.IdemAck{JobID: unit.Jobs[i].ID, Key: req.idemKey})
				}
			}
			escalated := health.Refreshes > prevHealth.Refreshes || health.Redecomposes > prevHealth.Redecomposes
			err := s.persistUpdate(unit.Tenant, meta, next, escalated, &store.WALRecord{
				Seq: next.Version, JobID: next.JobID,
				RefreshBudget: opts.RefreshBudget,
				OrthoBudget:   opts.OrthoBudget,
				Acked:         acked,
				Delta:         delta,
			})
			if err != nil {
				return 0, err
			}
		}
		meta.store.swap(next)
		s.publishHealth(unit.Tenant, prevHealth, health)
		return next.Version, nil
	}
	return 0, fmt.Errorf("service: unknown job kind")
}

// publishHealth exports one tenant's model-health report after a
// snapshot swap: the measured gauges verbatim, and the escalation
// counters as deltas against the pre-update report (the chain's
// counters are cumulative; the metric families count escalations
// observed by this process).
func (s *Service) publishHealth(tenant string, prev, cur core.Health) {
	lbl := label("tenant", tenant)
	s.metrics.setGauge(mHealthResidual, lbl, cur.ResidualBudgetUsed)
	s.metrics.setGauge(mHealthOrtho, lbl, cur.OrthoDrift)
	s.metrics.setGauge(mHealthCond, lbl, cur.Cond)
	s.metrics.setGauge(mHealthSinceRefresh, lbl, float64(cur.UpdatesSinceRefresh))
	if n := cur.Refreshes - prev.Refreshes; n > 0 {
		s.metrics.addCounter(mHealthEscalations, label("level", "refresh"), float64(n))
	}
	if n := cur.Redecomposes - prev.Redecomposes; n > 0 {
		s.metrics.addCounter(mHealthEscalations, label("level", "redecompose"), float64(n))
	}
}
