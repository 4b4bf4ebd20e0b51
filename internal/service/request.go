package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"regexp"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eig"
	"repro/internal/service/sched"
	"repro/internal/sparse"
	"repro/internal/store"
)

// Request is the JSON job envelope of POST /v1/jobs. The matrix payload
// rides embedded as interval-COO text (decompositions) or delta-COO
// text (updates) — the same formats cmd/datagen writes and
// dataset.ReadIntervalCOO/ReadDeltaCOO parse, so a recorded stream
// replays against the service byte-for-byte.
type Request struct {
	// Tenant names the model; [A-Za-z0-9._-], at most 64 chars,
	// excluding "." and "..".
	Tenant string `json:"tenant"`
	// Kind is "decompose" or "update".
	Kind string `json:"kind"`

	// Decompose-only knobs. Method is "ISVD0".."ISVD4"; Rank 0 means
	// full rank; Target is "a"/"b"/"c"; Solver is "auto"/"full"/
	// "truncated"; Min/Max clamp served predictions (Max <= Min
	// disables clamping).
	Method string  `json:"method,omitempty"`
	Rank   int     `json:"rank,omitempty"`
	Target string  `json:"target,omitempty"`
	Solver string  `json:"solver,omitempty"`
	Min    float64 `json:"min,omitempty"`
	Max    float64 `json:"max,omitempty"`

	// Per-request execution knobs, valid for both kinds. Workers bounds
	// the job's pool fan-outs (0 = server default); Refresh ("auto",
	// "never" or "always") and a finite, non-negative RefreshBudget set
	// the update's refresh budget (never and always override the budget
	// with ±Inf; see core.WireRefreshBudget); OrthoBudget sets the
	// orthogonality-drift guardrail (0 = engine default).
	Workers       int     `json:"workers,omitempty"`
	Refresh       string  `json:"refresh,omitempty"`
	RefreshBudget float64 `json:"refreshBudget,omitempty"`
	OrthoBudget   float64 `json:"orthoBudget,omitempty"`

	// Forget is the update's sliding-window forgetting factor λ ∈
	// (0, 1]: retained history is decayed by λ before the delta's cells
	// apply. 0 (absent) and 1 both mean no decay; 1 is pinned as a
	// bitwise no-op.
	Forget float64 `json:"forget,omitempty"`

	// COO is the decompose payload: interval COO text
	// ("rows,cols" header, then "row,col,value" records).
	COO string `json:"coo,omitempty"`
	// Delta is the update payload: delta COO text in the same layout,
	// plus tombstone records ("row,col,x") that expire cells; its header
	// must match the tenant's model shape, value records are applied as
	// a cell patch (set semantics), and tombstones revert cells to
	// unobserved.
	Delta string `json:"delta,omitempty"`
}

// jobRequest is a decoded, validated envelope: payloads parsed into
// O(NNZ) sparse storage (the text is dropped), knobs resolved to their
// internal types. This is what queues reside as.
type jobRequest struct {
	tenant string
	kind   sched.Kind

	// Decompose.
	method   core.Method
	opts     core.Options // rank/target/solver/workers; Updatable set at exec
	min, max float64
	base     *sparse.ICSR

	// Update. patchRows/patchCols is the delta header shape, checked
	// against the tenant's model at admission; unpatch lists tombstoned
	// cells (their storedness is checked at execution, against the model
	// the update actually runs on).
	patch                []sparse.ITriplet
	unpatch              []sparse.Cell
	patchRows, patchCols int

	// Shared update policy; refreshBudget is the effective budget, the
	// wire's policy name folded in (core.WireRefreshBudget).
	refreshBudget float64
	orthoBudget   float64
	forget        float64
	workers       int

	// idemKey is the submission's Idempotency-Key (empty = none);
	// bytes estimates the payload's resident size for the admission
	// byte budget.
	idemKey string
	bytes   int64
}

// Boundary errors the HTTP layer maps to status codes.
var (
	errTooLarge    = errors.New("service: request body exceeds the size limit")
	errDraining    = errors.New("service: draining, not admitting jobs")
	errQueueFull   = errors.New("service: tenant queue is full")
	errNoModel     = errors.New("service: tenant has no model")
	errNotFound    = errors.New("service: not found")
	errQuarantined = errors.New("service: tenant quarantined after consecutive job failures")
	// errStoreUnavailable classifies store-outage failures: the circuit
	// breaker's domain, never the tenant's fault.
	errStoreUnavailable = errors.New("service: model store unavailable")
	errPanic            = errors.New("service: job panicked")
	errDeadline         = errors.New("service: job deadline exceeded")
)

// retryAfterError attaches a client retry hint to a rejection; the HTTP
// layer renders it as a Retry-After header.
type retryAfterError struct {
	err   error
	after time.Duration
}

func (e *retryAfterError) Error() string { return e.err.Error() }
func (e *retryAfterError) Unwrap() error { return e.err }

func withRetryAfter(err error, after time.Duration) error {
	return &retryAfterError{err: err, after: after}
}

// tenantRE is the tenant-name grammar. Restricting names to this set
// keeps them safe as metric label values and log tokens with no
// escaping anywhere downstream.
var tenantRE = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// validTenant is the admission rule for tenant names: the grammar minus
// the path-traversal names "." and "..", matching store.checkTenant —
// rejecting them here keeps a decomposition for an unpersistable tenant
// from running to completion only to fail at snapshot time.
func validTenant(name string) bool {
	return name != "." && name != ".." && tenantRE.MatchString(name)
}

// idemKeyRE is the Idempotency-Key grammar: the tenant character set
// plus ':' (clients commonly build keys like "tenant:job:17"), bounded
// at store.MaxIdemKeyLen so every accepted key persists losslessly in
// the WAL/snapshot meta.
var idemKeyRE = regexp.MustCompile(`^[A-Za-z0-9._:-]{1,64}$`)

// validIdemKey is the admission rule for idempotency keys.
func validIdemKey(key string) bool {
	return len(key) <= store.MaxIdemKeyLen && idemKeyRE.MatchString(key)
}

// decodeRequest parses and validates a job envelope. maxBytes caps the
// raw body before any decoding, so a hostile size is rejected before
// allocation; the embedded COO parsers additionally cap declared matrix
// dimensions, so a small body cannot demand a huge allocation either.
// The returned jobRequest carries payloads in sparse form only.
func decodeRequest(data []byte, maxBytes int64) (*jobRequest, error) {
	if int64(len(data)) > maxBytes {
		return nil, fmt.Errorf("%w: %d bytes > %d", errTooLarge, len(data), maxBytes)
	}
	var req Request
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("service: bad request envelope: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("service: bad request envelope: trailing data")
	}
	return validateRequest(&req)
}

// validateRequest resolves an envelope into a jobRequest.
func validateRequest(req *Request) (*jobRequest, error) {
	if !validTenant(req.Tenant) {
		return nil, fmt.Errorf("service: bad tenant %q (want 1-64 chars of [A-Za-z0-9._-], not . or ..)", req.Tenant)
	}
	jr := &jobRequest{tenant: req.Tenant, workers: req.Workers}
	if req.Workers < 0 {
		return nil, fmt.Errorf("service: negative workers %d", req.Workers)
	}
	budget, err := core.WireRefreshBudget(req.Refresh, req.RefreshBudget)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	jr.refreshBudget = budget
	if req.OrthoBudget < 0 || math.IsNaN(req.OrthoBudget) || math.IsInf(req.OrthoBudget, 0) {
		return nil, fmt.Errorf("service: bad orthoBudget %g", req.OrthoBudget)
	}
	jr.orthoBudget = req.OrthoBudget
	if req.Forget != 0 && !(req.Forget > 0 && req.Forget <= 1) || math.IsNaN(req.Forget) {
		return nil, fmt.Errorf("service: bad forget %g (want 0 < λ <= 1)", req.Forget)
	}
	jr.forget = req.Forget

	switch req.Kind {
	case "decompose":
		jr.kind = sched.Decompose
		if req.Delta != "" {
			return nil, fmt.Errorf("service: decompose request carries a delta payload")
		}
		if req.Forget != 0 {
			return nil, fmt.Errorf("service: decompose request carries an update-only forget factor")
		}
		method := req.Method
		if method == "" {
			method = "ISVD4"
		}
		m, err := core.ParseMethod(method)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		jr.method = m
		if req.Rank < 0 {
			return nil, fmt.Errorf("service: negative rank %d", req.Rank)
		}
		jr.opts = core.Options{Rank: req.Rank, Workers: req.Workers}
		if req.Target != "" {
			tg, err := core.ParseTarget(req.Target)
			if err != nil {
				return nil, fmt.Errorf("service: %w", err)
			}
			jr.opts.Target = tg
		}
		if req.Solver != "" {
			sv, err := eig.ParseSolver(req.Solver)
			if err != nil {
				return nil, fmt.Errorf("service: %w", err)
			}
			jr.opts.Solver = sv
		}
		if math.IsNaN(req.Min) || math.IsInf(req.Min, 0) || math.IsNaN(req.Max) || math.IsInf(req.Max, 0) {
			return nil, fmt.Errorf("service: non-finite rating clamp [%g, %g]", req.Min, req.Max)
		}
		jr.min, jr.max = req.Min, req.Max
		base, err := dataset.ReadIntervalCOO(strings.NewReader(req.COO))
		if err != nil {
			return nil, fmt.Errorf("service: decompose payload: %w", err)
		}
		if base.NNZ() == 0 {
			return nil, fmt.Errorf("service: decompose payload has no observed cells")
		}
		jr.base = base
		// Resident estimate: per-cell CSR storage (colind + two interval
		// planes + triplet slack) plus the row pointer array.
		jr.bytes = int64(base.NNZ())*40 + int64(base.Rows+1)*8
		return jr, nil

	case "update":
		jr.kind = sched.Update
		if req.COO != "" || req.Method != "" || req.Target != "" || req.Solver != "" || req.Rank != 0 {
			return nil, fmt.Errorf("service: update request carries decompose-only fields")
		}
		// The delta parses as a free-standing batch here (its own header
		// bounds the indices, tombstone records become unpatch cells);
		// admission pins the header to the tenant's model shape, and the
		// engine itself rejects tombstones for never-inserted cells when
		// the update runs, exactly like dataset.ReadDeltaCOO.
		rows, cols, batch, err := dataset.ParseDeltaCOO(strings.NewReader(req.Delta))
		if err != nil {
			return nil, fmt.Errorf("service: update payload: %w", err)
		}
		if len(batch.Patch)+len(batch.Tombstones) == 0 && jr.forget == 0 {
			return nil, fmt.Errorf("service: update payload has no cells")
		}
		jr.patchRows, jr.patchCols = rows, cols
		jr.patch = batch.Patch
		jr.unpatch = batch.Tombstones
		jr.bytes = int64(len(jr.patch))*40 + int64(len(jr.unpatch))*16
		return jr, nil

	default:
		return nil, fmt.Errorf("service: unknown job kind %q (want decompose or update)", req.Kind)
	}
}
