package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/service"
)

// Load generation. One driver process holds at most two connections to
// ivmfd: the writer connection carries job submits, job polls and
// /metrics scrapes; the reader connection carries the open-loop reads.

const (
	// pollEvery is the writer's job-poll interval.
	pollEvery = 5 * time.Millisecond
	// jobTimeout marks a job that never reaches a terminal state as
	// stuck (a failed operation).
	jobTimeout = 2 * time.Minute
)

// newClient returns an ivmfd client on its own single-connection
// transport, without retries: every failure is counted.
func newClient(base string) *service.Client {
	return &service.Client{Base: base, HTTPClient: &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

// closeClient releases the client's idle connection.
func closeClient(c *service.Client) {
	c.HTTPClient.Transport.(*http.Transport).CloseIdleConnections()
}

// jobRec is one submitted job and what the client saw of it.
type jobRec struct {
	tenant    int
	kind      string // "decompose" or "update"
	input     int    // update: index into the tenant's updates; decompose: set-up variant, -1 for its own base
	life      int    // which ivmfd process acknowledged it
	submit    time.Time
	submitRTT time.Duration
	ack       time.Time // when the client first saw state done
	polls     int
	info      service.JobInfo
}

// ackLatency is the client-observed latency: submit until done seen.
func (j *jobRec) ackLatency() time.Duration { return j.ack.Sub(j.submit) }

// readRec is one read and its answer. Open-loop reads carry their due
// time; probe reads (final-state and recovery checks) do not.
type readRec struct {
	tenant   int
	topn     bool
	cells    [][2]int
	row      int
	openLoop bool
	due      time.Time
	sent     time.Time
	done     time.Time
	version  uint64
	preds    []service.Prediction
	items    []int
	checked  bool // matched against the replay oracle
}

// topnN is the item count of every topn read.
const topnN = 10

// request renders a job record into the wire envelope.
func (r *runner) request(j *jobRec) service.Request {
	t := r.tenants[j.tenant]
	if j.kind == "decompose" {
		coo := t.baseCOO
		if j.input >= 0 {
			coo = r.setupBases[j.input][j.tenant]
		}
		return service.Request{Tenant: t.name, Kind: "decompose", Method: "ISVD4", Rank: t.rank,
			Target: "b", Min: 1, Max: 5, COO: coo}
	}
	u := t.updates[j.input]
	return service.Request{Tenant: t.name, Kind: "update", Delta: u.delta, Forget: u.forget}
}

// pump drives the writer connection: every tenant keeps at most one job
// in flight, and next supplies a tenant's next job (ok=false when it has
// none to submit now). It returns once no job is in flight and no
// tenant has one to submit, or at the first failed operation.
func (r *runner) pump(c *service.Client, next func(t int) (jobRec, bool)) error {
	ctx := context.Background()
	inflight := make([]*jobRec, len(r.tenants))
	for {
		active, progressed := false, false
		for t := range r.tenants {
			if j := inflight[t]; j != nil {
				info, err := c.Job(ctx, j.info.ID)
				j.polls++
				now := time.Now()
				switch {
				case err != nil:
					return r.fail("poll job %d: %v", j.info.ID, err)
				case info.State == service.JobDone:
					j.ack, j.info = now, info
					r.acked(j)
					inflight[t] = nil
					progressed = true
				case info.State == service.JobFailed:
					return r.fail("job %d (%s %s) failed: %s", info.ID, j.kind, info.Tenant, info.Error)
				case now.Sub(j.submit) > jobTimeout:
					return r.fail("job %d stuck in state %q", info.ID, info.State)
				default:
					active = true
				}
			}
			if inflight[t] == nil {
				j, ok := next(t)
				if !ok {
					continue
				}
				req := r.request(&j)
				r.attempted++
				j.submit = time.Now()
				info, err := c.Submit(ctx, req)
				j.submitRTT = time.Since(j.submit)
				if err != nil {
					return r.fail("submit %s for %s: %v", j.kind, req.Tenant, err)
				}
				j.info, j.life = info, r.life
				inflight[t] = &j
				active, progressed = true, true
			}
		}
		if !active {
			return nil
		}
		if !progressed {
			time.Sleep(pollEvery)
		}
	}
}

// readPlan draws the open-loop read sequence for a workload from the
// seed: each read picks a tenant, then is a topn of one row with
// probability topnShare, otherwise a predict of cellsPerRead cells.
func readPlan(tenants []*tenantInput, n, cellsPerRead int, topnShare float64, rng *rand.Rand) []*readRec {
	plan := make([]*readRec, n)
	for i := range plan {
		t := rng.Intn(len(tenants))
		rd := &readRec{tenant: t, openLoop: true}
		if rng.Float64() < topnShare {
			rd.topn = true
			rd.row = rng.Intn(tenants[t].rows)
		} else {
			rd.cells = randomCells(tenants[t], cellsPerRead, rng)
		}
		plan[i] = rd
	}
	return plan
}

// randomCells draws n uniform cells of a tenant's matrix.
func randomCells(t *tenantInput, n int, rng *rand.Rand) [][2]int {
	cells := make([][2]int, n)
	for i := range cells {
		cells[i] = [2]int{rng.Intn(t.rows), rng.Intn(t.cols)}
	}
	return cells
}

// readLoop sends the plan open-loop on the reader connection: read i is
// due at start + i/rate whatever happened to earlier reads, and reads
// due at or after the deadline are not sent. It returns the reads sent
// and how many failed.
func readLoop(c *service.Client, tenants []*tenantInput, plan []*readRec, start, deadline time.Time, rate float64) (sent []*readRec, failed int, firstErr error) {
	ctx := context.Background()
	for i, rd := range plan {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if !due.Before(deadline) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		rd.due, rd.sent = due, time.Now()
		if err := doRead(ctx, c, tenants[rd.tenant].name, rd); err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
		rd.done = time.Now()
		sent = append(sent, rd)
	}
	return sent, failed, firstErr
}

// doRead issues one read and records its answer.
func doRead(ctx context.Context, c *service.Client, tenant string, rd *readRec) error {
	if rd.topn {
		resp, err := c.TopN(ctx, tenant, rd.row, topnN)
		if err != nil {
			return fmt.Errorf("topn %s row %d: %w", tenant, rd.row, err)
		}
		rd.version, rd.items = resp.Version, resp.Items
		return nil
	}
	resp, err := c.Predict(ctx, tenant, rd.cells)
	if err != nil {
		return fmt.Errorf("predict %s: %w", tenant, err)
	}
	rd.version, rd.preds = resp.Version, resp.Predictions
	return nil
}
