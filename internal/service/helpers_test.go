package service

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/interval"
	"repro/internal/oracle"
	"repro/internal/sparse"
)

// leakCheck snapshots the goroutine count; the returned func fails the
// test if, after a grace period for asynchronous teardown, more
// goroutines are alive than before — with full stack dumps so the
// leaker is identifiable. Use as the FIRST defer so it runs after every
// other cleanup:
//
//	defer leakCheck(t)()
//	... Start / Drain / Shutdown / Close ...
func leakCheck(tb testing.TB) func() {
	before := runtime.NumGoroutine()
	return func() {
		if tb.Failed() {
			return // don't pile a leak report on top of the real failure
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			n := runtime.NumGoroutine()
			if n <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				sz := runtime.Stack(buf, true)
				tb.Fatalf("goroutine leak: %d before, %d after\n%s", before, n, buf[:sz])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// decodeBody drains one JSON response body.
func decodeBody(resp *http.Response, out any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// testMatrix builds a small deterministic interval ratings matrix with
// strictly positive endpoints (so every ISVD method admits updates) and
// at least one observation in every row and column.
func testMatrix(tb testing.TB, seed int64, rows, cols int, density float64) *sparse.ICSR {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	var ts []sparse.ITriplet
	seen := make(map[[2]int]bool)
	add := func(i, j int) {
		if seen[[2]int{i, j}] {
			return
		}
		seen[[2]int{i, j}] = true
		mid := 1 + 4*rng.Float64()
		w := 0.3 * rng.Float64()
		ts = append(ts, sparse.ITriplet{Row: i, Col: j, Lo: mid - w, Hi: mid + w})
	}
	for i := 0; i < rows; i++ {
		add(i, i%cols)
	}
	for j := 0; j < cols; j++ {
		add(j%rows, j)
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				add(i, j)
			}
		}
	}
	m, err := sparse.FromICOO(rows, cols, ts)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// cooText renders a matrix as the interval-COO payload of a decompose
// request.
func cooText(tb testing.TB, m *sparse.ICSR) string {
	tb.Helper()
	var sb strings.Builder
	if err := dataset.WriteIntervalCOO(&sb, m); err != nil {
		tb.Fatal(err)
	}
	return sb.String()
}

// deltaText renders a cell patch as the delta-COO payload of an update
// request.
func deltaText(tb testing.TB, rows, cols int, ts []sparse.ITriplet) string {
	tb.Helper()
	var sb strings.Builder
	if err := dataset.WriteDeltaCOO(&sb, rows, cols, ts); err != nil {
		tb.Fatal(err)
	}
	return sb.String()
}

// submitEnvelope pushes a Request through the same decode path the HTTP
// handler uses, then into Submit.
func submitEnvelope(s *Service, req Request) (JobInfo, error) {
	return submitEnvelopeIdem(s, req, "")
}

// submitEnvelopeIdem is submitEnvelope carrying an Idempotency-Key, the
// way the HTTP handler attaches it after validation.
func submitEnvelopeIdem(s *Service, req Request, key string) (JobInfo, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return JobInfo{}, err
	}
	jr, err := decodeRequest(data, s.cfg.MaxBodyBytes)
	if err != nil {
		return JobInfo{}, err
	}
	jr.idemKey = key
	return s.Submit(jr)
}

func mustSubmit(tb testing.TB, s *Service, req Request) JobInfo {
	tb.Helper()
	info, err := submitEnvelope(s, req)
	if err != nil {
		tb.Fatal(err)
	}
	return info
}

// waitJob polls a job until it terminates, failing the test on a
// JobFailed outcome.
func waitJob(tb testing.TB, s *Service, id uint64) JobInfo {
	tb.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		info, err := s.Job(id)
		if err != nil {
			tb.Fatal(err)
		}
		switch info.State {
		case JobDone:
			return info
		case JobFailed:
			tb.Fatalf("job %d failed: %s", id, info.Error)
		}
		time.Sleep(time.Millisecond)
	}
	tb.Fatalf("job %d did not finish", id)
	return JobInfo{}
}

// replay runs acknowledged job envelopes through the offline oracle.
func replay(tb testing.TB, reqs ...Request) *oracle.Chain {
	tb.Helper()
	c := &oracle.Chain{}
	for _, r := range reqs {
		if err := c.Apply(oracle.Job(r)); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// gridCells lists every cell of a rows x cols model.
func gridCells(rows, cols int) [][2]int {
	cells := make([][2]int, 0, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			cells = append(cells, [2]int{i, j})
		}
	}
	return cells
}

// served reads a snapshot's answers for cells.
func served(tb testing.TB, snap *Snapshot, cells [][2]int) []interval.Interval {
	tb.Helper()
	out := make([]interval.Interval, len(cells))
	for k, c := range cells {
		iv, err := snap.Pred.PredictInterval(c[0], c[1])
		if err != nil {
			tb.Fatal(err)
		}
		out[k] = iv
	}
	return out
}

// servedWire converts an HTTP predict answer for the oracle.
func servedWire(resp *PredictResponse) []interval.Interval {
	out := make([]interval.Interval, len(resp.Predictions))
	for k, p := range resp.Predictions {
		out[k] = interval.Interval{Lo: p.Lo, Hi: p.Hi}
	}
	return out
}

// assertServed pins a tenant's served answers over every cell, bitwise,
// to the oracle's replay of its acknowledged jobs.
func assertServed(tb testing.TB, s *Service, tenant string, acked ...Request) {
	tb.Helper()
	snap := s.Snapshot(tenant)
	if snap == nil {
		tb.Fatalf("tenant %q has no snapshot", tenant)
	}
	cells := gridCells(snap.Rows, snap.Cols)
	mm, err := replay(tb, acked...).Check(cells, served(tb, snap, cells))
	if err != nil {
		tb.Fatal(err)
	}
	if len(mm) > 0 {
		tb.Fatalf("tenant %q: %d cells differ from the offline chain, first %v", tenant, len(mm), mm[0])
	}
}
