package service

// End-to-end test over a real HTTP round trip: an in-process ivmfd
// serves a base decomposition plus a three-delta stream, and every
// served prediction must match the oracle's offline replay of the same
// envelopes bitwise — the service is a transport around the library,
// never a different numerical path.

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/interval"
	"repro/internal/oracle"
	"repro/internal/sparse"
)

func TestServiceEndToEnd(t *testing.T) {
	const (
		rows, cols = 40, 25
		rank       = 8
		nDeltas    = 3
		tenant     = "ml-e2e"
	)
	m := testMatrix(t, 29, rows, cols, 0.3)
	base, deltas, err := dataset.StreamSplit(m, 0.25, nDeltas, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	baseCSR, err := sparse.FromICOO(rows, cols, base)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{{
		Tenant: tenant, Kind: "decompose", Method: "ISVD4",
		Rank: rank, Target: "b", Min: 1, Max: 5, COO: cooText(t, baseCSR),
	}}
	for _, patch := range deltas {
		reqs = append(reqs, Request{Tenant: tenant, Kind: "update", Delta: deltaText(t, rows, cols, patch)})
	}
	probes := probeCells(rows, cols, 10, 31)
	want := offlineStates(t, probes, reqs...)

	s := New(Config{})
	s.Start()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer s.Drain(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c := &Client{Base: srv.URL}

	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}

	// checkState compares served predictions against one offline state.
	checkState := func(stage int, wantVersion uint64) {
		t.Helper()
		resp, err := c.Predict(ctx, tenant, probes)
		if err != nil {
			t.Fatalf("stage %d predict: %v", stage, err)
		}
		if resp.Version != wantVersion {
			t.Fatalf("stage %d served version %d, want %d", stage, resp.Version, wantVersion)
		}
		for _, m := range oracle.Diff(probes, servedWire(resp), want[stage]) {
			t.Errorf("stage %d %v", stage, m)
		}
		for ci, p := range resp.Predictions {
			if p.Row != probes[ci][0] || p.Col != probes[ci][1] || p.Mid != (interval.Interval{Lo: p.Lo, Hi: p.Hi}).Mid() {
				t.Fatalf("stage %d cell %d echoed (%d,%d) mid %v, want %v mid of [%v,%v]",
					stage, ci, p.Row, p.Col, p.Mid, probes[ci], p.Lo, p.Hi)
			}
		}
	}

	// Base decomposition.
	info, err := c.Submit(ctx, reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if info.State != JobQueued || info.ID == 0 {
		t.Fatalf("submit returned %+v", info)
	}
	if info, err = c.WaitJob(ctx, info.ID, time.Millisecond); err != nil || info.State != JobDone {
		t.Fatalf("decompose job ended %+v (err %v)", info, err)
	}
	checkState(0, 1)

	// Delta stream, one at a time so the versions step with the offline
	// chain (waiting between submissions also means no coalescing).
	for k, req := range reqs[1:] {
		info, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatalf("delta %d: %v", k, err)
		}
		if info, err = c.WaitJob(ctx, info.ID, time.Millisecond); err != nil || info.State != JobDone {
			t.Fatalf("delta %d job ended %+v (err %v)", k, info, err)
		}
		checkState(k+1, uint64(k+2))
	}

	// TopN rides the same snapshot machinery.
	topn, err := c.TopN(ctx, tenant, probes[0][0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if topn.Version != uint64(1+nDeltas) || len(topn.Items) != 5 {
		t.Fatalf("topn = %+v", topn)
	}
	snap := s.Snapshot(tenant)
	wantTop, err := snap.Pred.TopN(probes[0][0], 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantTop {
		if topn.Items[i] != wantTop[i] {
			t.Fatalf("topn items %v, want %v", topn.Items, wantTop)
		}
	}

	// Metrics expose the lifecycle counters.
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`ivmfd_jobs_admitted_total{kind="decompose"} 1`,
		`ivmfd_jobs_admitted_total{kind="update"} 3`,
		`ivmfd_jobs_completed_total{kind="update"} 3`,
		`ivmfd_snapshot_version{tenant="ml-e2e"} 4`,
	} {
		if !strings.Contains(metrics, want+"\n") {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestServerErrorMapping(t *testing.T) {
	s := New(Config{MaxBodyBytes: 1 << 16})
	s.Start()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer s.Drain(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c := &Client{Base: srv.URL}

	wantStatus := func(err error, status int) {
		t.Helper()
		var ae *APIError
		if !errors.As(err, &ae) || ae.Status != status {
			t.Fatalf("err = %v, want HTTP %d", err, status)
		}
	}

	// Unknown tenant and unknown job are 404s.
	_, err := c.Predict(ctx, "ghost", [][2]int{{0, 0}})
	wantStatus(err, http.StatusNotFound)
	_, err = c.Job(ctx, 999)
	wantStatus(err, http.StatusNotFound)

	// Malformed envelope is a 400.
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"tenant":`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed submit: HTTP %d, want 400", resp.StatusCode)
	}

	// A body past MaxBodyBytes is a 413.
	huge := `{"tenant":"t","kind":"decompose","coo":"` + strings.Repeat("0", 1<<17) + `"}`
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("huge submit: HTTP %d, want 413", resp.StatusCode)
	}

	// Updates without a model are 409s.
	_, err = c.Submit(ctx, Request{Tenant: "ghost", Kind: "update", Delta: "1,1\n0,0,1\n"})
	wantStatus(err, http.StatusConflict)

	// Predict cell-count bounds.
	_, err = c.Predict(ctx, "ghost", nil)
	wantStatus(err, http.StatusBadRequest)
	_, err = c.Predict(ctx, "ghost", make([][2]int, maxPredictCells+1))
	wantStatus(err, http.StatusBadRequest)

	// Bad query parameters on the GET endpoints.
	for _, path := range []string{
		"/v1/predict?tenant=t&row=x&col=0",
		"/v1/topn?tenant=t&row=0&n=-1",
		"/v1/topn?tenant=t&row=0&n=3&exclude=1,zap",
		"/v1/jobs/notanumber",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", path, resp.StatusCode)
		}
	}

	// Drain flips /healthz to 503 and submissions to 503.
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	wantStatus(c.Health(ctx), http.StatusServiceUnavailable)
	_, err = c.Submit(ctx, Request{Tenant: "t", Kind: "decompose", COO: "1,1\n0,0,1\n"})
	wantStatus(err, http.StatusServiceUnavailable)
}

func TestServePredictGet(t *testing.T) {
	const rows, cols = 10, 8
	m := testMatrix(t, 13, rows, cols, 0.5)
	s := New(Config{})
	s.Start()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer s.Drain(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c := &Client{Base: srv.URL}
	info, err := c.Submit(ctx, Request{Tenant: "g", Kind: "decompose", Rank: 3, Target: "b",
		Min: 1, Max: 5, COO: cooText(t, m)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitJob(ctx, info.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// GET single-cell predict agrees with the POST batch endpoint.
	resp, err := http.Get(srv.URL + "/v1/predict?tenant=g&row=2&col=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET predict: HTTP %d", resp.StatusCode)
	}
	batch, err := c.Predict(ctx, "g", [][2]int{{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	var single PredictResponse
	if err := decodeBody(resp, &single); err != nil {
		t.Fatal(err)
	}
	if len(single.Predictions) != 1 || single.Predictions[0] != batch.Predictions[0] {
		t.Fatalf("GET predict %+v, POST predict %+v", single.Predictions, batch.Predictions)
	}
}
