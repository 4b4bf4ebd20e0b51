package oracle_test

import (
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/interval"
	"repro/internal/oracle"
	"repro/internal/service"
	"repro/internal/sparse"
)

const rows, cols = 9, 7

// jobs is a small chain: a decompose, a plain patch under refresh-never,
// and a sliding-window update (patch + tombstones + λ).
func jobs(t *testing.T) []service.Request {
	t.Helper()
	var ts []sparse.ITriplet
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if (i*5+j*3)%4 != 1 {
				mid := 1 + float64((i*7+j*11)%13)*0.3
				ts = append(ts, sparse.ITriplet{Row: i, Col: j, Lo: mid - 0.25, Hi: mid + 0.25})
			}
		}
	}
	m, err := sparse.FromICOO(rows, cols, ts)
	if err != nil {
		t.Fatal(err)
	}
	var coo, d1, d2 strings.Builder
	if err := dataset.WriteIntervalCOO(&coo, m); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteDeltaCOO(&d1, rows, cols, []sparse.ITriplet{
		{Row: 5, Col: 1, Lo: 2, Hi: 2.5}, {Row: 0, Col: 3, Lo: 4, Hi: 4.25},
	}); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteDeltaBatchCOO(&d2, rows, cols, dataset.DeltaBatch{
		Patch:      []sparse.ITriplet{{Row: 1, Col: 1, Lo: 3, Hi: 3}},
		Tombstones: []sparse.Cell{{Row: 0, Col: 0}, {Row: 8, Col: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	return []service.Request{
		{Tenant: "o", Kind: "decompose", Rank: 3, Target: "b", Min: 1, Max: 5, COO: coo.String()},
		{Tenant: "o", Kind: "update", Refresh: "never", Delta: d1.String()},
		{Tenant: "o", Kind: "update", Forget: 0.9, Delta: d2.String()},
	}
}

func allCells() [][2]int {
	var cells [][2]int
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			cells = append(cells, [2]int{i, j})
		}
	}
	return cells
}

func replay(t *testing.T, reqs []service.Request) *oracle.Chain {
	t.Helper()
	c := &oracle.Chain{}
	for _, r := range reqs {
		if err := c.Apply(oracle.Job(r)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestDiffReportsEveryDeviation pins the comparison itself: one ulp in
// either endpoint, a NaN, and an infinity of either sign are each a
// mismatch, and only the perturbed cells are reported.
func TestDiffReportsEveryDeviation(t *testing.T) {
	c := replay(t, jobs(t))
	cells := allCells()
	want, err := c.Predict(cells)
	if err != nil {
		t.Fatal(err)
	}
	if mm := oracle.Diff(cells, want, want); len(mm) != 0 {
		t.Fatalf("identical answers: %v", mm)
	}
	perturb := []func(*interval.Interval){
		func(iv *interval.Interval) { iv.Lo = math.Nextafter(iv.Lo, math.Inf(1)) },
		func(iv *interval.Interval) { iv.Lo = math.Nextafter(iv.Lo, math.Inf(-1)) },
		func(iv *interval.Interval) { iv.Hi = math.Nextafter(iv.Hi, math.Inf(1)) },
		func(iv *interval.Interval) { iv.Hi = math.Nextafter(iv.Hi, math.Inf(-1)) },
		func(iv *interval.Interval) { iv.Lo = math.NaN() },
		func(iv *interval.Interval) { iv.Hi = math.NaN() },
		func(iv *interval.Interval) { iv.Hi = math.Inf(1) },
		func(iv *interval.Interval) { iv.Lo = math.Inf(-1) },
	}
	for k, p := range perturb {
		served := append([]interval.Interval(nil), want...)
		cell := 3*k + 1
		p(&served[cell])
		mm := oracle.Diff(cells, served, want)
		if len(mm) != 1 || mm[0].Cell != cells[cell] {
			t.Errorf("perturbation %d at cell %v: reported %v", k, cells[cell], mm)
		}
	}

	// A non-finite value is a mismatch even where the replay has the
	// same bits.
	nan := []interval.Interval{{Lo: math.NaN(), Hi: 1}}
	if mm := oracle.Diff([][2]int{{0, 0}}, nan, nan); len(mm) != 1 {
		t.Errorf("non-finite served value matched itself: %v", mm)
	}
	// A short answer reports every unanswered cell.
	if mm := oracle.Diff(cells, want[:2], want); len(mm) != len(cells)-2 {
		t.Errorf("short answer: %d mismatches, want %d", len(mm), len(cells)-2)
	}
}

// TestChainMatchesService replays the same wire envelopes the service
// executes and finds zero mismatches against its answers at every
// version — and a mismatch against an answer one version stale.
func TestChainMatchesService(t *testing.T) {
	s := service.New(service.Config{})
	s.Start()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	defer func() { _ = s.Drain(ctx) }()
	cl := &service.Client{Base: srv.URL}

	cells := allCells()
	reqs := jobs(t)
	var c oracle.Chain
	var prev []interval.Interval
	for k, req := range reqs {
		info, err := cl.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if info, err = cl.WaitJob(ctx, info.ID, time.Millisecond); err != nil || info.State != service.JobDone {
			t.Fatalf("job %d ended %+v (err %v)", k, info, err)
		}
		if err := c.Apply(oracle.Job(req)); err != nil {
			t.Fatal(err)
		}
		resp, err := cl.Predict(ctx, "o", cells)
		if err != nil {
			t.Fatal(err)
		}
		served := make([]interval.Interval, len(resp.Predictions))
		for i, p := range resp.Predictions {
			served[i] = interval.Interval{Lo: p.Lo, Hi: p.Hi}
		}
		mm, err := c.Check(cells, served)
		if err != nil {
			t.Fatal(err)
		}
		if len(mm) != 0 {
			t.Fatalf("version %d: %d mismatches against the service, first %v", resp.Version, len(mm), mm[0])
		}
		if prev != nil {
			if mm, _ := c.Check(cells, prev); len(mm) == 0 {
				t.Fatalf("job %d: the previous version's answer matched the new chain", k)
			}
		}
		prev = served
	}
}
