package main

import (
	"context"
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/interval"
	"repro/internal/oracle"
	"repro/internal/service"
	"repro/internal/sparse"
)

// Restart equivalence under SIGKILL: boot the real daemon with a data
// directory, stream a base decomposition and updates at it, kill -9 the
// process mid-stream, reboot it on the same directory, and pin every
// served prediction bitwise against the oracle's uninterrupted offline
// replay of the acknowledged jobs. This is the crash-safety contract end to end —
// through the real binary, the real filesystem, and a real SIGKILL —
// with no cooperation from the dying process.

const (
	rstRows, rstCols = 8, 6
	rstRank          = 3
	rstMin, rstMax   = 1.0, 5.0
)

// rstBase is the deterministic base matrix of the restart test.
func rstBase(t *testing.T) *sparse.ICSR {
	t.Helper()
	var ts []sparse.ITriplet
	for i := 0; i < rstRows; i++ {
		for j := 0; j < rstCols; j++ {
			if (i*7+j*11)%3 == 0 {
				mid := 1.0 + float64((i*5+j*3)%9)*0.4
				ts = append(ts, sparse.ITriplet{Row: i, Col: j, Lo: mid - 0.2, Hi: mid + 0.2})
			}
		}
	}
	m, err := sparse.FromICOO(rstRows, rstCols, ts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// rstPatch is the k-th deterministic update patch (distinct cells, so
// the service's last-wins merge is the identity).
func rstPatch(k int) []sparse.ITriplet {
	return []sparse.ITriplet{
		{Row: k % rstRows, Col: (2 * k) % rstCols, Lo: 1.5 + 0.3*float64(k), Hi: 2.1 + 0.3*float64(k)},
		{Row: (k + 3) % rstRows, Col: (k + 1) % rstCols, Lo: 2.5, Hi: 3.0},
	}
}

func rstCOO(t *testing.T, m *sparse.ICSR) string {
	t.Helper()
	var sb strings.Builder
	if err := dataset.WriteIntervalCOO(&sb, m); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func rstDelta(t *testing.T, ts []sparse.ITriplet) string {
	t.Helper()
	var sb strings.Builder
	if err := dataset.WriteDeltaCOO(&sb, rstRows, rstCols, ts); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// startDaemon launches the built binary and waits for /healthz.
func startDaemon(t *testing.T, ctx context.Context, bin, addr, dataDir string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", dataDir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &service.Client{Base: "http://" + addr}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := c.Health(ctx); err == nil {
			return cmd
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatal("daemon did not become healthy")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRestartAfterSIGKILLServesAckedChainBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon process")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ivmfd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// Reserve a loopback port for both daemon lives.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	dataDir := filepath.Join(dir, "data")
	base := rstBase(t)

	// First life: decompose, two acknowledged updates, then a third
	// submitted but not awaited — the kill lands mid-stream.
	jobs := []service.Request{{
		Tenant: "t", Kind: "decompose", Method: "ISVD4", Rank: rstRank,
		Target: "b", Min: rstMin, Max: rstMax, COO: rstCOO(t, base),
	}}
	for k := 1; k <= 3; k++ {
		jobs = append(jobs, service.Request{
			Tenant: "t", Kind: "update", Refresh: "never", Delta: rstDelta(t, rstPatch(k)),
		})
	}
	daemon := startDaemon(t, ctx, bin, addr, dataDir)
	c := &service.Client{Base: "http://" + addr}
	info, err := c.Submit(ctx, jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if info, err = c.WaitJob(ctx, info.ID, time.Millisecond); err != nil || info.State != service.JobDone {
		t.Fatalf("decompose ended %+v (err %v)", info, err)
	}
	for k := 1; k <= 2; k++ {
		u, err := c.Submit(ctx, jobs[k])
		if err != nil {
			t.Fatal(err)
		}
		if u, err = c.WaitJob(ctx, u.ID, time.Millisecond); err != nil || u.State != service.JobDone {
			t.Fatalf("update %d ended %+v (err %v)", k, u, err)
		}
	}
	if _, err := c.Submit(ctx, jobs[3]); err != nil {
		t.Fatal(err)
	}
	if err := daemon.Process.Kill(); err != nil { // SIGKILL: no drain, no flush
		t.Fatal(err)
	}
	_ = daemon.Wait()

	// Second life on the same directory.
	daemon = startDaemon(t, ctx, bin, addr, dataDir)
	defer func() {
		_ = daemon.Process.Kill()
		_ = daemon.Wait()
	}()
	cells := make([][2]int, 0, rstRows*rstCols)
	for i := 0; i < rstRows; i++ {
		for j := 0; j < rstCols; j++ {
			cells = append(cells, [2]int{i, j})
		}
	}
	resp, err := c.Predict(ctx, "t", cells)
	if err != nil {
		t.Fatal(err)
	}
	// Acknowledged: base (version 1) and two updates (2, 3). The third
	// update was in flight at the kill — it either never became durable
	// (version 3) or was completed before the process died (version 4);
	// anything else means lost or phantom acknowledged work.
	if resp.Version != 3 && resp.Version != 4 {
		t.Fatalf("recovered version %d, want 3 or 4", resp.Version)
	}

	// The oracle's uninterrupted offline replay of exactly the served
	// versions.
	chain := &oracle.Chain{}
	for _, job := range jobs[:resp.Version] {
		if err := chain.Apply(oracle.Job(job)); err != nil {
			t.Fatal(err)
		}
	}
	served := make([]interval.Interval, len(resp.Predictions))
	for k, p := range resp.Predictions {
		if p.Mid != (interval.Interval{Lo: p.Lo, Hi: p.Hi}).Mid() {
			t.Fatalf("cell (%d,%d): mid %v is not the mid of [%v,%v]", p.Row, p.Col, p.Mid, p.Lo, p.Hi)
		}
		served[k] = interval.Interval{Lo: p.Lo, Hi: p.Hi}
	}
	mm, err := chain.Check(cells, served)
	if err != nil {
		t.Fatal(err)
	}
	if len(mm) > 0 {
		t.Fatalf("%d cells differ from the offline chain, first %v", len(mm), mm[0])
	}

	// The reboot should have recovered exactly one tenant.
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, `ivmfd_store_recovered_tenants_total{outcome="ok"} 1`) {
		t.Error("metrics missing the recovery counter")
	}
}
