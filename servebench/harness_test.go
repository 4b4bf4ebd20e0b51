package main

import (
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestServerHarness builds ivmfd from this tree, starts it on a free
// port with a temp data dir, reads its /proc figures, crashes it with
// SIGKILL and restarts it on the same directory.
func TestServerHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs ivmfd")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ivmfd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/ivmfd").CombinedOutput(); err != nil {
		t.Fatalf("build ivmfd: %v\n%s", err, out)
	}
	data, log := filepath.Join(dir, "data"), filepath.Join(dir, "ivmfd.log")
	for life := 0; life < 2; life++ {
		srv, err := startServer(bin, data, log)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.waitReady(30 * time.Second); err != nil {
			srv.kill()
			t.Fatal(err)
		}
		hwm, cpu, err := srv.procStats()
		if err != nil || hwm <= 0 || cpu < 0 {
			t.Errorf("life %d: procStats = %d kB, %v, %v", life, hwm, cpu, err)
		}
		c := newClient(srv.base)
		if _, err := c.Metrics(t.Context()); err != nil {
			t.Errorf("life %d: /metrics: %v", life, err)
		}
		closeClient(c)
		srv.kill()
		select {
		case <-srv.exited:
		default:
			t.Fatalf("life %d: kill returned before the process exited", life)
		}
	}
}
