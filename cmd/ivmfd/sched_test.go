package main

import (
	"context"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/parallel"
	"repro/internal/service"
)

// startRun boots run on a loopback port and returns its address; the
// server drains when the test ends. The scheduler widths run leaves
// behind are restored too, so other tests see the process defaults.
func startRun(t *testing.T) string {
	t.Helper()
	procs, workers := runtime.GOMAXPROCS(0), parallel.Workers()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, "127.0.0.1:0", service.Config{}, time.Minute, ready) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("run returned %v", err)
		}
		runtime.GOMAXPROCS(procs)
		if parallel.SetWorkers(0); parallel.Workers() != workers {
			parallel.SetWorkers(workers)
		}
	})
	select {
	case addr := <-ready:
		return addr
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
		return ""
	}
}

// TestReservedReadP: a running ivmfd has one P more than the compute
// pool has workers, and a second run in the same process does not
// widen either.
func TestReservedReadP(t *testing.T) {
	startRun(t)
	workers, procs := parallel.Workers(), runtime.GOMAXPROCS(0)
	if procs != workers+1 {
		t.Fatalf("GOMAXPROCS = %d with %d pool workers, want one more", procs, workers)
	}
	startRun(t)
	if w, p := parallel.Workers(), runtime.GOMAXPROCS(0); w != workers || p != procs {
		t.Fatalf("second run: workers %d, GOMAXPROCS %d; want %d, %d", w, p, workers, procs)
	}
}

// TestHealthzWhilePoolBusy: while a parallel.For holds every pool
// worker, a request is still answered at once. It guards the property,
// not the mechanism: a pure spin load seldom shows the wait a read has
// without the reserved P (that needs the update path's serial stretches
// and GC; servebench measures it), so TestReservedReadP is the pin.
func TestHealthzWhilePoolBusy(t *testing.T) {
	addr := startRun(t)
	var stop atomic.Bool
	var spinning atomic.Int64
	busy := make(chan struct{})
	go func() {
		defer close(busy)
		parallel.For(parallel.Workers(), 1, func(lo, hi int) {
			spinning.Add(int64(hi - lo))
			for !stop.Load() {
			}
		})
	}()
	defer func() { stop.Store(true); <-busy }()
	for spinning.Load() < int64(parallel.Workers()) {
		time.Sleep(time.Millisecond)
	}

	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	get := func() time.Duration {
		t0 := time.Now()
		resp, err := client.Get("http://" + addr + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status %d", resp.StatusCode)
		}
		return time.Since(t0)
	}
	get() // open the keep-alive connection
	rtts := make([]time.Duration, 50)
	for i := range rtts {
		rtts[i] = get()
	}
	slices.Sort(rtts)
	if med := rtts[len(rtts)/2]; med > 2*time.Millisecond {
		t.Fatalf("median /healthz round trip %v with the pool busy, want < 2ms (p90 %v)", med, rtts[len(rtts)*9/10])
	}
}
