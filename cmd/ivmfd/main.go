// Command ivmfd is the batched interval-decomposition server: a
// long-running daemon that admits decompose/update jobs into per-tenant
// queues (payloads held as O(NNZ) sparse matrices), schedules them in
// cost-budgeted batches across the shared worker pool, and serves
// predictions from atomically swapped factor snapshots — the HTTP face
// of internal/service.
//
// Usage:
//
//	ivmfd -addr :8080 -budget 4194304 -workers 0 -maxbody 16777216 -maxqueue 64 -data-dir /var/lib/ivmfd
//
// Endpoints (see internal/service/server.go and README "Serving"):
//
//	POST /v1/jobs       GET /v1/jobs/{id}
//	POST /v1/predict    GET /v1/predict    GET /v1/topn
//	GET  /metrics       GET /healthz       GET /readyz
//
// With -data-dir the server is crash-safe: every job's result is made
// durable (snapshot or fsynced write-ahead record, see internal/store)
// before the job is acknowledged, and a restart recovers all tenants to
// exactly the acknowledged state — kill -9 loses at most unacknowledged
// work.
//
// Update jobs may slide a window: delta payloads carry tombstone
// records ("row,col,x") expiring cells and an optional forgetting
// factor λ, and the engine's numerical-health guardrails escalate
// (warm refresh → windowed redecompose) before a degraded model can
// serve. Per-tenant model health is exported as the
// ivmfd_model_health_* gauge families on /metrics and in the /readyz
// detail (see README "Sliding windows & model health").
//
// Reads get a scheduler slot of their own: after recovery the process
// runs one Go scheduler P more than the compute pool has workers
// (see reserveReadP). Jobs, each bounded by -workers, fill the pool's
// Ps; the spare one serves HTTP. A unit abandoned at its deadline keeps
// computing outside the pool cap until it finishes and can take that P
// meanwhile.
//
// On SIGTERM or SIGINT the server drains: admission stops (503), every
// already-admitted job runs to completion, publishes its snapshot, and
// reaches disk, then the HTTP listener shuts down and the store closes.
// No admitted work is ever dropped.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/parallel"
	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	budget := flag.Int64("budget", 0, "scheduler cost budget per round in NNZ×rank units (0 = default)")
	workers := flag.Int("workers", 0, "default per-job worker bound (0 = shared pool default)")
	maxBody := flag.Int64("maxbody", 0, "max request body bytes (0 = default)")
	maxQueue := flag.Int("maxqueue", 0, "max pending jobs per tenant (0 = default)")
	dataDir := flag.String("data-dir", "", "durable model store directory (empty = in-memory only)")
	drainTimeout := flag.Duration("draintimeout", 5*time.Minute, "max time to finish admitted jobs on shutdown")
	reqTimeout := flag.Duration("reqtimeout", 0, "per-request deadline on read endpoints (0 = default, negative = disabled)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := service.Config{
		Budget:         *budget,
		Workers:        *workers,
		MaxBodyBytes:   *maxBody,
		MaxQueue:       *maxQueue,
		DataDir:        *dataDir,
		RequestTimeout: *reqTimeout,
	}
	if err := run(ctx, *addr, cfg, *drainTimeout, nil); err != nil {
		fmt.Fprintf(os.Stderr, "ivmfd: %v\n", err)
		os.Exit(1)
	}
}

// run serves until ctx is cancelled, then drains and shuts down. When
// ready is non-nil the bound listen address is sent on it once the
// server is accepting (tests bind ":0").
func run(ctx context.Context, addr string, cfg service.Config, drainTimeout time.Duration, ready chan<- string) error {
	// Open recovers every persisted tenant from cfg.DataDir before the
	// listener accepts; without a data dir it is exactly New.
	s, err := service.Open(cfg)
	if err != nil {
		return err
	}
	reserveReadP()
	s.Start()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// Server-side timeouts bound what a slow or hostile client can hold
	// open: headers must arrive promptly, whole requests and responses
	// are bounded generously (job payloads can be large but not
	// unbounded), and idle keep-alive connections are reaped.
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting (the handler answers 503), let the
	// executor finish every admitted job — each one durable before it
	// was acknowledged — then close the listener, and only then the
	// store: in-flight predictions may serve zero-copy from mappings
	// the store owns.
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := srv.Shutdown(dctx); err != nil {
		return err
	}
	return s.Close()
}

// reserveReadP gives the Go scheduler one P beyond the compute pool.
// Both default to the CPU count, so while a job runs every P is busy and
// a ready socket waits for a P to run dry (a parallel region's end) or
// for sysmon's ~10 ms network poll; serial stretches such as Givens
// sweeps have no region ends. Pinning the pool at its width first keeps
// the job path unchanged (chunk boundaries depend only on
// parallel.Workers, so results stay bitwise); the extra P finds no pool
// work, parks in the network poller, and runs a request as soon as it
// arrives. Called after recovery, so a restart's replay runs as before.
// Idempotent: a second call keeps both widths.
func reserveReadP() {
	n := parallel.Workers()
	parallel.SetWorkers(n)
	runtime.GOMAXPROCS(n + 1)
}
