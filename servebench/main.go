// Command servebench is the serving benchmark of this repository: it
// runs one named workload against the real ivmfd binary (its own
// process, temp -data-dir, free loopback port), measures what a client
// sees end to end, replays every acknowledged job through the library
// layers to check every served answer bitwise, and prints the metrics.
//
// Usage (normally through run.sh, which builds both binaries):
//
//	servebench -bin path/to/ivmfd -work DIR --workload read-under-write --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the final stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics of the traced replay.
// See README.md in this directory for the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/service"
	"repro/internal/sparse"
)

// workload is one traffic mix: a seeded update stream per tenant
// beside an open-loop read stream.
type workload struct {
	name string
	gen  func(seed int64) ([]*tenantInput, error)
}

const (
	// setups is how many times each run sets ivmfd up from scratch;
	// setup_s is their median, and their base decomposes are the
	// decompose_ack_p50_s samples (32 with two tenants, so the
	// percentile rule holds with margin). Every set-up but the last decomposes bases
	// generated from a seed of its own, so both medians run over many
	// matrices rather than the few the timed phase serves.
	setups = 16
	// restarts is how many crash recoveries each run times after its
	// timed phase; recover_s is their median.
	restarts = 7
	// readRate is the open-loop read rate in requests per second: enough
	// predicts for predict_p99_ms to pass the percentile rule within a
	// timed phase of 20 s.
	readRate = 150.0
)

// Read mix of the open-loop stream.
const (
	cellsPerRead = 16
	topnShare    = 0.3
)

var workloads = []*workload{
	{
		name: "read-under-write",
		gen: func(seed int64) ([]*tenantInput, error) {
			return genTenants(2, seed, func(name string, rng *rand.Rand) (*tenantInput, error) {
				return ratingsTenant(name, 0.15, 10, 150, 0.003, rng)
			})
		},
	},
	{
		name: "window-churn",
		gen: func(seed int64) ([]*tenantInput, error) {
			return genTenants(4, seed, func(name string, rng *rand.Rand) (*tenantInput, error) {
				return windowTenant(name, 384, 24000, 16, 120, 120, 4, 0.95, 0.85, rng)
			})
		},
	},
}

// genTenants builds n tenants, each from its own seeded source. A base
// that the service's decompose recipe cannot decompose (the eig
// iteration does not converge on a few generated matrices) is drawn
// again from the next source, so no workload job fails on its input and
// the inputs stay a function of the seed.
func genTenants(n int, seed int64, gen func(string, *rand.Rand) (*tenantInput, error)) ([]*tenantInput, error) {
	out := make([]*tenantInput, n)
	for i := range out {
		var err error
		for try := int64(0); try < 5; try++ {
			var t *tenantInput
			if t, err = gen(fmt.Sprintf("t%d", i), rand.New(rand.NewSource(seed*1000+int64(i)+try*7919))); err != nil {
				return nil, err
			}
			var base *sparse.ICSR
			if base, err = dataset.ReadIntervalCOO(strings.NewReader(t.baseCOO)); err != nil {
				return nil, err
			}
			if _, err = decomposeBase(t, base); err == nil {
				out[i] = t
				break
			}
		}
		if err != nil {
			return nil, fmt.Errorf("tenant %d: %w", i, err)
		}
	}
	return out, nil
}

// decomposeBase is the service's decompose recipe for a tenant's base.
func decomposeBase(t *tenantInput, base *sparse.ICSR) (*core.Decomposition, error) {
	return core.DecomposeSparse(base, core.ISVD4, core.Options{Rank: t.rank, Target: core.TargetB, Updatable: true})
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 12, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run: print per-layer metrics")
	bin := flag.String("bin", "", "ivmfd binary")
	work := flag.String("work", "", "scratch directory for data dirs, logs and spans")
	flag.Parse()

	var wl *workload
	for _, w := range workloads {
		if w.name == *name {
			wl = w
		}
	}
	if wl == nil || *bin == "" || *work == "" || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "usage: servebench -bin IVMFD -work DIR --workload NAME --seed N --seconds S --trace 0|1\n")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  workload %s\n", w.name)
		}
		os.Exit(2)
	}
	if err := os.RemoveAll(*work); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	tenants, err := wl.gen(*seed)
	if err != nil {
		fatal(fmt.Errorf("generate inputs: %w", err))
	}
	r := newRunner(wl, tenants, *bin, *work, time.Duration(*seconds)*time.Second, *seed)
	for i := 0; i < setups-1; i++ {
		v, err := wl.gen(*seed + int64(i+1)*1_000_003)
		if err != nil {
			fatal(fmt.Errorf("generate inputs: %w", err))
		}
		bases := make([]string, len(v))
		for t := range v {
			bases[t] = v[t].baseCOO
		}
		r.setupBases = append(r.setupBases, bases)
	}
	runErr := r.execute()
	if r.srv != nil {
		r.srv.kill()
	}
	var rep *replayReport
	if runErr == nil {
		rep, runErr = r.replay(*trace == 1)
	}
	res := r.report(rep, *trace == 1)
	for _, d := range r.dataDirs {
		_ = os.RemoveAll(d) // scratch only; the checkout keeps no model data
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if runErr != nil || !res.Correct {
		if runErr != nil {
			fmt.Fprintf(os.Stderr, "servebench: %v\n", runErr)
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
	os.Exit(1)
}

// runner holds one run's state: the ivmfd process, what the client
// observed, and the samples the report is computed from.
type runner struct {
	wl      *workload
	tenants []*tenantInput
	bin     string
	work    string
	seconds time.Duration
	seed    int64
	probes  [][][2]int // per tenant: the cells of final-state and recovery probes
	// setupBases[i][t] is tenant t's base in set-up i; the last set-up,
	// which the timed phase runs on, uses the tenants' own bases.
	setupBases [][]string

	srv      *server
	life     int // index of the current ivmfd process since the last set-up
	dataDirs []string

	jobs      []*jobRec  // acknowledged jobs, in acknowledgement order
	reads     []*readRec // answered reads
	lives     []lifeRec
	attempted int
	failed    int
	failures  []string
	exhausted bool

	lastVersion []uint64
	nextUpdate  []int

	setupS, recoverS []float64
	decomposeS       []float64 // base decompose acknowledgements of every set-up
	windowStart      time.Time
	deadline         time.Time
	hwmKB            int64
	cpu, cpuWall     time.Duration
}

// lifeRec is what one ivmfd process reported before it was killed.
type lifeRec struct {
	counters serverCounters
	scraped  bool
}

func newRunner(wl *workload, tenants []*tenantInput, bin, work string, seconds time.Duration, seed int64) *runner {
	r := &runner{wl: wl, tenants: tenants, bin: bin, work: work, seconds: seconds, seed: seed}
	prng := rand.New(rand.NewSource(seed*1000 + 999))
	for _, t := range tenants {
		r.probes = append(r.probes, randomCells(t, cellsPerRead, prng))
	}
	return r
}

func (r *runner) fail(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	r.failed++
	r.failures = append(r.failures, err.Error())
	return err
}

// resetChain forgets every job and read of a discarded set-up.
func (r *runner) resetChain() {
	n := len(r.tenants)
	r.life, r.jobs, r.reads, r.lives = 0, nil, nil, nil
	r.lastVersion, r.nextUpdate = make([]uint64, n), make([]int, n)
}

// acked records an acknowledged job and the version it published.
func (r *runner) acked(j *jobRec) {
	r.jobs = append(r.jobs, j)
	r.lastVersion[j.tenant] = j.info.Version
}

// nextUpdateJob hands out the tenant's next pre-generated update.
func (r *runner) nextUpdateJob(t int) (jobRec, bool) {
	k := r.nextUpdate[t]
	if k >= len(r.tenants[t].updates) {
		r.exhausted = true
		return jobRec{}, false
	}
	r.nextUpdate[t]++
	return jobRec{tenant: t, kind: "update", input: k}, true
}

func (r *runner) logPath() string { return filepath.Join(r.work, "ivmfd.log") }

// execute runs the set-ups, the timed phase and the recoveries.
func (r *runner) execute() error {
	for i := 0; i < setups; i++ {
		dir := filepath.Join(r.work, fmt.Sprintf("data-%d", i))
		r.dataDirs = append(r.dataDirs, dir)
		variant := -1
		if i < len(r.setupBases) {
			variant = i
		}
		if err := r.setupOnce(dir, variant); err != nil {
			return err
		}
		if i < setups-1 {
			r.srv.kill()
			r.srv = nil
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}
	return r.runStream(r.dataDirs[len(r.dataDirs)-1])
}

// setupOnce launches ivmfd on a fresh data dir and submits every
// tenant's base decompose (of set-up variant `variant`, or of its own
// base for -1); setup_s runs from launch until every base model is
// served.
func (r *runner) setupOnce(dir string, variant int) error {
	r.resetChain()
	srv, err := startServer(r.bin, dir, r.logPath())
	if err != nil {
		return err
	}
	r.srv = srv
	if err := srv.waitReady(time.Minute); err != nil {
		return r.fail("setup: %v", err)
	}
	c := newClient(srv.base)
	defer closeClient(c)
	submitted := make([]bool, len(r.tenants))
	err = r.pump(c, func(t int) (jobRec, bool) {
		if submitted[t] {
			return jobRec{}, false
		}
		submitted[t] = true
		return jobRec{tenant: t, kind: "decompose", input: variant}, true
	})
	if err != nil {
		return err
	}
	r.setupS = append(r.setupS, time.Since(srv.launched).Seconds())
	for _, j := range r.jobs {
		r.decomposeS = append(r.decomposeS, j.ackLatency().Seconds())
	}
	return nil
}

// runStream runs the timed phase — every tenant's update stream beside
// the open-loop reads — then an untimed rebuild of every tenant, a
// probe of the final served state, and `restarts` timed crash
// recoveries.
func (r *runner) runStream(dir string) error {
	srv := r.srv
	c := newClient(srv.base)
	defer closeClient(c)
	_, cpu0, err := srv.procStats()
	if err != nil {
		return err
	}
	r.windowStart = time.Now()
	r.deadline = r.windowStart.Add(r.seconds)

	type readOut struct {
		sent   []*readRec
		failed int
		err    error
	}
	readDone := make(chan readOut, 1)
	rc := newClient(srv.base)
	n := int(readRate*r.seconds.Seconds()) + 1
	plan := readPlan(r.tenants, n, cellsPerRead, topnShare, rand.New(rand.NewSource(r.seed*1000+998)))
	go func() {
		defer closeClient(rc)
		sent, failed, err := readLoop(rc, r.tenants, plan, r.windowStart, r.deadline, readRate)
		readDone <- readOut{sent, failed, err}
	}()
	err = r.pump(c, func(t int) (jobRec, bool) {
		if !time.Now().Before(r.deadline) {
			return jobRec{}, false
		}
		return r.nextUpdateJob(t)
	})
	ro := <-readDone
	r.reads = append(r.reads, ro.sent...)
	r.attempted += len(ro.sent)
	r.failed += ro.failed
	if ro.err != nil {
		r.failures = append(r.failures, ro.err.Error())
	}
	if err != nil {
		return err
	}
	if ro.err != nil {
		return ro.err
	}
	_, cpu1, err := srv.procStats()
	if err != nil {
		return err
	}
	r.cpu, r.cpuWall = cpu1-cpu0, time.Since(r.windowStart)

	// Every recovery then replays the same write-ahead record per
	// tenant, wherever the timed phase happened to stop: recover_s
	// depends on the workload, not on the stopping point.
	if err := r.pump(c, r.rebuild(func(t int) (jobRec, bool) {
		return jobRec{tenant: t, kind: "update", input: 0}, true
	})); err != nil {
		return err
	}
	if err := r.probeFinal(c); err != nil {
		return err
	}
	if err := r.scrape(c); err != nil {
		return err
	}
	if r.hwmKB, _, err = srv.procStats(); err != nil {
		return err
	}
	srv.kill()
	r.srv = nil
	for i := 0; i < restarts; i++ {
		r.life++
		if err := r.recoverOnce(dir); err != nil {
			return err
		}
		r.srv.kill()
		r.srv = nil
	}
	return nil
}

// rebuild is a job source under which the tenants, one after another,
// run one decompose of their base and then the one update `update`
// supplies. Its snapshot plus that single write-ahead record is the
// durable state a crash leaves behind. Running the tenants in turn
// keeps queueing behind another tenant out of these latencies.
func (r *runner) rebuild(update func(t int) (jobRec, bool)) func(int) (jobRec, bool) {
	stage := make([]int, len(r.tenants)) // 3 once the tenant's update is acknowledged
	return func(t int) (jobRec, bool) {
		if t > 0 && stage[t-1] < 3 {
			return jobRec{}, false
		}
		stage[t]++
		switch stage[t] {
		case 1:
			return jobRec{tenant: t, kind: "decompose", input: -1}, true
		case 2:
			return update(t)
		}
		return jobRec{}, false
	}
}

// probeFinal reads every tenant's probe cells and requires the answer
// to come from the tenant's last acknowledged version; the replay
// oracle then checks the values.
func (r *runner) probeFinal(c *service.Client) error {
	for t, tn := range r.tenants {
		rd := &readRec{tenant: t, cells: r.probes[t]}
		r.attempted++
		rd.sent = time.Now()
		if err := doRead(context.Background(), c, tn.name, rd); err != nil {
			return r.fail("final probe: %v", err)
		}
		rd.done = time.Now()
		if rd.version != r.lastVersion[t] {
			return r.fail("final probe %s: served version %d, last acknowledged %d", tn.name, rd.version, r.lastVersion[t])
		}
		r.reads = append(r.reads, rd)
	}
	return nil
}

// recoverOnce restarts ivmfd on dir after a crash and polls until every
// tenant answers a predict at its last acknowledged version; recover_s
// is launch until then.
func (r *runner) recoverOnce(dir string) error {
	srv, err := startServer(r.bin, dir, r.logPath())
	if err != nil {
		return err
	}
	r.srv = srv
	c := newClient(srv.base)
	defer closeClient(c)
	pending := make([]bool, len(r.tenants))
	left := len(r.tenants)
	for i := range pending {
		pending[i] = true
	}
	giveUp := time.Now().Add(time.Minute)
	for left > 0 {
		for t, tn := range r.tenants {
			if !pending[t] {
				continue
			}
			rd := &readRec{tenant: t, cells: r.probes[t], sent: time.Now()}
			if err := doRead(context.Background(), c, tn.name, rd); err != nil {
				var apiErr *service.APIError
				if errors.As(err, &apiErr) {
					r.attempted++
					return r.fail("recovery probe: %v", err)
				}
				continue // still booting: the listener opens after recovery
			}
			rd.done = time.Now()
			r.attempted++
			if rd.version != r.lastVersion[t] {
				return r.fail("recovered %s at version %d, last acknowledged %d", tn.name, rd.version, r.lastVersion[t])
			}
			r.reads = append(r.reads, rd)
			pending[t] = false
			left--
		}
		if left == 0 {
			break
		}
		select {
		case <-srv.exited:
			return r.fail("recovery: ivmfd exited (see %s)", r.logPath())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(giveUp) {
			return r.fail("recovery: not serving after a minute")
		}
	}
	r.recoverS = append(r.recoverS, time.Since(srv.launched).Seconds())
	return nil
}

// scrape reads the current process's counters from /metrics.
func (r *runner) scrape(c *service.Client) error {
	r.attempted++
	text, err := c.Metrics(context.Background())
	if err != nil {
		return r.fail("scrape /metrics: %v", err)
	}
	counters, err := parseCounters(text)
	if err != nil {
		return r.fail("%v", err)
	}
	for len(r.lives) <= r.life {
		r.lives = append(r.lives, lifeRec{})
	}
	r.lives[r.life] = lifeRec{counters: counters, scraped: true}
	return nil
}
