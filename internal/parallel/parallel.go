// Package parallel is the repository's shared data-parallel execution
// layer: a bounded worker pool that schedules contiguous index ranges
// across goroutines. Every hot kernel (dense and interval matrix
// products, the eigensolver sweeps, the NMF/PMF epoch updates) and every
// coarse fan-out (endpoint decompositions, the experiment method grid)
// routes through this package, so total concurrency is bounded in one
// place instead of by scattered ad-hoc sync.WaitGroup fan-outs.
//
// Determinism contract: For partitions [0, n) into contiguous chunks
// whose boundaries depend on the requested worker count, so a chunk body
// must not carry state across its own boundary (no chunk-level partial
// reductions combined afterwards). Kernels built on it write disjoint
// output ranges and keep each output ELEMENT's floating-point operation
// order fixed regardless of which chunk computes it; under that
// discipline results are bitwise identical for any worker count
// (including 1), and a fixed-seed run is exactly reproducible on any
// machine.
//
// Concurrency is bounded globally, not per call: helper goroutines are
// claimed from a shared budget of Workers()-1 slots, so nested For/Do
// calls (a decomposition fan-out whose kernels are themselves parallel)
// degrade to inline execution instead of multiplying goroutines.
//
// The pool width is not the scheduler's P count. Workers defaults to
// GOMAXPROCS, but a process may pin it with SetWorkers and run more Ps:
// cmd/ivmfd runs one P beyond the pool, so its HTTP reads need not wait
// for a pool chunk to give up a P.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// configured holds the package-level worker count; 0 means "use
// runtime.GOMAXPROCS(0)".
var configured atomic.Int64

// Workers returns the current package-level worker bound.
func Workers() int {
	if n := configured.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers sets the package-level worker bound. n <= 0 resets to the
// default (GOMAXPROCS). It is safe for concurrent use; in-flight For/Do
// calls keep the bound they started with.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	configured.Store(int64(n))
}

// Grain returns the For grain for a loop whose per-index cost is roughly
// perItem flops: chunks of ~32k flops amortize goroutine scheduling, and
// loops cheaper than one chunk in total run inline on the caller. Every
// compute kernel in the repository derives its grain from this one
// constant so chunk sizing can be tuned in one place.
func Grain(perItem int) int {
	const chunkFlops = 32 * 1024
	if perItem <= 0 {
		return chunkFlops
	}
	g := chunkFlops / perItem
	if g < 1 {
		g = 1
	}
	return g
}

// helpers counts pool helper goroutines currently in flight across all
// For/Do calls; it is capped at Workers()-1 so nesting cannot
// oversubscribe the machine.
var helpers atomic.Int64

func acquireHelper() bool {
	for {
		cur := helpers.Load()
		if cur >= int64(Workers()-1) {
			return false
		}
		if helpers.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func releaseHelper() { helpers.Add(-1) }

// For runs fn over the index range [0, n) split into contiguous chunks of
// at least grain indices, using up to Workers() goroutines (including the
// caller). grain is the scheduling granularity: pick it so one chunk does
// enough work (tens of microseconds) to amortize scheduling. When the
// range fits in a single chunk — or only one worker is available — fn is
// invoked inline as fn(0, n), so small problems pay no goroutine
// overhead and the serial fallback is the n == 1 worker case of the same
// code path.
func For(n, grain int, fn func(lo, hi int)) {
	ForWith(0, n, grain, fn)
}

// ForWith is For with an explicit worker bound; workers <= 0 means
// Workers(). It is the hook for per-call overrides such as
// core.Options.Workers.
func ForWith(workers, n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if workers <= 0 {
		workers = Workers()
	}
	maxChunks := (n + grain - 1) / grain
	if workers > maxChunks {
		workers = maxChunks
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	// Oversplit by 4x for dynamic load balancing (chunks are claimed from
	// an atomic counter, so a slow chunk doesn't stall the rest), while
	// keeping every chunk at least grain wide.
	chunks := workers * 4
	if chunks > maxChunks {
		chunks = maxChunks
	}
	size := (n + chunks - 1) / chunks
	if size < grain {
		size = grain
	}
	chunks = (n + size - 1) / size

	var (
		next     atomic.Int64
		panicked atomic.Pointer[panicValue]
		wg       sync.WaitGroup
	)
	body := func() {
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, &panicValue{r})
			}
		}()
		for {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			lo := c * size
			hi := lo + size
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
	}
	// Helpers come from the global budget; when it is exhausted (e.g. a
	// nested call from inside another pool worker) the caller just works
	// through the chunks alone. Chunk boundaries were fixed above, so the
	// helper count never affects results.
	for w := 1; w < workers; w++ {
		if !acquireHelper() {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer releaseHelper()
			body()
		}()
	}
	body()
	wg.Wait()
	if p := panicked.Load(); p != nil {
		// Re-panic with the original value so callers can still inspect
		// it; the worker's stack is lost, which is the price of not
		// crashing the whole process from a pool goroutine.
		panic(p.v)
	}
}

type panicValue struct{ v any }

// Do runs the given independent functions, at most Workers() at a time,
// and returns when all have completed. It replaces the hand-rolled
// two-goroutine sync.WaitGroup pattern for endpoint-pair work (e.g. the
// lo/hi SVDs of ISVD1).
func Do(fns ...func()) {
	DoWith(0, fns...)
}

// DoWith is Do with an explicit worker bound; workers <= 0 means
// Workers().
func DoWith(workers int, fns ...func()) {
	ForWith(workers, len(fns), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fns[i]()
		}
	})
}
