package ivmf_test

// Allocation regression guards for the workspace-reuse PR: the NMF
// multiplicative-update loop and the ISVD4 pipeline must stay at least
// 50% below their pre-blocking allocation counts (nmf.Train: 1006
// objects/run at the seed for this shape, ISVD4: 2994). The savings
// come from the destination-passing kernels (internal/matrix), the
// fused endpoint products (internal/imatrix), and the hoisted sweep
// closures in internal/eig. Runs are pinned to one worker so counts
// are deterministic.

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eig"
	"repro/internal/imatrix"
	"repro/internal/matrix"
	"repro/internal/nmf"
	"repro/internal/parallel"
	"repro/internal/recommend"
	"repro/internal/sparse"
)

func TestNMFTrainAllocationBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := matrix.New(60, 45)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := nmf.Train(m, nmf.Config{Rank: 6, Iterations: 50}, rand.New(rand.NewSource(2))); err != nil {
			t.Fatal(err)
		}
	})
	// Seed baseline: 1006. Workspace reuse leaves ~8 pool-closure
	// allocations per iteration plus setup.
	if allocs > 503 {
		t.Fatalf("nmf.Train allocated %.0f objects/run, want <= 503 (50%% of the 1006 pre-workspace baseline)", allocs)
	}
}

func TestISVD4AllocationBudget(t *testing.T) {
	m := dataset.MustGenerateUniform(dataset.DefaultSynthetic(), rand.New(rand.NewSource(4)))
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := core.Decompose(m, core.ISVD4, core.Options{Rank: 20, Target: core.TargetB}); err != nil {
			t.Fatal(err)
		}
	})
	// Seed baseline: 2994, dominated by per-iteration sweep closures in
	// the eigensolver plus the four endpoint-product temporaries.
	if allocs > 1497 {
		t.Fatalf("ISVD4 allocated %.0f objects/run, want <= 1497 (50%% of the 2994 pre-blocking baseline)", allocs)
	}
}

// TestTopNAllocationBudget guards the serving-path TopN rewrite: the
// size-n selection heap lives in preallocated Predictor scratch, so a
// warmed-up TopN call allocates only its result slice (the pre-heap
// implementation appended every unexcluded column into a fresh
// candidate slice — ~10 allocations per call at 200 columns, growing
// with the catalog).
func TestTopNAllocationBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x := matrix.New(50, 4)
	y := matrix.New(4, 200)
	for i := range x.Data {
		x.Data[i] = math.Abs(rng.NormFloat64())
	}
	for i := range y.Data {
		y.Data[i] = math.Abs(rng.NormFloat64())
	}
	lo := matrix.Mul(x, y)
	ratings := sparse.FromIMatrix(imatrix.FromEndpoints(lo, lo.Scale(1.2)))
	p, err := recommend.BuildSparseISVD(ratings, core.ISVD2, core.Options{Rank: 4, Target: core.TargetB}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TopN(7, 10, nil); err != nil { // warm the scratch heap
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := p.TopN(7, 10, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("TopN allocated %.1f objects/call, want <= 2 (result slice only)", allocs)
	}
	// TopNSparse excludes the row's stored cells with an advancing
	// pointer over the sorted CSR columns — no exclusion map, so the
	// same budget holds.
	allocs = testing.AllocsPerRun(20, func() {
		if _, err := p.TopNSparse(7, 10, ratings); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("TopNSparse allocated %.1f objects/call, want <= 2 (result slice only)", allocs)
	}
}

// svdBytesPerRun returns the bytes eig.SVD allocates per call on a
// seeded rows×cols Gaussian input, at one worker.
func svdBytesPerRun(t *testing.T, rows, cols int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(12))
	m := matrix.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	if _, err := eig.SVD(m); err != nil {
		t.Fatal(err)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := eig.SVD(m); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestWideSVDAllocationBudget guards the wide-matrix branch of eig.SVD:
// a wide input is already the column-major layout of its tall
// transpose, so it is cloned once into the working matrix, which then
// becomes V by an in-place transpose (a one-bit-per-element visit mask,
// not a second copy). For this 80×200 input the decomposition allocates
// ~197 KB/run; an extra m·n copy (+128 KB) trips the budget.
func TestWideSVDAllocationBudget(t *testing.T) {
	if b := svdBytesPerRun(t, 80, 200); b > 250000 {
		t.Fatalf("wide SVD allocated %.0f bytes/run, want <= 250000 (one working copy, transposed back in place)", b)
	}
}

// TestTallSVDAllocationBudget is the tall branch under the same budget:
// a 200×80 input is transposed once into the column-major working
// matrix, which becomes U by an in-place transpose.
func TestTallSVDAllocationBudget(t *testing.T) {
	if b := svdBytesPerRun(t, 200, 80); b > 250000 {
		t.Fatalf("tall SVD allocated %.0f bytes/run, want <= 250000 (one working copy, transposed back in place)", b)
	}
}

// TestWindowSlideAllocationBudget guards the bytes one scattered window
// slide allocates — BenchmarkWindowScatter's n=512 shape at 1% churn,
// pinned to one worker. Its arrivals and tombstones are both wide, so
// each endpoint side takes one signed sketched Brand step (~9.4 MB for
// the whole update); the two sketched steps per side it took before
// allocated ~18.5 MB. The budget sits between the two.
func TestWindowSlideAllocationBudget(t *testing.T) {
	m := benchStreamMatrix(512, benchUpdateNNZ)
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	d, err := core.DecomposeSparse(m, core.ISVD4, benchUpdateOpts())
	if err != nil {
		t.Fatal(err)
	}
	delta := scatterSlide(m, int(float64(m.NNZ())*0.01), rand.New(rand.NewSource(512)))
	never := core.Options{RefreshBudget: math.Inf(1)}
	if _, err := d.Update(delta, never); err != nil { // warm the runtime
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d2, err := d.Update(delta, never)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if h := d2.Health(); h.LastEscalation != "" {
		t.Fatalf("slide escalated (%s); the figure would not measure the additive step", h.LastEscalationReason)
	}
	const budget = 13 << 20
	if b := after.TotalAlloc - before.TotalAlloc; b > budget {
		t.Fatalf("one scattered slide allocated %d bytes, want <= %d (one signed sketched step per side)", b, budget)
	} else {
		t.Logf("one scattered slide allocated %d bytes", b)
	}
}
