package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/eig"
	"repro/internal/imatrix"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// The solver-routing fixtures are routeRows×routeCols at rank
// routeRank: with Oversample(6) = 8 the auto routing picks the truncated
// solver for any operator dimension above 42.
const (
	routeRows, routeCols = 150, 100
	routeRank            = 6
)

// routeDecaying returns a non-negative interval matrix whose endpoints
// are a rank-12 product with geometrically decaying factor weights plus
// a tiny noise floor: the truncated solver converges on it in a few
// sweeps, matrix-free on the Gram operators.
func routeDecaying() *imatrix.IMatrix {
	rng := rand.New(rand.NewSource(2401))
	const rows, cols, k = routeRows, routeCols, 12
	w, h := matrix.New(rows, k), matrix.New(k, cols)
	for i := range w.Data {
		w.Data[i] = rng.Float64() * math.Pow(0.6, float64(i%k))
	}
	for i := range h.Data {
		h.Data[i] = rng.Float64()
	}
	lo := matrix.Mul(w, h)
	m := imatrix.New(rows, cols)
	for i, v := range lo.Data {
		v += 1e-6 * rng.Float64()
		m.Lo.Data[i] = v
		m.Hi.Data[i] = v * (1 + 0.05*(1+math.Sin(float64(i))))
	}
	return m
}

// routeFlat returns a rows×cols interval matrix with independent
// uniform non-negative endpoints: past its leading singular value the
// spectrum is a flat bulk on which the truncated solver gives up.
func routeFlat(rows, cols int) *imatrix.IMatrix {
	rng := rand.New(rand.NewSource(2402))
	m := imatrix.New(rows, cols)
	for i := range m.Lo.Data {
		v := rng.Float64()
		m.Lo.Data[i] = v
		m.Hi.Data[i] = v + 0.1*rng.Float64()
	}
	return m
}

// routeMixed returns a mixed-sign interval matrix (a decaying Gaussian
// rank-12 product plus noise): its Algorithm 1 endpoint Gram is not
// [LoᵀLo, HiᵀHi], so ISVD2-4 materialize the interval Gram.
func routeMixed() *imatrix.IMatrix {
	rng := rand.New(rand.NewSource(2403))
	const rows, cols, k = routeRows, routeCols, 12
	w, h := matrix.New(rows, k), matrix.New(k, cols)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64() * math.Pow(0.6, float64(i%k))
	}
	for i := range h.Data {
		h.Data[i] = rng.NormFloat64()
	}
	lo := matrix.Mul(w, h)
	m := imatrix.New(rows, cols)
	for i, v := range lo.Data {
		v += 1e-3 * rng.NormFloat64()
		m.Lo.Data[i] = v
		m.Hi.Data[i] = v + 0.05*rng.Float64()
	}
	return m
}

// routeChain returns the three cell patches of the update chains:
// non-negative, so every method stays updatable.
func routeChain(rows, cols int) []Delta {
	rng := rand.New(rand.NewSource(2404))
	deltas := make([]Delta, 3)
	for s := range deltas {
		seen := map[[2]int]bool{}
		for len(deltas[s].Patch) < 6 {
			r, c := rng.Intn(rows), rng.Intn(cols)
			if seen[[2]int{r, c}] {
				continue
			}
			seen[[2]int{r, c}] = true
			v := rng.Float64()
			deltas[s].Patch = append(deltas[s].Patch, sparse.ITriplet{Row: r, Col: c, Lo: v, Hi: v + 0.1})
		}
	}
	return deltas
}

// hashFactors feeds the shapes and exact bits of d's U, Σ and V to h.
func hashFactors(h hash.Hash64, d *Decomposition) {
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, m := range []*imatrix.IMatrix{d.U, d.Sigma, d.V} {
		put(uint64(m.Rows()))
		put(uint64(m.Cols()))
		for _, block := range [][]float64{m.Lo.Data, m.Hi.Data} {
			for _, x := range block {
				put(math.Float64bits(x))
			}
		}
	}
}

// TestSolverRouteDigests pins every solver-routing branch of ISVD0-4
// bitwise: Decompose and DecomposeSparse under the auto, full and
// truncated solvers on a decaying spectrum (truncated solves converge),
// a flat one (they give up and fall back to the full solver) and a
// mixed-sign one (ISVD2-4 run on the materialized interval Gram), plus a
// three-step always-refresh update chain on the first two, which runs
// the warm-started refresh on both its converging and its fallback
// branch (ISVD0 refreshes the midpoint side, ISVD4 the two endpoint
// sides). One digest covers all five methods of an (input, storage,
// solver) cell; workers 1 and 3 must both reproduce it. Like
// TestSVDBitwiseDigests the digests assume amd64 floating point.
func TestSolverRouteDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are recorded for amd64 floating point; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	inputs := []struct {
		name  string
		m     *imatrix.IMatrix
		chain bool
	}{
		{"decaying", routeDecaying(), true},
		{"flat", routeFlat(routeRows, routeCols), true},
		{"mixed", routeMixed(), false},
	}
	// The fixtures must exercise the branches they are named for.
	for _, in := range inputs[:2] {
		_, err := eig.TruncatedSVD(eig.NewDenseOp(in.m.Lo), routeRank, eig.Options{})
		if converged := err == nil; converged != (in.name == "decaying") {
			t.Fatalf("%s: truncated SVD of the min endpoint returned %v", in.name, err)
		}
		if err != nil && err != eig.ErrNoConvergence {
			t.Fatalf("%s: %v", in.name, err)
		}
	}

	// Recorded before eig.RoutedSVD/RoutedSymEig replaced the per-caller
	// copies of the fallback policy: a change here is a routing change.
	// decaying/chain/full and flat/chain/* were re-recorded when the warm
	// refresh's full-solver branch became the Gram SymEig of
	// eig.GramSVD; the converging chains did not move.
	want := map[string]uint64{
		"decaying/chain/auto":       0xb0d4433da5308a62,
		"decaying/chain/full":       0xdcd4c5be06f14758,
		"decaying/chain/truncated":  0x03f2dbf444e56bf2,
		"decaying/dense/auto":       0x5fd1a6e081a061d6,
		"decaying/dense/full":       0x08a4efc46fd78668,
		"decaying/dense/truncated":  0x2a17f4735ffe54cc,
		"decaying/sparse/auto":      0x5fd1a6e081a061d6,
		"decaying/sparse/full":      0x08a4efc46fd78668,
		"decaying/sparse/truncated": 0x2a17f4735ffe54cc,
		"flat/chain/auto":           0x6be1489eec48e1f6,
		"flat/chain/full":           0x6be1489eec48e1f6,
		"flat/chain/truncated":      0xe57366110c2ec70d,
		"flat/dense/auto":           0xa16ce3b9c3f39826,
		"flat/dense/full":           0xa16ce3b9c3f39826,
		"flat/dense/truncated":      0x6149620646da3c40,
		"flat/sparse/auto":          0xa16ce3b9c3f39826,
		"flat/sparse/full":          0xa16ce3b9c3f39826,
		"flat/sparse/truncated":     0x6149620646da3c40,
		"mixed/dense/auto":          0x1fa06412345eb0c4,
		"mixed/dense/full":          0xa791e3083b304209,
		"mixed/dense/truncated":     0xf9ad5b424e94dc89,
		"mixed/sparse/auto":         0x1fa06412345eb0c4,
		"mixed/sparse/full":         0xa791e3083b304209,
		"mixed/sparse/truncated":    0xf9ad5b424e94dc89,
	}
	got := map[string]uint64{}
	record := func(key string, sum uint64) {
		if prev, ok := got[key]; ok && prev != sum {
			t.Errorf("%s: digest %#016x differs across worker counts (first %#016x)", key, sum, prev)
		}
		got[key] = sum
	}
	defer parallel.SetWorkers(0)
	for _, workers := range []int{1, 3} {
		parallel.SetWorkers(workers)
		for _, in := range inputs {
			sp := sparse.FromIMatrix(in.m)
			for _, solver := range []eig.Solver{eig.SolverAuto, eig.SolverFull, eig.SolverTruncated} {
				opts := Options{Rank: routeRank, Solver: solver}
				for _, storage := range []string{"dense", "sparse"} {
					h := fnv.New64a()
					for _, method := range Methods() {
						var d *Decomposition
						var err error
						if storage == "dense" {
							d, err = Decompose(in.m, method, opts)
						} else {
							d, err = DecomposeSparse(sp, method, opts)
						}
						if err != nil {
							t.Fatalf("%s/%s/%v/%v: %v", in.name, storage, solver, method, err)
						}
						hashFactors(h, d)
					}
					record(fmt.Sprintf("%s/%s/%v", in.name, storage, solver), h.Sum64())
				}
				if !in.chain {
					continue
				}
				h := fnv.New64a()
				upd := opts
				upd.Updatable = true
				for _, method := range []Method{ISVD0, ISVD4} {
					d, err := DecomposeSparse(sp, method, upd)
					if err != nil {
						t.Fatalf("%s/chain/%v/%v: %v", in.name, solver, method, err)
					}
					for i, delta := range routeChain(routeRows, routeCols) {
						if d, err = d.Update(delta, Options{RefreshBudget: math.Inf(-1)}); err != nil {
							t.Fatalf("%s/chain/%v/%v step %d: %v", in.name, solver, method, i, err)
						}
						if hl := d.Health(); hl.Refreshes != i+1 || hl.Redecomposes != 0 {
							t.Fatalf("%s/chain/%v/%v step %d: health %+v, want one refresh per step", in.name, solver, method, i, hl)
						}
						hashFactors(h, d)
					}
				}
				record(fmt.Sprintf("%s/chain/%v", in.name, solver), h.Sum64())
			}
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%q: %#016x, want %#016x", k, got[k], want[k])
		}
	}
}

// TestTimingsCoverTruncatedFallback checks that a decomposition whose
// matrix-free truncated Gram solve gives up (the flat fixture) still
// accounts for its wall time: the abandoned attempt is decomposition
// work and belongs in Timings.Decompose. At 300×200 and rank 10 the
// attempt is a quarter of the wall time. The ratio is the median of
// three runs, so one descheduled run cannot fail the check.
func TestTimingsCoverTruncatedFallback(t *testing.T) {
	m := routeFlat(300, 200)
	for _, method := range []Method{ISVD2, ISVD4} {
		ratios := make([]float64, 3)
		for i := range ratios {
			t0 := time.Now()
			d, err := Decompose(m, method, Options{Rank: 10})
			wall := time.Since(t0)
			if err != nil {
				t.Fatal(err)
			}
			ratios[i] = float64(d.Timings.Total()) / float64(wall)
		}
		sort.Float64s(ratios)
		if ratios[1] < 0.85 {
			t.Errorf("%v: Timings.Total() is a median %.2f of wall time (runs %.2f), want >= 0.85", method, ratios[1], ratios)
		}
	}
}
