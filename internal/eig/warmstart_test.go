package eig

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/parallel"
)

// decayingSym returns an n×n symmetric matrix with geometric spectral
// decay (the regime the truncated solver serves).
func decayingSym(n int, rng *rand.Rand) *matrix.Dense {
	q := matrix.New(n, n)
	for i := range q.Data {
		q.Data[i] = rng.NormFloat64()
	}
	// Orthogonalize-ish via one Gram step is unnecessary; build A = B·D·Bᵀ
	// with random B and decaying D, which has decaying spectrum too.
	d := matrix.New(n, n)
	for i := 0; i < n; i++ {
		d.Data[i*n+i] = math.Pow(0.6, float64(i))
	}
	return matrix.Mul(matrix.Mul(q, d), q.T())
}

// TestWarmStartFewerSweeps pins the warm-start win: re-solving a
// slightly drifted operator seeded with the previous eigenvectors must
// converge in strictly fewer sweeps than the cold solve, and agree with
// the cold solution to solver tolerance.
func TestWarmStartFewerSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n, rank := 120, 6
	a := decayingSym(n, rng)
	op := NewDenseSymOp(a)

	var coldSweeps int
	vals, vecs, err := TruncatedSymEig(op, rank, Options{Sweeps: &coldSweeps})
	if err != nil {
		t.Fatal(err)
	}

	// Drift the operator: small symmetric perturbation.
	drift := a.Clone()
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			d := 1e-4 * rng.NormFloat64()
			drift.Data[i*n+j] += d
			if i != j {
				drift.Data[j*n+i] += d
			}
		}
	}
	dop := NewDenseSymOp(drift)

	var coldDriftSweeps, warmSweeps int
	coldVals, _, err := TruncatedSymEig(dop, rank, Options{Sweeps: &coldDriftSweeps})
	if err != nil {
		t.Fatal(err)
	}
	warmVals, _, err := TruncatedSymEig(dop, rank, Options{Start: vecs, Sweeps: &warmSweeps})
	if err != nil {
		t.Fatal(err)
	}
	if warmSweeps >= coldDriftSweeps {
		t.Fatalf("warm start took %d sweeps, cold %d — no win", warmSweeps, coldDriftSweeps)
	}
	for i := range warmVals {
		if d := math.Abs(warmVals[i] - coldVals[i]); d > 1e-8*math.Abs(coldVals[0]) {
			t.Fatalf("warm eigenvalue %d: %g vs cold %g", i, warmVals[i], coldVals[i])
		}
	}
	_ = vals
}

// TestWarmStartSVD seeds TruncatedSVD from a previous decomposition
// of a drifted matrix, for both orientations (tall routes through StartV,
// wide through StartU).
func TestWarmStartSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, sh := range []struct{ m, n int }{{150, 90}, {90, 150}} {
		// Full geometrically-decaying spectrum: X·D·Y with Gaussian X, Y
		// and D_ii = 0.9^i, so the cold solve needs several sweeps and a
		// warm start has sweeps to save.
		k := sh.m
		if sh.n < k {
			k = sh.n
		}
		x := matrix.New(sh.m, k)
		y := matrix.New(k, sh.n)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		for i := range y.Data {
			y.Data[i] = rng.NormFloat64()
		}
		for i := 0; i < k; i++ {
			scale := math.Pow(0.9, float64(i))
			row := y.RowView(i)
			for j := range row {
				row[j] *= scale
			}
		}
		a := matrix.Mul(x, y)
		rank := 5
		prev, err := TruncatedSVD(NewDenseOp(a), rank, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Data {
			a.Data[i] += 1e-5 * rng.NormFloat64()
		}
		var coldSweeps, warmSweeps int
		cold, err := TruncatedSVD(NewDenseOp(a), rank, Options{Sweeps: &coldSweeps})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := TruncatedSVD(NewDenseOp(a), rank, Options{StartU: prev.U, StartV: prev.V, Sweeps: &warmSweeps})
		if err != nil {
			t.Fatal(err)
		}
		if warmSweeps >= coldSweeps {
			t.Fatalf("%dx%d: warm %d sweeps vs cold %d — no win", sh.m, sh.n, warmSweeps, coldSweeps)
		}
		for i := range warm.S {
			if d := math.Abs(warm.S[i] - cold.S[i]); d > 1e-8*cold.S[0] {
				t.Fatalf("%dx%d: warm σ_%d %g vs cold %g", sh.m, sh.n, i, warm.S[i], cold.S[i])
			}
		}
	}
}

// TestWarmStartDeterministic: a warm-started solve is bitwise identical
// across worker counts, like the cold one.
func TestWarmStartDeterministic(t *testing.T) {
	defer parallel.SetWorkers(0)
	rng := rand.New(rand.NewSource(29))
	n, rank := 96, 5
	a := decayingSym(n, rng)
	start := matrix.New(n, rank)
	for i := range start.Data {
		start.Data[i] = rng.NormFloat64()
	}
	var refVals []float64
	var refVecs *matrix.Dense
	for _, w := range []int{1, 3, 8} {
		parallel.SetWorkers(w)
		vals, vecs, err := TruncatedSymEig(NewDenseSymOp(a), rank, Options{Start: start})
		if err != nil {
			t.Fatal(err)
		}
		if w == 1 {
			refVals, refVecs = vals, vecs
			continue
		}
		for i := range vals {
			if vals[i] != refVals[i] {
				t.Fatalf("eigenvalue %d differs at %d workers", i, w)
			}
		}
		for i := range vecs.Data {
			if vecs.Data[i] != refVecs.Data[i] {
				t.Fatalf("eigenvector data differs at %d workers", w)
			}
		}
	}
}

// TestWarmStartBadDims: a start block with the wrong row count is an
// error, not a silent fallback.
func TestWarmStartBadDims(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := decayingSym(40, rng)
	if _, _, err := TruncatedSymEig(NewDenseSymOp(a), 4, Options{Start: matrix.New(39, 4)}); err == nil {
		t.Error("mismatched start block accepted")
	}
}

// TestWarmStartExtraColumns: a start block wider than the iteration
// block is truncated, not an error (a caller may pass rank+p factors
// from a previous run at a larger rank).
func TestWarmStartExtraColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	n, rank := 80, 3
	a := decayingSym(n, rng)
	wide := matrix.New(n, rank+Oversample(rank)+7)
	for i := range wide.Data {
		wide.Data[i] = rng.NormFloat64()
	}
	vals, _, err := TruncatedSymEig(NewDenseSymOp(a), rank, Options{Start: wide})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := TruncatedSymEig(NewDenseSymOp(a), rank, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if d := math.Abs(vals[i] - ref[i]); d > 1e-8*math.Abs(ref[0]) {
			t.Fatalf("eigenvalue %d: %g vs %g", i, vals[i], ref[i])
		}
	}
}
