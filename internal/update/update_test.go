package update

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/eig"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// lowRankMatrix returns an m×n matrix of exact rank rho (a product of
// two random Gaussian factors), scaled so singular values are O(1)-ish.
func lowRankMatrix(m, n, rho int, rng *rand.Rand) *matrix.Dense {
	x := matrix.New(m, rho)
	y := matrix.New(rho, n)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y.Data {
		y.Data[i] = rng.NormFloat64() / math.Sqrt(float64(rho))
	}
	return matrix.Mul(x, y)
}

func reconstruct(f *eig.SVDResult) *matrix.Dense {
	scaled := f.U.Clone()
	for j, sv := range f.S {
		for i := 0; i < scaled.Rows; i++ {
			scaled.Data[i*scaled.Cols+j] *= sv
		}
	}
	return matrix.MulT(scaled, f.V)
}

// checkAgainstFull asserts the updated factors agree with a fresh
// truncated decomposition of the updated matrix: singular values and
// reconstruction within relTol (relative to the spectrum scale).
func checkAgainstFull(t *testing.T, got *eig.SVDResult, want *matrix.Dense, rank int, relTol float64) {
	t.Helper()
	full, err := eig.SVD(want)
	if err != nil {
		t.Fatalf("full SVD: %v", err)
	}
	ref := full.Truncate(rank)
	scale := ref.S[0]
	if scale == 0 {
		scale = 1
	}
	if len(got.S) != rank {
		t.Fatalf("updated rank %d, want %d", len(got.S), rank)
	}
	for j := range got.S {
		if d := math.Abs(got.S[j] - ref.S[j]); d > relTol*scale {
			t.Fatalf("singular value %d: update %g vs full %g (diff %g)", j, got.S[j], ref.S[j], d)
		}
	}
	gr := reconstruct(got)
	rr := reconstruct(ref)
	var diff, norm float64
	for i := range gr.Data {
		d := gr.Data[i] - rr.Data[i]
		diff += d * d
		norm += rr.Data[i] * rr.Data[i]
	}
	if math.Sqrt(diff) > relTol*math.Max(1, math.Sqrt(norm)) {
		t.Fatalf("reconstruction differs: rel %g", math.Sqrt(diff)/math.Max(1, math.Sqrt(norm)))
	}
}

func TestUpdateMatchesFullRecompute(t *testing.T) {
	shapes := []struct{ m, n int }{{40, 24}, {24, 40}, {32, 32}}
	ranks := []int{6, 10}
	kinds := []string{"append-rows", "append-cols", "cell-patch"}
	for _, sh := range shapes {
		for _, rank := range ranks {
			for _, kind := range kinds {
				t.Run(fmt.Sprintf("%dx%d/r%d/%s", sh.m, sh.n, rank, kind), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(sh.m*1000 + sh.n*10 + rank)))
					// Exact rank well below the kept rank so the batch-extended
					// rank still fits and the update stays exact.
					rho := rank - 4
					a := lowRankMatrix(sh.m, sh.n, rho, rng)
					full, err := eig.SVD(a)
					if err != nil {
						t.Fatal(err)
					}
					f := full.Truncate(rank)

					switch kind {
					case "append-rows":
						c := 3
						b := lowRankMatrix(c, sh.n, 2, rng)
						got, _, err := AppendRows(f, b, rank)
						if err != nil {
							t.Fatal(err)
						}
						want := matrix.New(sh.m+c, sh.n)
						copy(want.Data[:sh.m*sh.n], a.Data)
						copy(want.Data[sh.m*sh.n:], b.Data)
						checkAgainstFull(t, got, want, rank, 1e-6)
					case "append-cols":
						c := 3
						b := lowRankMatrix(sh.m, c, 2, rng)
						got, _, err := AppendCols(f, b, rank)
						if err != nil {
							t.Fatal(err)
						}
						want := matrix.New(sh.m, sh.n+c)
						for i := 0; i < sh.m; i++ {
							copy(want.Data[i*(sh.n+c):i*(sh.n+c)+sh.n], a.Data[i*sh.n:(i+1)*sh.n])
							copy(want.Data[i*(sh.n+c)+sh.n:(i+1)*(sh.n+c)], b.Data[i*c:(i+1)*c])
						}
						checkAgainstFull(t, got, want, rank, 1e-6)
					case "cell-patch":
						// Patch a handful of cells across 3 distinct rows.
						var patch []sparse.Triplet
						want := a.Clone()
						for k := 0; k < 7; k++ {
							i := (k * 5) % 3 // 3 distinct rows
							j := (k * 7) % sh.n
							d := rng.NormFloat64()
							// Skip duplicates the stride pattern may produce.
							dup := false
							for _, p := range patch {
								if p.Row == i && p.Col == j {
									dup = true
								}
							}
							if dup {
								continue
							}
							patch = append(patch, sparse.Triplet{Row: i, Col: j, Val: d})
							want.Set(i, j, want.At(i, j)+d)
						}
						got, _, err := CellPatch(f, patch, rank)
						if err != nil {
							t.Fatal(err)
						}
						checkAgainstFull(t, got, want, rank, 1e-6)
					}
				})
			}
		}
	}
}

// TestUpdateChainStaysAccurate applies a sequence of small patches and
// checks the factors still agree with a full recompute at the end — the
// accumulated-error regime the residual budget in core monitors.
func TestUpdateChainStaysAccurate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, n, rank := 30, 20, 12
	a := lowRankMatrix(m, n, 5, rng)
	full, err := eig.SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	f := full.Truncate(rank)
	want := a.Clone()
	for step := 0; step < 4; step++ {
		// One-row patches keep the extended rank within the kept rank.
		i := step % m
		var patch []sparse.Triplet
		for j := 0; j < 3; j++ {
			d := rng.NormFloat64()
			patch = append(patch, sparse.Triplet{Row: i, Col: (j*3 + step) % n, Val: d})
			want.Set(i, (j*3+step)%n, want.At(i, (j*3+step)%n)+d)
		}
		f, _, err = CellPatch(f, patch, rank)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	checkAgainstFull(t, f, want, rank, 1e-6)
}

// TestUpdateDiscardedMass: updating a full-spectrum matrix at a small
// kept rank must discard mass and report it.
func TestUpdateDiscardedMass(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, n, rank := 20, 16, 4
	a := matrix.New(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	full, err := eig.SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	f := full.Truncate(rank)
	b := matrix.New(2, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	_, disc, err := AppendRows(f, b, rank)
	if err != nil {
		t.Fatal(err)
	}
	if disc <= 0 {
		t.Fatalf("discarded mass %g, want > 0 for a full-spectrum matrix", disc)
	}
}

func TestUpdateDeterministicAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(0)
	rng := rand.New(rand.NewSource(11))
	m, n, rank := 64, 48, 10
	a := lowRankMatrix(m, n, 6, rng)
	b := lowRankMatrix(4, n, 3, rng)
	patch := []sparse.Triplet{
		{Row: 1, Col: 2, Val: 0.5}, {Row: 1, Col: 7, Val: -0.25},
		{Row: 9, Col: 2, Val: 1.5}, {Row: 30, Col: 40, Val: -2},
	}
	type out struct{ rows, patched *eig.SVDResult }
	var ref out
	for _, w := range []int{1, 3, 8} {
		parallel.SetWorkers(w)
		full, err := eig.SVD(a)
		if err != nil {
			t.Fatal(err)
		}
		f := full.Truncate(rank)
		gr, _, err := AppendRows(f, b, rank)
		if err != nil {
			t.Fatal(err)
		}
		gp, _, err := CellPatch(f, patch, rank)
		if err != nil {
			t.Fatal(err)
		}
		if w == 1 {
			ref = out{rows: gr, patched: gp}
			continue
		}
		for name, pair := range map[string][2]*eig.SVDResult{
			"append-rows": {ref.rows, gr},
			"cell-patch":  {ref.patched, gp},
		} {
			a, b := pair[0], pair[1]
			for i := range a.S {
				if a.S[i] != b.S[i] {
					t.Fatalf("%s: S[%d] differs at %d workers", name, i, w)
				}
			}
			for i := range a.U.Data {
				if a.U.Data[i] != b.U.Data[i] {
					t.Fatalf("%s: U differs at %d workers", name, w)
				}
			}
			for i := range a.V.Data {
				if a.V.Data[i] != b.V.Data[i] {
					t.Fatalf("%s: V differs at %d workers", name, w)
				}
			}
		}
	}
}

func TestUpdateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := lowRankMatrix(10, 8, 3, rng)
	full, err := eig.SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	f := full.Truncate(5)
	if _, _, err := AppendRows(f, matrix.New(2, 9), 5); err == nil {
		t.Error("AppendRows accepted mismatched cols")
	}
	if _, _, err := AppendCols(f, matrix.New(9, 2), 5); err == nil {
		t.Error("AppendCols accepted mismatched rows")
	}
	if _, _, err := LowRank(f, matrix.New(10, 2), matrix.New(8, 3), 5); err == nil {
		t.Error("LowRank accepted mismatched batch ranks")
	}
	if _, _, err := CellPatch(f, []sparse.Triplet{{Row: 99, Col: 0, Val: 1}}, 5); err == nil {
		t.Error("CellPatch accepted out-of-range cell")
	}
	if _, _, err := CellPatch(f, []sparse.Triplet{
		{Row: 1, Col: 1, Val: 1}, {Row: 1, Col: 1, Val: 2},
	}, 5); err == nil {
		t.Error("CellPatch accepted duplicate cell")
	}
}
