package update

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/eig"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

func TestDowndateMatchesFullRecompute(t *testing.T) {
	shapes := []struct{ m, n int }{{40, 24}, {24, 40}, {32, 32}}
	kinds := []string{"remove-rows", "remove-cols", "cell-unpatch"}
	rank := 8
	for _, sh := range shapes {
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%dx%d/%s", sh.m, sh.n, kind), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(sh.m*100 + sh.n)))
				a := lowRankMatrix(sh.m, sh.n, 4, rng)
				full, err := eig.SVD(a)
				if err != nil {
					t.Fatal(err)
				}
				f := full.Truncate(rank)

				switch kind {
				case "remove-rows":
					rows := []int{sh.m - 1, 0, 5} // any order on input
					got, _, err := RemoveRows(f, rows, rank)
					if err != nil {
						t.Fatal(err)
					}
					want := matrix.New(sh.m-3, sh.n)
					out := 0
					for i := 0; i < sh.m; i++ {
						if i == 0 || i == 5 || i == sh.m-1 {
							continue
						}
						copy(want.RowView(out), a.RowView(i))
						out++
					}
					checkAgainstFull(t, got, want, rank, 1e-6)
				case "remove-cols":
					cols := []int{1, sh.n - 2}
					got, _, err := RemoveCols(f, cols, rank)
					if err != nil {
						t.Fatal(err)
					}
					want := matrix.New(sh.m, sh.n-2)
					for i := 0; i < sh.m; i++ {
						out := 0
						for j := 0; j < sh.n; j++ {
							if j == 1 || j == sh.n-2 {
								continue
							}
							want.Set(i, out, a.At(i, j))
							out++
						}
					}
					checkAgainstFull(t, got, want, rank, 1e-6)
				case "cell-unpatch":
					// The unpatch reverts cells to zero: a CellPatch of their
					// negated CURRENT values.
					cells := []sparse.Triplet{
						{Row: 0, Col: 0, Val: -a.At(0, 0)},
						{Row: 0, Col: 3, Val: -a.At(0, 3)},
						{Row: 7, Col: 2, Val: -a.At(7, 2)},
					}
					got, _, err := CellPatch(f, cells, rank)
					if err != nil {
						t.Fatal(err)
					}
					want := a.Clone()
					for _, c := range cells {
						want.Set(c.Row, c.Col, 0)
					}
					checkAgainstFull(t, got, want, rank, 1e-6)
				}
			})
		}
	}
}

// TestAppendThenRemoveRecovers is the window-churn identity at the factor
// level: appending a slice and then removing exactly those indices must
// recover the never-appended factors to the engine's agreement
// tolerance.
func TestAppendThenRemoveRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m, n, rank := 36, 24, 8
	a := lowRankMatrix(m, n, 4, rng)
	full, err := eig.SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	f := full.Truncate(rank)

	b := lowRankMatrix(3, n, 2, rng)
	grown, _, err := AppendRows(f, b, rank)
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := RemoveRows(grown, []int{m, m + 1, m + 2}, rank)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstFull(t, back, a, rank, 1e-6)

	c := lowRankMatrix(m, 2, 1, rng)
	wide, _, err := AppendCols(f, c, rank)
	if err != nil {
		t.Fatal(err)
	}
	back, _, err = RemoveCols(wide, []int{n, n + 1}, rank)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstFull(t, back, a, rank, 1e-6)
}

func TestForget(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := lowRankMatrix(12, 9, 3, rng)
	full, err := eig.SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	f := full.Truncate(4)

	// λ = 1 is pinned as a bitwise no-op: the same factor object comes
	// back, untouched.
	same, err := Forget(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if same != f {
		t.Error("Forget(1) did not return the input factors unchanged")
	}

	half, err := Forget(f, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i, sv := range f.S {
		if half.S[i] != 0.5*sv {
			t.Fatalf("S[%d]: %g, want %g", i, half.S[i], 0.5*sv)
		}
	}
	if half.U != f.U || half.V != f.V {
		t.Error("Forget rebuilt the bases; decay must touch only the spectrum")
	}

	for _, lam := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, err := Forget(f, lam); err == nil {
			t.Errorf("Forget(%v) accepted", lam)
		}
	}
}

// TestDowndateIllConditioned removes a row carrying overwhelmingly more
// mass than the retained trailing spectrum: the cancellation recovers
// the surviving directions from a catastrophically small difference, and
// the downdate must refuse to return the damaged factors.
func TestDowndateIllConditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	m, n := 10, 8
	a := matrix.New(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	// Row 0 dwarfs everything else by ten orders of magnitude.
	for j := 0; j < n; j++ {
		a.Set(0, j, 1e10*rng.NormFloat64())
	}
	full, err := eig.SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	f := full.Truncate(5)
	_, _, err = RemoveRows(f, []int{0}, 5)
	if err == nil {
		t.Fatal("near-total cancellation returned factors instead of failing")
	}
	if !errors.Is(err, ErrIllConditioned) {
		t.Fatalf("error %v does not unwrap to ErrIllConditioned", err)
	}
	var ill *IllConditionedError
	if !errors.As(err, &ill) {
		t.Fatalf("error %v is not an *IllConditionedError", err)
	}
	if ill.Op != "RemoveRows" {
		t.Errorf("Op = %q, want RemoveRows", ill.Op)
	}
	if ill.RemovedMass <= ill.SigmaMin {
		t.Errorf("reported removed mass %g not above σ_min %g", ill.RemovedMass, ill.SigmaMin)
	}

	// The transposed path reports its own name.
	_, _, err = RemoveCols(&eig.SVDResult{U: f.V, S: f.S, V: f.U}, []int{0}, 5)
	if errors.As(err, &ill) && ill.Op != "RemoveCols" {
		t.Errorf("RemoveCols reported Op %q", ill.Op)
	}
}

func TestCheckFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := lowRankMatrix(8, 6, 2, rng)
	full, err := eig.SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	f := full.Truncate(3)
	if err := CheckFinite(f); err != nil {
		t.Fatalf("finite factors flagged: %v", err)
	}
	for name, poison := range map[string]func(g *eig.SVDResult){
		"S-nan": func(g *eig.SVDResult) { g.S[1] = math.NaN() },
		"U-inf": func(g *eig.SVDResult) { g.U.Data[3] = math.Inf(1) },
		"V-nan": func(g *eig.SVDResult) { g.V.Data[0] = math.NaN() },
	} {
		g := f.Truncate(len(f.S))
		poison(g)
		if err := CheckFinite(g); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: error %v does not unwrap to ErrNonFinite", name, err)
		}
	}
}

func TestDowndateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := lowRankMatrix(10, 8, 3, rng)
	full, err := eig.SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	f := full.Truncate(4)
	for name, idx := range map[string][]int{
		"empty":        {},
		"out-of-range": {10},
		"negative":     {-1},
		"duplicate":    {2, 2},
		"remove-all":   {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
	} {
		if _, _, err := RemoveRows(f, idx, 4); err == nil {
			t.Errorf("RemoveRows accepted %s index set", name)
		}
	}
	if _, _, err := RemoveCols(f, []int{8}, 4); err == nil {
		t.Error("RemoveCols accepted out-of-range column")
	}
}

func TestDowndateDeterministicAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(0)
	rng := rand.New(rand.NewSource(37))
	m, n, rank := 48, 36, 8
	a := lowRankMatrix(m, n, 4, rng)
	var ref *eig.SVDResult
	for _, w := range []int{1, 3, 8} {
		parallel.SetWorkers(w)
		full, err := eig.SVD(a)
		if err != nil {
			t.Fatal(err)
		}
		f := full.Truncate(rank)
		got, _, err := RemoveRows(f, []int{2, 17, 40}, rank)
		if err != nil {
			t.Fatal(err)
		}
		if w == 1 {
			ref = got
			continue
		}
		for i := range ref.S {
			if ref.S[i] != got.S[i] {
				t.Fatalf("S[%d] differs at %d workers", i, w)
			}
		}
		for i := range ref.U.Data {
			if ref.U.Data[i] != got.U.Data[i] {
				t.Fatalf("U differs at %d workers", w)
			}
		}
		for i := range ref.V.Data {
			if ref.V.Data[i] != got.V.Data[i] {
				t.Fatalf("V differs at %d workers", w)
			}
		}
	}
}
