package recommend

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/imatrix"
	"repro/internal/matrix"
	"repro/internal/sparse"
)

func ratingsFixture(rows, cols, rho int, rng *rand.Rand) *sparse.ICSR {
	x := matrix.New(rows, rho)
	y := matrix.New(rho, cols)
	for i := range x.Data {
		x.Data[i] = math.Abs(rng.NormFloat64())
	}
	for i := range y.Data {
		y.Data[i] = math.Abs(rng.NormFloat64()) / float64(rho)
	}
	lo := matrix.Mul(x, y)
	return sparse.FromIMatrix(imatrix.FromEndpoints(lo, lo.Scale(1.25)))
}

func TestApplyDeltaRefreshesLivePredictor(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	ratings := ratingsFixture(30, 20, 3, rng)
	opts := core.Options{Rank: 8, Target: core.TargetB, Updatable: true}
	p, err := BuildSparseISVD(ratings, core.ISVD4, opts, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	before, err := p.Predict(4, 7)
	if err != nil {
		t.Fatal(err)
	}

	// Edit one cell sharply and stream it in.
	old := ratings.At(4, 7)
	delta := core.Delta{Patch: []sparse.ITriplet{
		{Row: 4, Col: 7, Lo: old.Lo + 3, Hi: old.Hi + 3.5},
	}}
	if err := p.ApplyDelta(delta, core.Options{}); err != nil {
		t.Fatal(err)
	}
	after, err := p.Predict(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Fatalf("prediction did not move with the delta: %g -> %g", before, after)
	}

	// The refreshed predictor matches one built from scratch on the
	// patched ratings.
	patched, err := ratings.ApplyCells(delta.Patch, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := BuildSparseISVD(patched, core.ISVD4, opts, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range [][2]int{{4, 7}, {0, 0}, {29, 19}, {12, 3}} {
		a, _ := p.Predict(cell[0], cell[1])
		b, _ := fresh.Predict(cell[0], cell[1])
		if math.Abs(a-b) > 1e-6*math.Max(1, math.Abs(b)) {
			t.Fatalf("cell %v: live %g vs fresh %g", cell, a, b)
		}
	}
}

func TestApplyDeltaGrowsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	ratings := ratingsFixture(24, 16, 3, rng)
	opts := core.Options{Rank: 8, Target: core.TargetB, Updatable: true}
	p, err := BuildSparseISVD(ratings, core.ISVD2, opts, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	newUsers := ratingsFixture(2, 16, 1, rng)
	if err := p.ApplyDelta(core.Delta{AppendRows: newUsers}, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if p.Rows() != 26 || p.Cols() != 16 {
		t.Fatalf("predictor shape %dx%d after append, want 26x16", p.Rows(), p.Cols())
	}
	// The appended user is predictable immediately.
	if _, err := p.Predict(25, 3); err != nil {
		t.Fatal(err)
	}
	// TopN serves the new user too.
	top, err := p.TopN(25, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("TopN returned %d items for the appended user", len(top))
	}
}

func TestApplyDeltaRequiresUpdatable(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	ratings := ratingsFixture(20, 12, 3, rng)
	p, err := BuildSparseISVD(ratings, core.ISVD2, core.Options{Rank: 6, Target: core.TargetB}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	err = p.ApplyDelta(core.Delta{Patch: []sparse.ITriplet{{Row: 0, Col: 0, Lo: 1, Hi: 1}}}, core.Options{})
	if err == nil {
		t.Fatal("ApplyDelta on a non-updatable predictor accepted")
	}
	// Predictor still serves.
	if _, perr := p.Predict(0, 0); perr != nil {
		t.Fatal(perr)
	}

	// Materialized-reconstruction predictors are rejected too.
	d, err := core.DecomposeSparse(ratings, core.ISVD2, core.Options{Rank: 6})
	if err != nil {
		t.Fatal(err)
	}
	mp := FromDecomposition(d, 0, 0)
	if err := mp.ApplyDelta(core.Delta{Patch: []sparse.ITriplet{{Row: 0, Col: 0, Lo: 1, Hi: 1}}}, core.Options{}); err == nil {
		t.Fatal("ApplyDelta on a materialized predictor accepted")
	}
}

// TestTopNHeapMatchesReference pins the heap selection against a
// brute-force sort across sizes, exclusions, and tied values.
func TestTopNHeapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	ratings := ratingsFixture(12, 40, 3, rng)
	p, err := BuildSparseISVD(ratings, core.ISVD2, core.Options{Rank: 6, Target: core.TargetB}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	exclude := map[int]bool{3: true, 17: true, 39: true}
	for _, n := range []int{0, 1, 2, 5, 37, 40, 100} {
		got, err := p.TopN(2, n, exclude)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: full sort by (midpoint desc, col asc).
		type cand struct {
			j int
			v float64
		}
		var ref []cand
		for j := 0; j < p.Cols(); j++ {
			if exclude[j] {
				continue
			}
			iv, _ := p.PredictInterval(2, j)
			ref = append(ref, cand{j, iv.Mid()})
		}
		sort.SliceStable(ref, func(a, b int) bool {
			if ref[a].v != ref[b].v {
				return ref[a].v > ref[b].v
			}
			return ref[a].j < ref[b].j
		})
		wantN := n
		if wantN > len(ref) {
			wantN = len(ref)
		}
		if len(got) != wantN {
			t.Fatalf("n=%d: got %d items, want %d", n, len(got), wantN)
		}
		for k := range got {
			if got[k] != ref[k].j {
				t.Fatalf("n=%d: item %d is col %d, want %d", n, k, got[k], ref[k].j)
			}
		}
	}
}

// TestTopNTies: a constant-valued region must surface in ascending
// column order, matching the pre-heap behavior.
func TestTopNTies(t *testing.T) {
	// A constant materialized source: every unexcluded column ties
	// exactly (bitwise), exercising the heap's tie ordering directly.
	lo := matrix.New(4, 9)
	for i := range lo.Data {
		lo.Data[i] = 2
	}
	p := &Predictor{src: imatrix.FromEndpoints(lo, lo.Clone())}
	top, err := p.TopN(1, 4, map[int]bool{0: true, 2: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 4, 5}
	for k := range want {
		if top[k] != want[k] {
			t.Fatalf("tied TopN = %v, want %v", top, want)
		}
	}
}
