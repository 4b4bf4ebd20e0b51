package sparse

import (
	"math/rand"
	"testing"
)

// TestScale: every stored endpoint scales, structure is shared, and
// non-positive or infinite factors are rejected.
func TestScale(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	a := randomICSR(8, 6, 20, rng)
	got, err := a.Scale(0.25)
	if err != nil {
		t.Fatal(err)
	}
	for p := range a.Lo {
		if got.Lo[p] != 0.25*a.Lo[p] || got.Hi[p] != 0.25*a.Hi[p] {
			t.Fatalf("entry %d: [%g,%g], want [%g,%g]", p, got.Lo[p], got.Hi[p], 0.25*a.Lo[p], 0.25*a.Hi[p])
		}
	}
	if &got.RowPtr[0] != &a.RowPtr[0] {
		t.Error("Scale copied the index structure; it should be shared")
	}
	for _, bad := range []float64{0, -1, mathInf()} {
		if _, err := a.Scale(bad); err == nil {
			t.Errorf("Scale(%g) accepted", bad)
		}
	}
}

func mathInf() float64 { x := 1.0; return x / (x - 1) }

// TestRemoveRowsCols: removals against the dense expansion, with
// surviving indices shifted and the index-set validation enforced.
func TestRemoveRowsCols(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	a := randomICSR(9, 7, 25, rng)

	rows := []int{8, 0, 4} // any order
	gotR, err := a.RemoveRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if gotR.Rows != 6 || gotR.Cols != 7 {
		t.Fatalf("RemoveRows shape %dx%d", gotR.Rows, gotR.Cols)
	}
	out := 0
	for i := 0; i < 9; i++ {
		if i == 0 || i == 4 || i == 8 {
			continue
		}
		for j := 0; j < 7; j++ {
			if gotR.At(out, j) != a.At(i, j) {
				t.Fatalf("surviving row %d (was %d) cell %d differs", out, i, j)
			}
		}
		out++
	}

	cols := []int{6, 2}
	gotC, err := a.RemoveCols(cols)
	if err != nil {
		t.Fatal(err)
	}
	if gotC.Rows != 9 || gotC.Cols != 5 {
		t.Fatalf("RemoveCols shape %dx%d", gotC.Rows, gotC.Cols)
	}
	for i := 0; i < 9; i++ {
		out := 0
		for j := 0; j < 7; j++ {
			if j == 2 || j == 6 {
				continue
			}
			if gotC.At(i, out) != a.At(i, j) {
				t.Fatalf("surviving col %d (was %d) row %d differs", out, j, i)
			}
			out++
		}
	}

	for name, idx := range map[string][]int{
		"empty":        {},
		"out-of-range": {9},
		"duplicate":    {1, 1},
		"remove-all":   {0, 1, 2, 3, 4, 5, 6, 7, 8},
	} {
		if _, err := a.RemoveRows(idx); err == nil {
			t.Errorf("RemoveRows accepted %s index set", name)
		}
	}
	if _, err := a.RemoveCols([]int{7}); err == nil {
		t.Error("RemoveCols accepted out-of-range index")
	}
}
