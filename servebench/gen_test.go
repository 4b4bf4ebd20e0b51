package main

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sparse"
)

// TestWindowTenant pins the window generator: one seed gives the same
// bytes, every update keeps the window size, every tombstone names a
// live cell, and no update both patches and tombstones a cell.
func TestWindowTenant(t *testing.T) {
	gen := func() *tenantInput {
		tn, err := windowTenant("w", 64, 1200, 4, 6, 20, 4, 0.95, 0.5, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		return tn
	}
	a, b := gen(), gen()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different inputs")
	}
	base, err := dataset.ReadIntervalCOO(strings.NewReader(a.baseCOO))
	if err != nil {
		t.Fatal(err)
	}
	live := map[sparse.Cell]bool{}
	base.ForEachRow(func(i int, cols []int, _, _ []float64) {
		for _, j := range cols {
			live[sparse.Cell{Row: i, Col: j}] = true
		}
	})
	size := len(live)
	for k, u := range a.updates {
		_, _, batch, err := dataset.ParseDeltaCOO(strings.NewReader(u.delta))
		if err != nil {
			t.Fatalf("update %d: %v", k, err)
		}
		if want := (k+1)%4 == 0; (u.forget != 0) != want {
			t.Errorf("update %d: forget %g", k, u.forget)
		}
		gone := map[sparse.Cell]bool{}
		for _, c := range batch.Tombstones {
			if !live[c] {
				t.Fatalf("update %d tombstones %v, which is not live", k, c)
			}
			gone[c] = true
			delete(live, c)
		}
		for _, p := range batch.Patch {
			c := sparse.Cell{Row: p.Row, Col: p.Col}
			if gone[c] {
				t.Fatalf("update %d patches and tombstones %v", k, c)
			}
			live[c] = true
		}
		if len(live) != size {
			t.Fatalf("update %d: window holds %d cells, want %d", k, len(live), size)
		}
	}
}
