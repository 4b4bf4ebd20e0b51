package dataset

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// deltaBase builds the 5×6 base matrix the delta tests read against,
// with stored cells at (0,4), (2,0), (2,1), (3,3).
func deltaBase(t *testing.T) *sparse.ICSR {
	t.Helper()
	m, err := sparse.FromICOO(5, 6, []sparse.ITriplet{
		{Row: 0, Col: 4, Lo: 1, Hi: 1},
		{Row: 2, Col: 0, Lo: 2, Hi: 3},
		{Row: 2, Col: 1, Lo: 0, Hi: 0}, // stored explicit zero
		{Row: 3, Col: 3, Lo: -1, Hi: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDeltaCOORoundTrip(t *testing.T) {
	ts := []sparse.ITriplet{
		{Row: 2, Col: 1, Lo: 1.5, Hi: 1.5},
		{Row: 0, Col: 4, Lo: -2, Hi: 3},
		{Row: 2, Col: 0, Lo: 0, Hi: 0},
	}
	var buf bytes.Buffer
	if err := WriteDeltaCOO(&buf, 5, 6, ts); err != nil {
		t.Fatal(err)
	}
	batch, err := ReadDeltaCOO(&buf, deltaBase(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Patch) != 3 || len(batch.Tombstones) != 0 {
		t.Fatalf("got %d patches and %d tombstones, want 3 and 0", len(batch.Patch), len(batch.Tombstones))
	}
	// Sorted by (row, col).
	want := []sparse.ITriplet{
		{Row: 0, Col: 4, Lo: -2, Hi: 3},
		{Row: 2, Col: 0, Lo: 0, Hi: 0},
		{Row: 2, Col: 1, Lo: 1.5, Hi: 1.5},
	}
	for k := range want {
		if batch.Patch[k] != want[k] {
			t.Fatalf("patch %d: got %+v want %+v", k, batch.Patch[k], want[k])
		}
	}
}

func TestDeltaBatchCOOTombstones(t *testing.T) {
	base := deltaBase(t)
	in := DeltaBatch{
		Patch:      []sparse.ITriplet{{Row: 1, Col: 2, Lo: 4, Hi: 5}},
		Tombstones: []sparse.Cell{{Row: 2, Col: 0}, {Row: 2, Col: 1}},
	}
	var buf bytes.Buffer
	if err := WriteDeltaBatchCOO(&buf, 5, 6, in); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "2,0,x") || !strings.Contains(text, "2,1,x") {
		t.Fatalf("tombstone records missing from %q", text)
	}
	batch, err := ReadDeltaCOO(strings.NewReader(text), base)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Patch) != 1 || len(batch.Tombstones) != 2 {
		t.Fatalf("got %d patches and %d tombstones, want 1 and 2", len(batch.Patch), len(batch.Tombstones))
	}
	if batch.Tombstones[0] != (sparse.Cell{Row: 2, Col: 0}) || batch.Tombstones[1] != (sparse.Cell{Row: 2, Col: 1}) {
		t.Fatalf("tombstones %+v", batch.Tombstones)
	}
	// A tombstone on a stored explicit zero is legal (the cell IS
	// stored); a tombstone on a never-inserted cell is not.
	if _, err := ReadDeltaCOO(strings.NewReader("5,6\n0,0,x\n"), base); err == nil {
		t.Fatal("accepted tombstone for never-inserted cell")
	}
	// A cell cannot be both patched and tombstoned in one batch.
	if _, err := ReadDeltaCOO(strings.NewReader("5,6\n2,0,1\n2,0,x\n"), base); err == nil {
		t.Fatal("accepted cell both patched and tombstoned")
	}
	var dup bytes.Buffer
	err = WriteDeltaBatchCOO(&dup, 5, 6, DeltaBatch{
		Patch:      []sparse.ITriplet{{Row: 2, Col: 0, Lo: 1, Hi: 1}},
		Tombstones: []sparse.Cell{{Row: 2, Col: 0}},
	})
	if err == nil {
		t.Fatal("WriteDeltaBatchCOO accepted a cell both patched and tombstoned")
	}
}

func TestDeltaCOOValidation(t *testing.T) {
	base := deltaBase(t)
	cases := []struct {
		name, in string
	}{
		{"header mismatch rows", "6,6\n0,0,1\n"},
		{"header mismatch cols", "5,7\n0,0,1\n"},
		{"out of range", "5,6\n5,0,1\n"},
		{"duplicate", "5,6\n1,1,1\n1,1,2\n"},
		{"misordered", "5,6\n0,0,3..1\n"},
		{"non-finite", "5,6\n0,0,Inf\n"},
		{"tombstone out of range", "5,6\n5,0,x\n"},
		{"duplicate tombstone", "5,6\n2,0,x\n2,0,x\n"},
		{"tombstone never inserted", "5,6\n4,4,x\n"},
	}
	for _, tc := range cases {
		if _, err := ReadDeltaCOO(strings.NewReader(tc.in), base); err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.in)
		}
	}
	// Empty batch is legal.
	batch, err := ReadDeltaCOO(strings.NewReader("5,6\n"), base)
	if err != nil || len(batch.Patch) != 0 || len(batch.Tombstones) != 0 {
		t.Errorf("empty batch: %v, %d patches, %d tombstones", err, len(batch.Patch), len(batch.Tombstones))
	}
	// Writer rejects out-of-range cells too.
	var buf bytes.Buffer
	if err := WriteDeltaCOO(&buf, 2, 2, []sparse.ITriplet{{Row: 2, Col: 0}}); err == nil {
		t.Error("WriteDeltaCOO accepted out-of-range cell")
	}
}

func TestWindowSplitReplayEqualsWindow(t *testing.T) {
	// Dense-ish 12×9 matrix so the split has cells to move.
	ts := make([]sparse.ITriplet, 0, 12*9)
	for i := 0; i < 12; i++ {
		for j := 0; j < 9; j++ {
			if (i+j)%2 == 0 {
				ts = append(ts, sparse.ITriplet{Row: i, Col: j, Lo: float64(i + 1), Hi: float64(i + j + 1)})
			}
		}
	}
	m, err := sparse.FromICOO(12, 9, ts)
	if err != nil {
		t.Fatal(err)
	}
	base, batches, err := WindowSplit(m, 0.4, 3, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := sparse.FromICOO(12, 9, base)
	if err != nil {
		t.Fatal(err)
	}
	live := len(base)
	for k, b := range batches {
		if len(b.Patch) != len(b.Tombstones) {
			t.Fatalf("batch %d: %d arrivals but %d expiries — window size must stay constant",
				k, len(b.Patch), len(b.Tombstones))
		}
		if cur, err = cur.ApplyCells(b.Patch, nil); err != nil {
			t.Fatalf("batch %d: %v", k, err)
		}
		if cur, err = cur.ApplyCells(nil, b.Tombstones); err != nil {
			t.Fatalf("batch %d: %v", k, err)
		}
		if cur.NNZ() != live {
			t.Fatalf("batch %d: window has %d cells, want %d", k, cur.NNZ(), live)
		}
	}
	// The replayed window is exactly base ∪ stream minus the expired
	// prefix: every surviving cell must match the source matrix.
	cur.ForEachRow(func(i int, cols []int, lo, hi []float64) {
		for p, j := range cols {
			want := m.At(i, j)
			if lo[p] != want.Lo || hi[p] != want.Hi {
				t.Fatalf("cell (%d, %d): [%g, %g] want [%g, %g]", i, j, lo[p], hi[p], want.Lo, want.Hi)
			}
		}
	})
	// Pin determinism: the same seed reproduces the same split.
	base2, batches2, err := WindowSplit(m, 0.4, 3, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if len(base2) != len(base) || len(batches2) != len(batches) {
		t.Fatal("WindowSplit is not deterministic for a fixed seed")
	}
	for k := range base {
		if base2[k] != base[k] {
			t.Fatal("WindowSplit base differs for a fixed seed")
		}
	}
	for k := range batches {
		for i := range batches[k].Tombstones {
			if batches2[k].Tombstones[i] != batches[k].Tombstones[i] {
				t.Fatal("WindowSplit tombstones differ for a fixed seed")
			}
		}
	}
}
