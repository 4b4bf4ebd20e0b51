package dataset

// Fuzz coverage for the two text parsers, which previously had no
// malformed-input tests. The seed corpora run as part of plain `go test`
// (and under -race in CI); `go test -fuzz=FuzzReadIntervalCSV` (or
// ...COO) explores further. Properties checked: the parsers never panic,
// and anything they accept survives a write/read round trip unchanged.

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sparse"
)

func FuzzReadIntervalCSV(f *testing.F) {
	seeds := []string{
		"1,2..3,0.5\n0.9..1.1,2,0.6\n",
		"1.5\n",
		"1e300..1e301\n",
		"-4..-2,0\n0,3\n",
		"", ",\n", "a,b\n", "1,2\n3\n", "..", "1..", "..2\n", "1..2..3\n",
		"5..1\n",          // misordered
		"NaN\n", "+Inf\n", // parse but fail downstream validation if any
		"\"1,2\",3\n",
		strings.Repeat("1,", 100) + "1\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		m, err := ReadIntervalCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		// Accepted input: well-formed matrix that round-trips.
		if !m.IsWellFormed() {
			t.Fatalf("accepted misordered matrix from %q", in)
		}
		var buf bytes.Buffer
		if err := WriteIntervalCSV(&buf, m); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ReadIntervalCSV(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back.Rows() != m.Rows() || back.Cols() != m.Cols() {
			t.Fatalf("round trip shape %dx%d, want %dx%d", back.Rows(), back.Cols(), m.Rows(), m.Cols())
		}
		for i := range m.Lo.Data {
			if back.Lo.Data[i] != m.Lo.Data[i] || back.Hi.Data[i] != m.Hi.Data[i] {
				t.Fatalf("round trip element %d differs", i)
			}
		}
	})
}

func FuzzReadDeltaCOO(f *testing.F) {
	seeds := []string{
		"4,3\n0,0,1\n3,2,2..3\n",  // in-range patches
		"4,3\n",                   // empty batch
		"4,3\n0,0,1\n0,0,2\n",     // duplicate patch
		"4,3\n4,0,1\n",            // row at base boundary (out of range)
		"4,3\n0,3,1\n",            // col at base boundary
		"5,3\n0,0,1\n",            // header taller than base
		"4,4\n0,0,1\n",            // header wider than base
		"4,3\n-1,0,1\n",           // negative index
		"4,3\n0,0,5..1\n",         // misordered interval
		"4,3\n0,0,NaN\n",          // non-finite value
		"99999999999,3\n0,0,1\n",  // hostile header
		"16777217,3\n",            // above the dim cap
		"x,3\n", "4\n", "4,3,9\n", // malformed headers
		"4,3\n0,0\n", "4,3\na,0,1\n",
		// Tombstone framings against the fixed base below.
		"4,3\n0,0,x\n",                      // tombstone for a stored cell
		"4,3\n2,1,x\n",                      // tombstone for a stored explicit zero
		"4,3\n1,2,x\n",                      // tombstone for a never-inserted cell
		"4,3\n0,0,1\n0,0,x\n",               // cell both patched and tombstoned
		"4,3\n0,0,x\n0,0,x\n",               // duplicate tombstone
		"4,3\n4,0,x\n",                      // tombstone out of range
		"4,3\n0,0,X\n",                      // wrong-case token is not a tombstone
		"4,3\n0,0,xx\n",                     // near-miss token
		"4,3\n0,0,x\n3,2,1.5\n",             // mixed tombstone and patch
		"4,3\n3,2,x\n1,1,2\n0,0,x\n0,2,1\n", // records out of (row, col) order
	}
	for _, s := range seeds {
		f.Add(s)
	}
	const baseRows, baseCols = 4, 3
	base, err := sparse.FromICOO(baseRows, baseCols, []sparse.ITriplet{
		{Row: 0, Col: 0, Lo: 1, Hi: 2},
		{Row: 2, Col: 1, Lo: 0, Hi: 0}, // stored explicit zero
		{Row: 3, Col: 2, Lo: -1, Hi: 1},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, in string) {
		batch, err := ReadDeltaCOO(strings.NewReader(in), base)
		if err != nil {
			return
		}
		// Accepted batch: every patch targets a base cell, no duplicate
		// operations (a cell appears at most once, as a patch or a
		// tombstone), ordered finite intervals, tombstones only for stored
		// cells, patches and tombstones each sorted by (row, col), and a
		// write/read round trip preserves the operation set.
		type key struct{ row, col int }
		before := func(a, b key) bool { return a.row < b.row || a.row == b.row && a.col < b.col }
		for k := 1; k < len(batch.Patch); k++ {
			if !before(key{batch.Patch[k-1].Row, batch.Patch[k-1].Col}, key{batch.Patch[k].Row, batch.Patch[k].Col}) {
				t.Fatalf("patches not sorted by (row, col) from %q", in)
			}
		}
		for k := 1; k < len(batch.Tombstones); k++ {
			if !before(key{batch.Tombstones[k-1].Row, batch.Tombstones[k-1].Col}, key{batch.Tombstones[k].Row, batch.Tombstones[k].Col}) {
				t.Fatalf("tombstones not sorted by (row, col) from %q", in)
			}
		}
		seen := make(map[key]bool, len(batch.Patch)+len(batch.Tombstones))
		for _, p := range batch.Patch {
			if p.Row < 0 || p.Row >= baseRows || p.Col < 0 || p.Col >= baseCols {
				t.Fatalf("accepted out-of-range patch (%d, %d) from %q", p.Row, p.Col, in)
			}
			if p.Lo > p.Hi {
				t.Fatalf("accepted misordered patch from %q", in)
			}
			if seen[key{p.Row, p.Col}] {
				t.Fatalf("accepted duplicate cell (%d, %d) from %q", p.Row, p.Col, in)
			}
			seen[key{p.Row, p.Col}] = true
		}
		for _, c := range batch.Tombstones {
			if c.Row < 0 || c.Row >= baseRows || c.Col < 0 || c.Col >= baseCols {
				t.Fatalf("accepted out-of-range tombstone (%d, %d) from %q", c.Row, c.Col, in)
			}
			if seen[key{c.Row, c.Col}] {
				t.Fatalf("accepted duplicate cell (%d, %d) from %q", c.Row, c.Col, in)
			}
			seen[key{c.Row, c.Col}] = true
			// At can't distinguish a stored zero from an unobserved
			// cell, so check storedness against the row's column list.
			cols, _, _ := base.RowView(c.Row)
			stored := false
			for _, j := range cols {
				if j == c.Col {
					stored = true
				}
			}
			if !stored {
				t.Fatalf("accepted tombstone for never-inserted cell (%d, %d) from %q", c.Row, c.Col, in)
			}
		}
		var buf bytes.Buffer
		if err := WriteDeltaBatchCOO(&buf, baseRows, baseCols, batch); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ReadDeltaCOO(&buf, base)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if len(back.Patch) != len(batch.Patch) || len(back.Tombstones) != len(batch.Tombstones) {
			t.Fatalf("round trip counts %d/%d, want %d/%d",
				len(back.Patch), len(back.Tombstones), len(batch.Patch), len(batch.Tombstones))
		}
		for k := range batch.Patch {
			if back.Patch[k] != batch.Patch[k] {
				t.Fatalf("round trip patch %d differs", k)
			}
		}
		for k := range batch.Tombstones {
			if back.Tombstones[k] != batch.Tombstones[k] {
				t.Fatalf("round trip tombstone %d differs", k)
			}
		}
	})
}

func FuzzReadIntervalCOO(f *testing.F) {
	seeds := []string{
		"2,2\n0,0,1\n1,1,2..3\n",
		"1,1\n",
		"3,4\n2,3,-1..5\n0,0,0.5\n",
		"2,2\n0,0,1\n0,0,2\n", // duplicate
		"2,2\n2,0,1\n",        // out of range
		"0,2\n", "x,2\n", "2\n", "2,2\n0,0\n", "2,2\na,0,1\n",
		"99999999999,2\n",
		"2,2\n0,0,5..1\n",
		"2,2\n-1,0,1\n",
		"16777217,1\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		m, err := ReadIntervalCOO(strings.NewReader(in))
		if err != nil {
			return
		}
		if !m.IsWellFormed() {
			t.Fatalf("accepted misordered matrix from %q", in)
		}
		var buf bytes.Buffer
		if err := WriteIntervalCOO(&buf, m); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ReadIntervalCOO(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back.Rows != m.Rows || back.Cols != m.Cols || back.NNZ() != m.NNZ() {
			t.Fatalf("round trip shape/NNZ mismatch")
		}
		for p := range m.ColInd {
			if back.ColInd[p] != m.ColInd[p] || back.Lo[p] != m.Lo[p] || back.Hi[p] != m.Hi[p] {
				t.Fatalf("round trip entry %d differs", p)
			}
		}
	})
}
