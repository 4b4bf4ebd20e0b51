package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
)

func TestRunKinds(t *testing.T) {
	// We only verify the generators succeed and emit something parseable.
	cases := []struct {
		kind    string
		privacy string
	}{
		{"uniform", "medium"},
		{"anonymized", "high"},
		{"anonymized", "medium"},
		{"anonymized", "low"},
		{"faces", "medium"},
		{"ratings", "medium"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := run(&buf, c.kind, 8, 6, 0, 1, 1, c.privacy, 0.02, 0, "csv", 0, false, "", 1); err != nil {
			t.Errorf("%s/%s: %v", c.kind, c.privacy, err)
			continue
		}
		if _, err := dataset.ReadIntervalCSV(&buf); err != nil {
			t.Errorf("%s/%s: unparseable output: %v", c.kind, c.privacy, err)
		}
	}
}

func TestRunCOOFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "ratings", 8, 6, 0, 1, 1, "medium", 0.02, 0.05, "coo", 0, false, "", 1); err != nil {
		t.Fatal(err)
	}
	m, err := dataset.ReadIntervalCOO(&buf)
	if err != nil {
		t.Fatalf("unparseable COO output: %v", err)
	}
	if m.NNZ() == 0 {
		t.Error("COO output has no observed cells")
	}
}

func TestRunDensityKnob(t *testing.T) {
	nnz := func(density float64) int {
		var buf bytes.Buffer
		if err := run(&buf, "uniform", 20, 20, 0, 1, 1, "medium", 0.1, density, "coo", 0, false, "", 1); err != nil {
			t.Fatal(err)
		}
		m, err := dataset.ReadIntervalCOO(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return m.NNZ()
	}
	sparse, dense := nnz(0.05), nnz(0.9)
	if sparse >= dense {
		t.Errorf("density knob has no effect: nnz(0.05) = %d >= nnz(0.9) = %d", sparse, dense)
	}
	if sparse > 20*20/4 {
		t.Errorf("5%% density produced %d of %d cells", sparse, 20*20)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run(io.Discard, "nope", 8, 6, 0, 1, 1, "medium", 0.1, 0, "csv", 0, false, "", 1); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := run(io.Discard, "anonymized", 8, 6, 0, 1, 1, "nope", 0.1, 0, "csv", 0, false, "", 1); err == nil {
		t.Error("unknown privacy accepted")
	}
	if err := run(io.Discard, "uniform", -1, 6, 0, 1, 1, "medium", 0.1, 0, "csv", 0, false, "", 1); err == nil {
		t.Error("bad shape accepted")
	}
	if err := run(io.Discard, "uniform", 8, 6, 0, 1, 1, "medium", 0.1, 0, "nope", 0, false, "", 1); err == nil {
		t.Error("unknown format accepted")
	}
	for _, kind := range []string{"uniform", "ratings"} {
		if err := run(io.Discard, kind, 8, 6, 0, 1, 1, "medium", 0.1, 1.5, "csv", 0, false, "", 1); err == nil {
			t.Errorf("%s: density > 1 accepted", kind)
		}
		if err := run(io.Discard, kind, 8, 6, 0, 1, 1, "medium", 0.1, -0.1, "csv", 0, false, "", 1); err == nil {
			t.Errorf("%s: negative density accepted", kind)
		}
	}
	// The ratings generator caps observed cells at half the matrix, so
	// densities in (0.5, 1] are rejected rather than silently clamped.
	if err := run(io.Discard, "ratings", 8, 6, 0, 1, 1, "medium", 0.1, 0.8, "csv", 0, false, "", 1); err == nil {
		t.Error("ratings density > 0.5 accepted")
	}
	// Kinds without a density notion reject the flag instead of
	// silently ignoring it.
	for _, kind := range []string{"anonymized", "faces"} {
		if err := run(io.Discard, kind, 8, 6, 0, 1, 1, "medium", 0.1, 0.05, "csv", 0, false, "", 1); err == nil {
			t.Errorf("%s: unsupported -density accepted", kind)
		}
	}
	var buf bytes.Buffer
	if err := run(&buf, "ratings", 8, 6, 0, 1, 1, "medium", 0.02, 0, "csv", 0, false, "", 1); err != nil {
		t.Errorf("baseline ratings run failed: %v", err)
	}
	if !strings.Contains(buf.String(), ",") {
		t.Error("ratings CSV output looks empty")
	}
}

func TestBatchesStableSplit(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "stream")
	var buf bytes.Buffer
	if err := run(&buf, "ratings", 8, 6, 0, 1, 1, "medium", 0.02, 0.05, "coo", 3, false, prefix, 7); err != nil {
		t.Fatal(err)
	}
	// Four files listed: base plus three deltas.
	files := strings.Fields(buf.String())
	if len(files) != 4 {
		t.Fatalf("wrote %d files, want 4: %v", len(files), files)
	}
	baseF, err := os.Open(prefix + ".base.coo.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer baseF.Close()
	base, err := dataset.ReadIntervalCOO(baseF)
	if err != nil {
		t.Fatal(err)
	}
	// Replaying every delta onto the base reproduces the full matrix.
	cur := base
	total := 0
	for k := 1; k <= 3; k++ {
		df, err := os.Open(fmt.Sprintf("%s.delta.%d.coo.csv", prefix, k))
		if err != nil {
			t.Fatal(err)
		}
		batch, err := dataset.ReadDeltaCOO(df, cur)
		df.Close()
		if err != nil {
			t.Fatal(err)
		}
		total += len(batch.Patch)
		cur, err = cur.ApplyCells(batch.Patch, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	if total == 0 {
		t.Fatal("deltas carried no cells")
	}
	var full bytes.Buffer
	if err := run(&full, "ratings", 8, 6, 0, 1, 1, "medium", 0.02, 0.05, "coo", 0, false, "", 7); err != nil {
		t.Fatal(err)
	}
	want, err := dataset.ReadIntervalCOO(strings.NewReader(full.String()))
	if err != nil {
		t.Fatal(err)
	}
	if cur.NNZ() != want.NNZ() || cur.Rows != want.Rows || cur.Cols != want.Cols {
		t.Fatalf("replayed matrix %dx%d nnz %d, want %dx%d nnz %d",
			cur.Rows, cur.Cols, cur.NNZ(), want.Rows, want.Cols, want.NNZ())
	}
	for p := range want.ColInd {
		if cur.ColInd[p] != want.ColInd[p] || cur.Lo[p] != want.Lo[p] || cur.Hi[p] != want.Hi[p] {
			t.Fatalf("replayed matrix differs at entry %d", p)
		}
	}
	// Stable split: the same flags reproduce byte-identical files.
	prefix2 := filepath.Join(dir, "again")
	if err := run(io.Discard, "ratings", 8, 6, 0, 1, 1, "medium", 0.02, 0.05, "coo", 3, false, prefix2, 7); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{".base.coo.csv", ".delta.1.coo.csv", ".delta.2.coo.csv", ".delta.3.coo.csv"} {
		a, err := os.ReadFile(prefix + suffix)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(prefix2 + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("split not stable: %s differs", suffix)
		}
	}
}

// TestWindowBatches pins the sliding-window split: replaying each delta
// (patch arrivals, then tombstone expiries) onto the base keeps the
// live-cell count constant, every tombstone lands on a stored cell, and
// identical flags reproduce byte-identical files.
func TestWindowBatches(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "window")
	var buf bytes.Buffer
	if err := run(&buf, "ratings", 8, 6, 0, 1, 1, "medium", 0.02, 0.05, "coo", 3, true, prefix, 7); err != nil {
		t.Fatal(err)
	}
	files := strings.Fields(buf.String())
	if len(files) != 4 {
		t.Fatalf("wrote %d files, want 4: %v", len(files), files)
	}
	baseF, err := os.Open(prefix + ".base.coo.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer baseF.Close()
	cur, err := dataset.ReadIntervalCOO(baseF)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := 0
	for k := 1; k <= 3; k++ {
		df, err := os.Open(fmt.Sprintf("%s.delta.%d.coo.csv", prefix, k))
		if err != nil {
			t.Fatal(err)
		}
		batch, err := dataset.ReadDeltaCOO(df, cur)
		df.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(batch.Patch) == 0 || len(batch.Tombstones) != len(batch.Patch) {
			t.Fatalf("batch %d: %d arrivals, %d tombstones; want equal and nonzero",
				k, len(batch.Patch), len(batch.Tombstones))
		}
		arrivals += len(batch.Patch)
		before := cur.NNZ()
		cur, err = cur.ApplyCells(batch.Patch, nil)
		if err != nil {
			t.Fatal(err)
		}
		// ReadDeltaCOO already proved each tombstone targets a stored
		// cell; ApplyCells enforces it again during the replay.
		cur, err = cur.ApplyCells(nil, batch.Tombstones)
		if err != nil {
			t.Fatal(err)
		}
		if cur.NNZ() != before {
			t.Fatalf("batch %d: window drifted from %d to %d live cells", k, before, cur.NNZ())
		}
	}
	if arrivals == 0 {
		t.Fatal("window deltas carried no cells")
	}
	// Stable split: the same flags reproduce byte-identical files.
	prefix2 := filepath.Join(dir, "again")
	if err := run(io.Discard, "ratings", 8, 6, 0, 1, 1, "medium", 0.02, 0.05, "coo", 3, true, prefix2, 7); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{".base.coo.csv", ".delta.1.coo.csv", ".delta.2.coo.csv", ".delta.3.coo.csv"} {
		a, err := os.ReadFile(prefix + suffix)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(prefix2 + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("window split not stable: %s differs", suffix)
		}
	}
	// Window deltas carry tombstone records that plain stream deltas
	// never do.
	d1, err := os.ReadFile(prefix + ".delta.1.coo.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(d1), ",x\n") {
		t.Errorf("first window delta carries no tombstone records:\n%s", d1)
	}
}

func TestBatchesFlagValidation(t *testing.T) {
	if err := run(io.Discard, "ratings", 8, 6, 0, 1, 1, "medium", 0.02, 0, "coo", 0, true, "", 1); err == nil {
		t.Error("-window without -batches accepted")
	}
	if err := run(io.Discard, "ratings", 8, 6, 0, 1, 1, "medium", 0.02, 0, "csv", 2, false, "x", 1); err == nil {
		t.Error("-batches with csv format accepted")
	}
	if err := run(io.Discard, "ratings", 8, 6, 0, 1, 1, "medium", 0.02, 0, "coo", 2, false, "", 1); err == nil {
		t.Error("-batches without -out accepted")
	}
	if err := run(io.Discard, "ratings", 8, 6, 0, 1, 1, "medium", 0.02, 0, "coo", -1, false, "", 1); err == nil {
		t.Error("negative -batches accepted")
	}
}
