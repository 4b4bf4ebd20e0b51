package store

// Cold-start vs. recovery benchmarks: the store's reason to exist is
// that booting from a snapshot plus a short write-ahead log is much
// cheaper than redecomposing, so the pair to compare is
// BenchmarkColdStart (core.DecomposeSparse from the raw matrix —
// exactly what a server without persistence pays on boot) against
// BenchmarkRecover/deltas=N (Open + Recover over the real filesystem,
// mmap included, replaying an N-record log). BENCH_store.json holds the
// committed numbers; CI runs every benchmark at -benchtime 1x as a
// smoke test. Regenerate with:
//
//	go test -run NONE -bench 'ColdStart|Recover|SaveSnapshot|AppendDelta' -benchtime 3x ./internal/store/
//
// Matrices are 1024x1024 sparse non-negative interval matrices with
// ~40k stored cells at rank 20, matching BENCH_update.json's regime so
// replay cost per record can be read against the update benchmarks.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sparse"
)

const (
	benchN    = 1024
	benchNNZ  = 40_000
	benchRank = 20
)

// benchICSR builds a deterministic sparse non-negative interval matrix:
// cells spread row-major with a coprime column stride, magnitudes
// decaying by row so the spectrum is not flat.
func benchICSR(tb testing.TB, n, nnz int) *sparse.ICSR {
	tb.Helper()
	rng := rand.New(rand.NewSource(61))
	perRow := nnz / n
	ts := make([]sparse.ITriplet, 0, n*perRow)
	for i := 0; i < n; i++ {
		scale := 1.0 / (1.0 + 0.01*float64(i))
		for j := 0; j < perRow; j++ {
			col := (i*37 + j*101) % n
			lo := math.Abs(rng.NormFloat64()) * scale
			ts = append(ts, sparse.ITriplet{Row: i, Col: col, Lo: lo, Hi: lo * 1.2})
		}
	}
	m, err := sparse.FromICOO(n, n, ts)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

var benchOpts = core.Options{Rank: benchRank, Target: core.TargetB, Updatable: true}

// benchStore populates a store directory with the base snapshot and a
// deltas-record log, returning the final in-memory state for
// verification.
func benchStore(b *testing.B, dir string, m *sparse.ICSR, deltas int) *core.Decomposition {
	b.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	d, err := core.DecomposeSparse(m, core.ISVD4, benchOpts)
	if err != nil {
		b.Fatal(err)
	}
	ps, err := d.ExportState()
	if err != nil {
		b.Fatal(err)
	}
	if err := s.SaveSnapshot("bench", ps, SnapshotMeta{Seq: 1, JobID: 1}); err != nil {
		b.Fatal(err)
	}
	cur := m
	for i := 0; i < deltas; i++ {
		rec := &WALRecord{Seq: uint64(i) + 2, JobID: uint64(i) + 2,
			RefreshBudget: math.Inf(1), Delta: core.Delta{Patch: testPatch(cur, i+1)}}
		if _, err := s.AppendDelta("bench", rec); err != nil {
			b.Fatal(err)
		}
		if cur, err = cur.ApplyCells(rec.Delta.Patch, nil); err != nil {
			b.Fatal(err)
		}
		if d, err = d.Update(rec.Delta, core.Options{RefreshBudget: math.Inf(1)}); err != nil {
			b.Fatal(err)
		}
	}
	return d
}

// BenchmarkColdStart1024 is the no-store baseline: full redecomposition
// of the raw matrix, the boot cost the snapshot+log path avoids.
func BenchmarkColdStart1024(b *testing.B) {
	m := benchICSR(b, benchN, benchNNZ)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DecomposeSparse(m, core.ISVD4, benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecover1024 measures boot from disk: open the store, map
// the snapshot, validate, import, and replay the log.
func BenchmarkRecover1024(b *testing.B) {
	m := benchICSR(b, benchN, benchNNZ)
	for _, deltas := range []int{0, 1, 5, 25} {
		b.Run(fmt.Sprintf("deltas=%d", deltas), func(b *testing.B) {
			dir := b.TempDir()
			want := benchStore(b, dir, m, deltas)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := Open(dir, Options{})
				if err != nil {
					b.Fatal(err)
				}
				rec, err := s.Recover("bench")
				if err != nil {
					b.Fatal(err)
				}
				if rec.Seq != uint64(deltas)+1 {
					b.Fatalf("recovered seq %d", rec.Seq)
				}
				if i == 0 {
					// Verify before Close: with an empty log the recovered
					// planes alias the mapping Close tears down.
					b.StopTimer()
					bitwiseEqual(b, "recovered", rec.Decomp, want)
					b.StartTimer()
				}
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSaveSnapshot1024 is the compaction write: encode + fsync +
// rename + directory fsync of the full factor state.
func BenchmarkSaveSnapshot1024(b *testing.B) {
	m := benchICSR(b, benchN, benchNNZ)
	d, err := core.DecomposeSparse(m, core.ISVD4, benchOpts)
	if err != nil {
		b.Fatal(err)
	}
	ps, err := d.ExportState()
	if err != nil {
		b.Fatal(err)
	}
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SaveSnapshot("bench", ps, SnapshotMeta{Seq: uint64(i) + 1, JobID: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendDelta1024 is the per-job durability cost the executor
// pays before acknowledging: encode + append + fsync of one record.
func BenchmarkAppendDelta1024(b *testing.B) {
	m := benchICSR(b, benchN, benchNNZ)
	d, err := core.DecomposeSparse(m, core.ISVD4, benchOpts)
	if err != nil {
		b.Fatal(err)
	}
	ps, err := d.ExportState()
	if err != nil {
		b.Fatal(err)
	}
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.SaveSnapshot("bench", ps, SnapshotMeta{Seq: 1, JobID: 1}); err != nil {
		b.Fatal(err)
	}
	patch := testPatch(m, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := &WALRecord{Seq: uint64(i) + 2, JobID: uint64(i) + 2, Delta: core.Delta{Patch: patch}}
		if _, err := s.AppendDelta("bench", rec); err != nil {
			b.Fatal(err)
		}
	}
}
