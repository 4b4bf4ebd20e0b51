package store

// Fuzz coverage for the two on-disk decoders, which parse bytes that a
// crash, a disk, or an attacker with filesystem access may have
// mangled. Properties checked: neither decoder ever panics, allocations
// stay bounded by the input length (hostile headers cannot demand
// gigabytes), errors carry an offset or field position, and anything a
// decoder accepts survives the deep validation the serving path runs
// next (core.ImportState, ICSR.CheckStructure).

import (
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sparse"
)

func fuzzState(f *testing.F) *core.PersistentState {
	f.Helper()
	sp := lowRankICSR(9, 7, 2, rand.New(rand.NewSource(3)))
	d, err := core.DecomposeSparse(sp, core.ISVD4, core.Options{Rank: 3, Target: core.TargetB, Updatable: true})
	if err != nil {
		f.Fatal(err)
	}
	ps, err := d.ExportState()
	if err != nil {
		f.Fatal(err)
	}
	return ps
}

func FuzzSnapshotDecode(f *testing.F) {
	ps := fuzzState(f)
	valid, err := EncodeSnapshot(ps, SnapshotMeta{Seq: 2, JobID: 7})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(valid[:40])
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	// Valid magic and framing with a hostile header.
	hostile := append([]byte(nil), valid...)
	hostile[30] ^= 0xff
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		// Accepted bytes must also survive the serving path's deep
		// validation without panicking; both outcomes are fine.
		if _, err := core.ImportState(payload.State); err == nil {
			if _, err := EncodeSnapshot(payload.State, payload.Meta); err != nil {
				t.Fatalf("accepted state failed to re-encode: %v", err)
			}
		}
	})
}

func FuzzWALDecode(f *testing.F) {
	ps := fuzzState(f)
	for _, delta := range []core.Delta{
		{Patch: []sparse.ITriplet{{Row: 0, Col: 1, Lo: 1, Hi: 2}}},
		{AppendRows: lowRankICSR(2, 7, 1, rand.New(rand.NewSource(4)))},
		{AppendCols: lowRankICSR(11, 2, 1, rand.New(rand.NewSource(5)))},
		{Unpatch: []sparse.Cell{{Row: 0, Col: 1}, {Row: 3, Col: 2}}},
		{RemoveRows: []int{1, 4}, RemoveCols: []int{0}},
		{Forget: 0.9},
	} {
		payload, err := EncodeWALRecord(&WALRecord{Seq: 2, JobID: 9, Delta: delta})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
	}
	// A record whose reserved slot carries the retired policy code 1.
	legacy, err := hex.DecodeString(legacyPolicyRecords[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Add([]byte{})
	f.Add(make([]byte, 29))
	_ = ps

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeWALRecord(data)
		if err != nil {
			return
		}
		// Any accepted embedded matrix must hold the CSR invariants the
		// update engine assumes without checking.
		for _, a := range []*sparse.ICSR{rec.Delta.AppendRows, rec.Delta.AppendCols} {
			if a == nil {
				continue
			}
			if err := a.CheckStructure(); err != nil {
				t.Fatalf("accepted malformed ICSR: %v", err)
			}
		}
		d := &rec.Delta
		if d.AppendRows == nil && d.AppendCols == nil && len(d.Patch) == 0 &&
			len(d.Unpatch) == 0 && len(d.RemoveRows) == 0 && len(d.RemoveCols) == 0 && d.Forget == 0 {
			t.Fatal("accepted record with empty delta")
		}
		if d.Forget != 0 && !(d.Forget > 0 && d.Forget <= 1) {
			t.Fatalf("accepted forgetting factor %v", d.Forget)
		}
		if math.IsNaN(rec.RefreshBudget) {
			t.Fatal("accepted NaN refresh budget")
		}
	})
}
