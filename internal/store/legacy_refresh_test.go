package store

import (
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/imatrix"
	"repro/internal/sparse"
)

// legacyPolicyRecords are two IVMFWAL3 record payloads written when the
// u32 slot after the job ID still held a refresh policy code. The first
// carries code 1 (never) with a budget of 1e-12, the second code 2
// (always) with a budget of 5: both budgets were ignored under those
// policies, and would flip each update's refresh decision if read.
var legacyPolicyRecords = []string{
	"020000000000000064000000000000000100000011ea2d819997713d00000000000000000000000000000000000004030000000000000001000000000000000200000000000000000000000000044000000000" +
		"00000a4007000000000000000000000000000000000000000000e03f00000000000010400b000000000000000900000000000000000000000000fc3f0000000000000040",
	"030000000000000065000000000000000200000000000000000014400000000000000000cdccccccccccec3f000004020000000000000003000000000000000400000000000000000000000000084000000000" +
		"00000c400c000000000000000a00000000000000000000000000d03f000000000000f03f",
}

// TestLegacyRefreshPolicyRecords pins decode compatibility of the
// retired refresh-policy codes: code 1 reads as an infinite budget,
// code 2 as a negative-infinite one, and recovering a log of both
// replays bitwise equal to the chain run directly under those budgets.
func TestLegacyRefreshPolicyRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := imatrix.New(14, 11)
	for i := range m.Lo.Data {
		v := math.Abs(rng.NormFloat64())
		m.Lo.Data[i] = v
		m.Hi.Data[i] = v + 0.1
	}
	base, err := core.DecomposeSparse(sparse.FromIMatrix(m), core.ISVD1,
		core.Options{Rank: 5, Target: core.TargetB, Updatable: true})
	if err != nil {
		t.Fatal(err)
	}

	wantBudget := []float64{math.Inf(1), math.Inf(-1)}
	log := walHeader(1)
	want := base
	for i, h := range legacyPolicyRecords {
		payload, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := DecodeWALRecord(payload)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.RefreshBudget != wantBudget[i] {
			t.Fatalf("record %d: refresh budget %v, want %v", i, rec.RefreshBudget, wantBudget[i])
		}
		if want, err = want.Update(rec.Delta, core.Options{RefreshBudget: wantBudget[i]}); err != nil {
			t.Fatal(err)
		}
		log = append(log, frameWALRecord(payload)...)
	}
	if h := want.Health(); h.Refreshes != 1 {
		t.Fatalf("budget chain refreshed %d times, want once (the second record)", h.Refreshes)
	}

	fs := NewMemFS()
	s, _ := Open("data", Options{FS: fs})
	ps, err := base.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshot("legacy", ps, SnapshotMeta{Seq: 1, JobID: 1}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	f, err := fs.Create("data/legacy/" + walName(1))
	if err != nil {
		t.Fatal(err)
	}
	f.Write(log)
	f.Sync()
	f.Close()
	fs.SyncDir("data/legacy")

	s2, _ := Open("data", Options{FS: fs})
	defer s2.Close()
	got, err := s2.Recover("legacy")
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 3 || got.JobID != 101 || got.Replayed != 2 || got.Degraded {
		t.Fatalf("recovered meta = %+v", got)
	}
	bitwiseEqual(t, "legacy policy log", got.Decomp, want)
}

// TestSnapshotIgnoresLegacyRefreshSlot pins that the snapshot header's
// reserved u32 — a refresh-policy code in files from before the refresh
// budget was the only refresh setting — is ignored on read and written 0.
func TestSnapshotIgnoresLegacyRefreshSlot(t *testing.T) {
	d, _ := testDecomp(t, core.ISVD2)
	ps, err := d.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	img, err := EncodeSnapshot(ps, SnapshotMeta{Seq: 4, JobID: 9})
	if err != nil {
		t.Fatal(err)
	}
	// The slot follows method, rank, target, assign, two f64
	// thresholds, workers and solver in the header at offset 12.
	const slot = 12 + 4*4 + 2*8 + 2*4
	if binary.LittleEndian.Uint32(img[slot:]) != 0 {
		t.Fatal("reserved snapshot slot not written 0")
	}
	legacy := append([]byte(nil), img...)
	binary.LittleEndian.PutUint32(legacy[slot:], 1)
	hlen := int(binary.LittleEndian.Uint32(legacy[8:12]))
	binary.LittleEndian.PutUint32(legacy[12+hlen:], crc32.Checksum(legacy[12:12+hlen], castagnoli))
	payload, err := DecodeSnapshot(legacy)
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeSnapshot(payload.State, payload.Meta)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(img) {
		t.Fatal("snapshot with a legacy refresh code does not re-encode to the original image")
	}
}
