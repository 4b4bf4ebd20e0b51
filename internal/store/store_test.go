package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/imatrix"
	"repro/internal/matrix"
	"repro/internal/recommend"
	"repro/internal/sparse"
)

// lowRankICSR builds an exactly rank-rho non-negative interval matrix
// (Hi = 1.2·Lo), the regime where every method ISVD0-4 is updatable.
func lowRankICSR(n, m, rho int, rng *rand.Rand) *sparse.ICSR {
	x := matrix.New(n, rho)
	y := matrix.New(rho, m)
	for i := range x.Data {
		x.Data[i] = math.Abs(rng.NormFloat64())
	}
	for i := range y.Data {
		y.Data[i] = math.Abs(rng.NormFloat64()) / float64(rho)
	}
	lo := matrix.Mul(x, y)
	return sparse.FromIMatrix(imatrix.FromEndpoints(lo, lo.Scale(1.2)))
}

// testPatch builds a deterministic non-negative cell patch against m.
func testPatch(m *sparse.ICSR, seed int) []sparse.ITriplet {
	rng := rand.New(rand.NewSource(int64(seed)))
	var patch []sparse.ITriplet
	for i := 0; i < 3; i++ {
		row := (i*7 + seed) % m.Rows
		col := (i*5 + seed) % m.Cols
		old := m.At(row, col)
		d := math.Abs(rng.NormFloat64())
		patch = append(patch, sparse.ITriplet{Row: row, Col: col, Lo: old.Lo + d, Hi: old.Hi + 1.5*d})
	}
	return patch
}

func testDecomp(t testing.TB, method core.Method) (*core.Decomposition, *sparse.ICSR) {
	t.Helper()
	sp := lowRankICSR(14, 11, 3, rand.New(rand.NewSource(7)))
	d, err := core.DecomposeSparse(sp, method, core.Options{Rank: 5, Target: core.TargetB, Updatable: true})
	if err != nil {
		t.Fatal(err)
	}
	return d, sp
}

// bitwiseEqual asserts two decompositions persist identical bytes: the
// snapshot encoding covers every factor plane, the engine state, and
// the authoritative matrix, so byte equality is bitwise state equality.
func bitwiseEqual(t testing.TB, label string, got, want *core.Decomposition) {
	t.Helper()
	gp, err := got.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	wp, err := want.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	gb, err := EncodeSnapshot(gp, SnapshotMeta{Seq: 1, JobID: 1})
	if err != nil {
		t.Fatal(err)
	}
	wb, err := EncodeSnapshot(wp, SnapshotMeta{Seq: 1, JobID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(gb) != len(wb) {
		t.Fatalf("%s: snapshot sizes differ: %d vs %d", label, len(gb), len(wb))
	}
	for i := range gb {
		if gb[i] != wb[i] {
			t.Fatalf("%s: snapshots differ at byte %d", label, i)
		}
	}
}

func TestSnapshotRoundTripAllMethods(t *testing.T) {
	for _, method := range core.Methods() {
		t.Run(method.String(), func(t *testing.T) {
			d, _ := testDecomp(t, method)
			ps, err := d.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			data, err := EncodeSnapshot(ps, SnapshotMeta{Seq: 3, JobID: 17})
			if err != nil {
				t.Fatal(err)
			}
			payload, err := DecodeSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}
			if payload.Meta.Seq != 3 || payload.Meta.JobID != 17 {
				t.Fatalf("meta = %+v", payload.Meta)
			}
			d2, err := core.ImportState(payload.State)
			if err != nil {
				t.Fatal(err)
			}
			bitwiseEqual(t, "roundtrip", d2, d)

			// A further update applies identically to both copies.
			delta := core.Delta{Patch: testPatch(payload.State.M, 2)}
			u1, err := d.Update(delta, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			u2, err := d2.Update(delta, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			bitwiseEqual(t, "post-update", u2, u1)
		})
	}
}

func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	d, _ := testDecomp(t, core.ISVD4)
	ps, err := d.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeSnapshot(ps, SnapshotMeta{Seq: 1, JobID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(data[:len(data)-1]); err == nil {
		t.Error("truncated snapshot decoded")
	}
	if _, err := DecodeSnapshot(nil); err == nil {
		t.Error("empty snapshot decoded")
	}
	for _, off := range []int{9, 20, len(data) / 2, len(data) - 2} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		if _, err := DecodeSnapshot(bad); err == nil {
			t.Errorf("bit flip at %d not detected", off)
		}
	}
}

func TestWALRecordRoundTrip(t *testing.T) {
	rows := lowRankICSR(2, 11, 1, rand.New(rand.NewSource(9)))
	cols := lowRankICSR(16, 3, 1, rand.New(rand.NewSource(10)))
	cases := []core.Delta{
		{Patch: []sparse.ITriplet{{Row: 1, Col: 2, Lo: 0.5, Hi: 1.5}}},
		{AppendRows: rows},
		{AppendCols: cols},
		{AppendRows: rows, AppendCols: cols, Patch: testPatch(rows, 1)},
		{Unpatch: []sparse.Cell{{Row: 0, Col: 3}, {Row: 2, Col: 1}}},
		{RemoveRows: []int{2, 5}},
		{RemoveCols: []int{0, 1}},
		{Forget: 0.875},
		{Forget: 0.5, AppendRows: rows, Patch: testPatch(rows, 2),
			Unpatch: []sparse.Cell{{Row: 1, Col: 1}}, RemoveRows: []int{7}, RemoveCols: []int{2}},
	}
	for i, delta := range cases {
		rec := &WALRecord{Seq: uint64(i) + 2, JobID: 99,
			RefreshBudget: 0.25, OrthoBudget: 1e-7, Delta: delta}
		payload, err := EncodeWALRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeWALRecord(payload)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Seq != rec.Seq || got.JobID != 99 ||
			got.RefreshBudget != 0.25 || got.OrthoBudget != 1e-7 {
			t.Fatalf("case %d: meta %+v", i, got)
		}
		if (got.Delta.AppendRows == nil) != (delta.AppendRows == nil) ||
			(got.Delta.AppendCols == nil) != (delta.AppendCols == nil) ||
			len(got.Delta.Patch) != len(delta.Patch) ||
			got.Delta.Forget != delta.Forget {
			t.Fatalf("case %d: delta shape mismatch", i)
		}
		for k, c := range delta.Unpatch {
			if got.Delta.Unpatch[k] != c {
				t.Fatalf("case %d: unpatch %d: %+v want %+v", i, k, got.Delta.Unpatch[k], c)
			}
		}
		for k, idx := range delta.RemoveRows {
			if got.Delta.RemoveRows[k] != idx {
				t.Fatalf("case %d: removeRows mismatch", i)
			}
		}
		for k, idx := range delta.RemoveCols {
			if got.Delta.RemoveCols[k] != idx {
				t.Fatalf("case %d: removeCols mismatch", i)
			}
		}
		if _, err := DecodeWALRecord(payload[:len(payload)-1]); err == nil {
			t.Errorf("case %d: truncated record decoded", i)
		}
	}
	if _, err := EncodeWALRecord(&WALRecord{Seq: 1}); err == nil {
		t.Error("empty delta encoded")
	}
	if _, err := EncodeWALRecord(&WALRecord{Seq: 1, Delta: core.Delta{Forget: 1.5}}); err == nil {
		t.Error("out-of-range forgetting factor encoded")
	}
	if _, err := EncodeWALRecord(&WALRecord{Seq: 1, OrthoBudget: -1,
		Delta: core.Delta{Patch: testPatch(rows, 1)}}); err == nil {
		t.Error("negative ortho budget encoded")
	}
	if _, err := EncodeWALRecord(&WALRecord{Seq: 1, RefreshBudget: math.NaN(),
		Delta: core.Delta{Patch: testPatch(rows, 1)}}); err == nil {
		t.Error("NaN refresh budget encoded")
	}
	for _, budget := range []float64{math.Inf(1), math.Inf(-1)} {
		payload, err := EncodeWALRecord(&WALRecord{Seq: 1, RefreshBudget: budget,
			Delta: core.Delta{Patch: testPatch(rows, 1)}})
		if err != nil {
			t.Fatalf("refresh budget %v: %v", budget, err)
		}
		if got, err := DecodeWALRecord(payload); err != nil || got.RefreshBudget != budget {
			t.Fatalf("refresh budget %v decoded as %+v, %v", budget, got, err)
		}
		// The budget follows seq, jobID and the reserved u32 slot.
		nan := append([]byte(nil), payload...)
		binary.LittleEndian.PutUint64(nan[20:], math.Float64bits(math.NaN()))
		if _, err := DecodeWALRecord(nan); err == nil {
			t.Error("NaN refresh budget decoded")
		}
		code3 := append([]byte(nil), payload...)
		binary.LittleEndian.PutUint32(code3[16:], 3)
		if _, err := DecodeWALRecord(code3); err == nil {
			t.Error("reserved slot code 3 decoded")
		}
	}
}

// chain precomputes an update chain: states[0] is the base
// decomposition (seq 1), states[i] the state after applying deltas[:i].
type chain struct {
	sp     *sparse.ICSR
	states []*core.Decomposition
	recs   []*WALRecord
}

func makeChain(t testing.TB, method core.Method, deltas int) *chain {
	t.Helper()
	d, sp := testDecomp(t, method)
	c := &chain{sp: sp, states: []*core.Decomposition{d}}
	cur := sp
	for i := 0; i < deltas; i++ {
		rec := &WALRecord{
			Seq:   uint64(i) + 2,
			JobID: uint64(100 + i),
			Delta: core.Delta{Patch: testPatch(cur, i+1)},
		}
		var err error
		cur, err = cur.ApplyCells(rec.Delta.Patch, nil)
		if err != nil {
			t.Fatal(err)
		}
		next, err := d.Update(rec.Delta, core.Options{RefreshBudget: rec.RefreshBudget})
		if err != nil {
			t.Fatal(err)
		}
		d = next
		c.states = append(c.states, d)
		c.recs = append(c.recs, rec)
	}
	return c
}

func TestSaveRecoverBitwise(t *testing.T) {
	fs := NewMemFS()
	var events []Event
	s, err := Open("data", Options{FS: fs, OnEvent: func(e Event) { events = append(events, e) }})
	if err != nil {
		t.Fatal(err)
	}
	c := makeChain(t, core.ISVD4, 4)
	ps, err := c.states[0].ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshot("alpha", ps, SnapshotMeta{Seq: 1, JobID: 1}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range c.recs {
		if _, err := s.AppendDelta("alpha", rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open("data", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tenants, err := s2.Tenants()
	if err != nil || len(tenants) != 1 || tenants[0] != "alpha" {
		t.Fatalf("tenants = %v, %v", tenants, err)
	}
	rec, err := s2.Recover("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 5 || rec.JobID != 103 || rec.Replayed != 4 || rec.Degraded {
		t.Fatalf("recovered meta = %+v", rec)
	}
	bitwiseEqual(t, "recovered", rec.Decomp, c.states[4])
	for _, e := range events {
		t.Errorf("unexpected event %+v", e)
	}
	if _, err := s2.Recover("ghost"); !errors.Is(err, ErrNoState) {
		t.Fatalf("ghost tenant: %v", err)
	}
}

func TestCompactionStartsNewGeneration(t *testing.T) {
	fs := NewMemFS()
	s, err := Open("data", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	c := makeChain(t, core.ISVD1, 4)
	ps0, _ := c.states[0].ExportState()
	if err := s.SaveSnapshot("tt", ps0, SnapshotMeta{Seq: 1, JobID: 1}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range c.recs[:2] {
		if _, err := s.AppendDelta("tt", rec); err != nil {
			t.Fatal(err)
		}
	}
	ps2, err := c.states[2].ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshot("tt", ps2, SnapshotMeta{Seq: 3, JobID: 101}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range c.recs[2:] {
		if _, err := s.AppendDelta("tt", rec); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2, _ := Open("data", Options{FS: fs})
	defer s2.Close()
	rec, err := s2.Recover("tt")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Gen != 2 || rec.Seq != 5 || rec.Replayed != 2 {
		t.Fatalf("recovered meta = %+v", rec)
	}
	bitwiseEqual(t, "compacted", rec.Decomp, c.states[4])
}

func TestRecoverTruncatesTornTail(t *testing.T) {
	fs := NewMemFS()
	s, _ := Open("data", Options{FS: fs})
	c := makeChain(t, core.ISVD4, 2)
	ps, _ := c.states[0].ExportState()
	if err := s.SaveSnapshot("tt", ps, SnapshotMeta{Seq: 1, JobID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendDelta("tt", c.recs[0]); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Append garbage — a torn second record.
	walPath := "data/tt/" + walName(1)
	f, err := fs.OpenAppend(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x13, 0x09}); err != nil {
		t.Fatal(err)
	}
	f.Sync()
	f.Close()
	before, _ := fs.Size(walPath)

	var events []Event
	s2, _ := Open("data", Options{FS: fs, OnEvent: func(e Event) { events = append(events, e) }})
	rec, err := s2.Recover("tt")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 2 || rec.Replayed != 1 {
		t.Fatalf("recovered meta = %+v", rec)
	}
	bitwiseEqual(t, "torn", rec.Decomp, c.states[1])
	after, _ := fs.Size(walPath)
	if after >= before {
		t.Fatalf("torn tail not truncated: %d -> %d", before, after)
	}
	var torn bool
	for _, e := range events {
		torn = torn || e.Kind == EventWALTorn
	}
	if !torn {
		t.Fatalf("no torn-tail event in %v", events)
	}
	// The repaired log accepts further appends that survive recovery.
	if _, err := s2.AppendDelta("tt", c.recs[1]); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, _ := Open("data", Options{FS: fs})
	defer s3.Close()
	rec3, err := s3.Recover("tt")
	if err != nil {
		t.Fatal(err)
	}
	if rec3.Seq != 3 {
		t.Fatalf("seq after repair+append = %d", rec3.Seq)
	}
	bitwiseEqual(t, "repaired", rec3.Decomp, c.states[2])
}

func TestRecoverQuarantinesCorruptSnapshotAndDegrades(t *testing.T) {
	fs := NewMemFS()
	s, _ := Open("data", Options{FS: fs})
	c := makeChain(t, core.ISVD3, 2)
	ps0, _ := c.states[0].ExportState()
	ps2, _ := c.states[2].ExportState()
	if err := s.SaveSnapshot("tt", ps0, SnapshotMeta{Seq: 1, JobID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshot("tt", ps2, SnapshotMeta{Seq: 3, JobID: 101}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Corrupt a byte deep in generation 2's factor planes.
	snapPath := "data/tt/" + snapName(2)
	data, err := fs.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	f, _ := fs.Create(snapPath)
	f.Write(data)
	f.Sync()
	f.Close()

	var events []Event
	s2, _ := Open("data", Options{FS: fs, OnEvent: func(e Event) { events = append(events, e) }})
	defer s2.Close()
	rec, err := s2.Recover("tt")
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Degraded || rec.Gen != 1 || rec.Seq != 1 {
		t.Fatalf("recovered meta = %+v", rec)
	}
	bitwiseEqual(t, "degraded", rec.Decomp, c.states[0])
	kinds := map[string]bool{}
	for _, e := range events {
		kinds[e.Kind] = true
	}
	if !kinds[EventSnapshotCorrupt] || !kinds[EventDegraded] {
		t.Fatalf("events = %v", events)
	}
	names, _ := fs.ReadDir("data/tt")
	var quarantined bool
	for _, n := range names {
		quarantined = quarantined || strings.HasSuffix(n, ".corrupt")
	}
	if !quarantined {
		t.Fatalf("no quarantined file in %v", names)
	}

}

// legacyV2Log fabricates a generation-1 log under the retired v2 header,
// as a pre-upgrade server would have left it.
func legacyV2Log(t *testing.T, rec *WALRecord) []byte {
	t.Helper()
	payload, err := EncodeWALRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	return append(binary.LittleEndian.AppendUint64([]byte("IVMFWAL2"), 1), frameWALRecord(payload)...)
}

// TestWALDecodeLegacyV2 pins that a log with the retired v2 header is
// not decoded: scanning it fails whole with ErrWALFormat, and the error
// names the format it found.
func TestWALDecodeLegacyV2(t *testing.T) {
	c := makeChain(t, core.ISVD3, 1)
	legacy := legacyV2Log(t, c.recs[0])
	gen, payloads, validLen, err := scanWAL(legacy)
	if !errors.Is(err, ErrWALFormat) || !strings.Contains(err.Error(), "IVMFWAL2") {
		t.Fatalf("v2 header error = %v, want ErrWALFormat naming IVMFWAL2", err)
	}
	if gen != 0 || len(payloads) != 0 || validLen != 0 {
		t.Fatalf("v2 log partly scanned: gen=%d payloads=%d validLen=%d", gen, len(payloads), validLen)
	}
}

// TestRecoverLegacyV2LogAndTranscode pins what replaced transcoding a
// v2 log: recovery quarantines it whole (it is not truncated, replayed
// or appended to), reports it through EventWALCorrupt naming the
// format, serves the snapshot, and logs afresh in the current format.
func TestRecoverLegacyV2LogAndTranscode(t *testing.T) {
	fs := NewMemFS()
	s, _ := Open("data", Options{FS: fs})
	c := makeChain(t, core.ISVD3, 2)
	ps1, _ := c.states[1].ExportState()
	if err := s.SaveSnapshot("v2", ps1, SnapshotMeta{Seq: 2, JobID: 100}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	walPath := "data/v2/" + walName(1)
	legacy := legacyV2Log(t, c.recs[1])
	f, err := fs.Create(walPath)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(legacy)
	f.Sync()
	f.Close()
	fs.SyncDir("data/v2")

	var events []Event
	s2, _ := Open("data", Options{FS: fs, OnEvent: func(e Event) { events = append(events, e) }})
	defer s2.Close()
	rec, err := s2.Recover("v2")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 2 || rec.Replayed != 0 || rec.Degraded {
		t.Fatalf("recovered over a v2 log: %+v", rec)
	}
	bitwiseEqual(t, "v2 log quarantined", rec.Decomp, c.states[1])
	if len(events) != 1 || events[0].Kind != EventWALCorrupt || !strings.Contains(events[0].Detail, "IVMFWAL2") {
		t.Fatalf("v2 log events = %v, want one %s naming the format", events, EventWALCorrupt)
	}
	if kept, err := fs.ReadFile(walPath + ".corrupt"); err != nil || string(kept) != string(legacy) {
		t.Fatalf("quarantined v2 log altered: %v", err)
	}
	if _, err := s2.AppendDelta("v2", c.recs[1]); err != nil {
		t.Fatal(err)
	}
	if data, err := fs.ReadFile(walPath); err != nil || string(data[:8]) != walMagic {
		t.Fatalf("fresh log after quarantine: %q, %v", data[:min(8, len(data))], err)
	}
}

// TestStaleWALNotReusedAfterDegradedRecovery pins the quarantined-
// timeline regression: when snap-2 is corrupt, recovery degrades to
// generation 1 — and generation 2's log, which described deltas on top
// of the quarantined snapshot, must be quarantined with it. The next
// timeline then re-reaches generation 2, and its acknowledged appends
// must survive a crash instead of landing after the dead timeline's
// records.
func TestStaleWALNotReusedAfterDegradedRecovery(t *testing.T) {
	fs := NewMemFS()
	s, _ := Open("data", Options{FS: fs})
	c := makeChain(t, core.ISVD4, 4)
	ps0, _ := c.states[0].ExportState()
	if err := s.SaveSnapshot("tt", ps0, SnapshotMeta{Seq: 1, JobID: 1}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range c.recs[:2] {
		if _, err := s.AppendDelta("tt", rec); err != nil {
			t.Fatal(err)
		}
	}
	ps2, _ := c.states[2].ExportState()
	if err := s.SaveSnapshot("tt", ps2, SnapshotMeta{Seq: 3, JobID: 101}); err != nil {
		t.Fatal(err)
	}
	// This record (seq 4) goes into wal-2, the timeline about to die.
	if _, err := s.AppendDelta("tt", c.recs[2]); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Corrupt snap-2: generation 2 is now a dead timeline.
	snapPath := "data/tt/" + snapName(2)
	data, err := fs.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	f, _ := fs.Create(snapPath)
	f.Write(data)
	f.Sync()
	f.Close()
	fs.SyncDir("data/tt")

	s2, _ := Open("data", Options{FS: fs})
	rec, err := s2.Recover("tt")
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Degraded || rec.Gen != 1 || rec.Seq != 3 {
		t.Fatalf("recovered meta = %+v", rec)
	}
	names, _ := fs.ReadDir("data/tt")
	var walQuarantined, walLive bool
	for _, n := range names {
		walQuarantined = walQuarantined || n == walName(2)+".corrupt"
		walLive = walLive || n == walName(2)
	}
	if !walQuarantined || walLive {
		t.Fatalf("dead timeline's log not quarantined: %v", names)
	}

	// The new timeline re-reaches generation 2 and acknowledges two more
	// records, then the machine dies.
	ps, err := rec.Decomp.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.SaveSnapshot("tt", ps, SnapshotMeta{Seq: 3, JobID: 101}); err != nil {
		t.Fatal(err)
	}
	for _, r := range c.recs[2:] {
		if _, err := s2.AppendDelta("tt", r); err != nil {
			t.Fatal(err)
		}
	}
	s2.Close()
	fs.Crash()

	var events []Event
	s3, _ := Open("data", Options{FS: fs, OnEvent: func(e Event) { events = append(events, e) }})
	defer s3.Close()
	again, err := s3.Recover("tt")
	if err != nil {
		t.Fatal(err)
	}
	if again.Seq != 5 || again.Gen != 2 || again.Replayed != 2 || again.Degraded {
		t.Fatalf("acknowledged records lost after crash: %+v (events %v)", again, events)
	}
	bitwiseEqual(t, "new timeline", again.Decomp, c.states[4])
	for _, e := range events {
		t.Errorf("unexpected event %+v", e)
	}
}

// TestSaveSnapshotRemovesStaleLog covers the belt-and-braces half of the
// same fix: a store lifetime that never saw the quarantine (the snapshot
// vanished in an earlier lifetime, its log did not) rebuilds generation
// 1 from cold, and SaveSnapshot must clear the stale log before the new
// snapshot name can coexist with it.
func TestSaveSnapshotRemovesStaleLog(t *testing.T) {
	fs := NewMemFS()
	s, _ := Open("data", Options{FS: fs})
	c := makeChain(t, core.ISVD4, 2)
	ps0, _ := c.states[0].ExportState()
	if err := s.SaveSnapshot("tt", ps0, SnapshotMeta{Seq: 1, JobID: 1}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range c.recs {
		if _, err := s.AppendDelta("tt", rec); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// An earlier lifetime quarantined the snapshot but crashed before
	// taking the log with it.
	if err := fs.Rename("data/tt/"+snapName(1), "data/tt/"+snapName(1)+".corrupt"); err != nil {
		t.Fatal(err)
	}
	fs.SyncDir("data/tt")

	s2, _ := Open("data", Options{FS: fs})
	if _, err := s2.Recover("tt"); !errors.Is(err, ErrNoState) {
		t.Fatalf("recover with no snapshot: %v", err)
	}
	// Cold boot: redecompose, persist generation 1 again, acknowledge
	// one record, die.
	if err := s2.SaveSnapshot("tt", ps0, SnapshotMeta{Seq: 1, JobID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.AppendDelta("tt", c.recs[0]); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	fs.Crash()

	s3, _ := Open("data", Options{FS: fs})
	defer s3.Close()
	rec, err := s3.Recover("tt")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 2 || rec.Replayed != 1 {
		t.Fatalf("stale log polluted the new timeline: %+v", rec)
	}
	bitwiseEqual(t, "cold reboot", rec.Decomp, c.states[1])
}

// TestRecoverClosesPreviousLogHandle pins that re-recovering an open
// tenant releases the superseded log handle instead of leaking it.
func TestRecoverClosesPreviousLogHandle(t *testing.T) {
	fs := NewMemFS()
	s, _ := Open("data", Options{FS: fs})
	c := makeChain(t, core.ISVD4, 2)
	ps0, _ := c.states[0].ExportState()
	if err := s.SaveSnapshot("tt", ps0, SnapshotMeta{Seq: 1, JobID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendDelta("tt", c.recs[0]); err != nil {
		t.Fatal(err)
	}
	if got := fs.OpenHandles(); got != 1 {
		t.Fatalf("open handles after append = %d, want 1 (the log)", got)
	}
	if _, err := s.Recover("tt"); err != nil {
		t.Fatal(err)
	}
	if got := fs.OpenHandles(); got != 0 {
		t.Fatalf("open handles after re-recover = %d, want 0 (superseded log closed)", got)
	}
	// The reopened tenant keeps appending where the log left off.
	if _, err := s.AppendDelta("tt", c.recs[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fs.OpenHandles(); got != 0 {
		t.Fatalf("open handles after close = %d, want 0", got)
	}
	s2, _ := Open("data", Options{FS: fs})
	defer s2.Close()
	rec, err := s2.Recover("tt")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 3 || rec.Replayed != 2 {
		t.Fatalf("recovered meta = %+v", rec)
	}
	bitwiseEqual(t, "after reopen", rec.Decomp, c.states[2])
}

func TestAppendDeltaTransientFailureIsRetryable(t *testing.T) {
	c := makeChain(t, core.ISVD4, 2)
	for _, op := range []string{"write", "sync"} {
		t.Run(op, func(t *testing.T) {
			fs := NewMemFS()
			s, _ := Open("data", Options{FS: fs})
			ps, _ := c.states[0].ExportState()
			if err := s.SaveSnapshot("tt", ps, SnapshotMeta{Seq: 1, JobID: 1}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.AppendDelta("tt", c.recs[0]); err != nil {
				t.Fatal(err)
			}
			fs.FailNext(op, fmt.Errorf("transient %s failure", op))
			if _, err := s.AppendDelta("tt", c.recs[1]); err == nil {
				t.Fatal("injected failure not surfaced")
			}
			if _, err := s.AppendDelta("tt", c.recs[1]); err != nil {
				t.Fatalf("retry failed: %v", err)
			}
			s.Close()
			s2, _ := Open("data", Options{FS: fs})
			defer s2.Close()
			rec, err := s2.Recover("tt")
			if err != nil {
				t.Fatal(err)
			}
			if rec.Seq != 3 || rec.Replayed != 2 {
				t.Fatalf("recovered meta = %+v (duplicate or lost record)", rec)
			}
			bitwiseEqual(t, "retried", rec.Decomp, c.states[2])
		})
	}
}

// TestCrashAtEveryPoint is the kill-at-every-crash-point property test:
// a workload of snapshots and log appends is run against a crash
// injected at every filesystem operation (and again with a torn
// write), and after each crash the store must open, recover a state
// that is (a) bitwise-identical to some prefix of the update chain and
// (b) at least as new as the last acknowledged operation, and then
// accept new writes.
func TestCrashAtEveryPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	c := makeChain(t, core.ISVD4, 4)

	// workload drives the store, returning the highest acknowledged
	// sequence number (0 = nothing acked).
	workload := func(fs *MemFS) uint64 {
		acked := uint64(0)
		s, err := Open("data", Options{FS: fs})
		if err != nil {
			return acked
		}
		defer s.Close()
		ps0, _ := c.states[0].ExportState()
		if err := s.SaveSnapshot("tt", ps0, SnapshotMeta{Seq: 1, JobID: 1}); err != nil {
			return acked
		}
		acked = 1
		for _, rec := range c.recs[:2] {
			if _, err := s.AppendDelta("tt", rec); err != nil {
				return acked
			}
			acked = rec.Seq
		}
		ps2, _ := c.states[2].ExportState()
		if err := s.SaveSnapshot("tt", ps2, SnapshotMeta{Seq: 3, JobID: 101}); err != nil {
			return acked
		}
		for _, rec := range c.recs[2:] {
			if _, err := s.AppendDelta("tt", rec); err != nil {
				return acked
			}
			acked = rec.Seq
		}
		return acked
	}

	clean := NewMemFS()
	if got := workload(clean); got != 5 {
		t.Fatalf("clean workload acked %d, want 5", got)
	}
	totalOps := clean.OpCount()
	if totalOps < 10 {
		t.Fatalf("workload too small to be interesting: %d ops", totalOps)
	}

	for n := 1; n <= totalOps; n++ {
		for _, partial := range []bool{false, true} {
			t.Run(fmt.Sprintf("op%d partial=%v", n, partial), func(t *testing.T) {
				fs := NewMemFS()
				fs.CrashAt(n, partial)
				acked := workload(fs)
				if !fs.Crashed() {
					t.Fatalf("crash point %d never fired", n)
				}
				fs.Crash()

				var events []Event
				s, err := Open("data", Options{FS: fs, OnEvent: func(e Event) { events = append(events, e) }})
				if err != nil {
					t.Fatalf("open after crash: %v", err)
				}
				rec, err := s.Recover("tt")
				if errors.Is(err, ErrNoState) {
					if acked > 0 {
						t.Fatalf("acked through seq %d but no state recovered (events %v)", acked, events)
					}
					s.Close()
					return
				}
				if err != nil {
					t.Fatalf("recover after crash at op %d: %v (events %v)", n, err, events)
				}
				if rec.Seq < acked {
					t.Fatalf("recovered seq %d < acknowledged %d", rec.Seq, acked)
				}
				if rec.Seq > 5 {
					t.Fatalf("recovered impossible seq %d", rec.Seq)
				}
				bitwiseEqual(t, "post-crash state", rec.Decomp, c.states[rec.Seq-1])

				// The store must stay writable after recovery: persist a
				// fresh snapshot of the recovered state and read it back.
				ps, err := rec.Decomp.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				if err := s.SaveSnapshot("tt", ps, SnapshotMeta{Seq: rec.Seq, JobID: 999}); err != nil {
					t.Fatalf("post-recovery snapshot: %v", err)
				}
				s.Close()
				s2, _ := Open("data", Options{FS: fs})
				defer s2.Close()
				again, err := s2.Recover("tt")
				if err != nil {
					t.Fatalf("second recovery: %v", err)
				}
				if again.Seq != rec.Seq {
					t.Fatalf("second recovery seq %d, want %d", again.Seq, rec.Seq)
				}
				bitwiseEqual(t, "second recovery", again.Decomp, rec.Decomp)
			})
		}
	}
}

// TestMmapServingBitwise pins the acceptance criterion that a predictor
// over a memory-mapped snapshot is bitwise-equal to the in-memory one,
// using the real filesystem and (on unix) a real zero-copy mapping.
func TestMmapServingBitwise(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := makeChain(t, core.ISVD4, 2)
	ps, _ := c.states[0].ExportState()
	if err := s.SaveSnapshot("tt", ps, SnapshotMeta{Seq: 1, JobID: 1}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range c.recs {
		if _, err := s.AppendDelta("tt", rec); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec, err := s2.Recover("tt")
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, "mmap recovery", rec.Decomp, c.states[2])

	mem, err := recommend.FromSparseDecomposition(c.states[2], 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := recommend.FromSparseDecomposition(rec.Decomp, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < mem.Rows(); i++ {
		for j := 0; j < mem.Cols(); j++ {
			a, err := mem.Predict(i, j)
			if err != nil {
				t.Fatal(err)
			}
			b, err := mapped.Predict(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("prediction (%d,%d): %x vs %x", i, j, math.Float64bits(a), math.Float64bits(b))
			}
		}
	}
}

func TestMemFSCrashSemantics(t *testing.T) {
	fs := NewMemFS()
	if err := fs.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}

	// Unsynced content does not survive.
	f, _ := fs.Create("d/a")
	f.Write([]byte("hello"))
	f.Close()
	fs.SyncDir("d")
	fs.Crash()
	if data, err := fs.ReadFile("d/a"); err != nil || len(data) != 0 {
		t.Fatalf("unsynced content survived: %q, %v", data, err)
	}

	// Synced content under an unsynced rename rolls back to the old name.
	f, _ = fs.Create("d/b.tmp")
	f.Write([]byte("world"))
	f.Sync()
	f.Close()
	fs.SyncDir("d")
	fs.Rename("d/b.tmp", "d/b")
	fs.Crash()
	if _, err := fs.ReadFile("d/b"); err == nil {
		t.Fatal("unsynced rename survived crash")
	}
	if data, err := fs.ReadFile("d/b.tmp"); err != nil || string(data) != "world" {
		t.Fatalf("rename rollback lost the source: %q, %v", data, err)
	}

	// Synced rename survives.
	fs.Rename("d/b.tmp", "d/b")
	fs.SyncDir("d")
	fs.Crash()
	if data, err := fs.ReadFile("d/b"); err != nil || string(data) != "world" {
		t.Fatalf("synced rename lost: %q, %v", data, err)
	}
}

func TestCheckTenantRejectsTraversal(t *testing.T) {
	for _, bad := range []string{"", ".", "..", "a/b", "a\\b", strings.Repeat("x", 65), "a b"} {
		if err := checkTenant(bad); err == nil {
			t.Errorf("tenant %q accepted", bad)
		}
	}
	for _, good := range []string{"alpha", "t-1", "a.b_c", "..."} {
		if err := checkTenant(good); err != nil {
			t.Errorf("tenant %q rejected: %v", good, err)
		}
	}
}

// TestRecoverReturnsAckedKeys pins the idempotency window the service
// rebuilds on restart: the snapshot's own key plus every key
// acknowledged by a replayed log record, in log order.
func TestRecoverReturnsAckedKeys(t *testing.T) {
	fs := NewMemFS()
	st, err := Open("data", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	d, sp := testDecomp(t, core.ISVD4)
	ps, err := d.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSnapshot("t", ps, SnapshotMeta{Seq: 1, JobID: 5, IdemKey: "boot:1"}); err != nil {
		t.Fatal(err)
	}
	// One record acking one key, one coalesced record acking two.
	if _, err := st.AppendDelta("t", &WALRecord{
		Seq: 2, JobID: 6,
		Acked: []IdemAck{{JobID: 6, Key: "u:1"}},
		Delta: core.Delta{Patch: testPatch(sp, 1)},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendDelta("t", &WALRecord{
		Seq: 3, JobID: 8,
		Acked: []IdemAck{{JobID: 7, Key: "u:2a"}, {JobID: 8, Key: "u:2b"}},
		Delta: core.Delta{Patch: testPatch(sp, 2)},
	}); err != nil {
		t.Fatal(err)
	}
	rec, err := st.Recover("t")
	if err != nil {
		t.Fatal(err)
	}
	want := []IdemAck{{5, "boot:1"}, {6, "u:1"}, {7, "u:2a"}, {8, "u:2b"}}
	if len(rec.Acked) != len(want) {
		t.Fatalf("Acked = %+v, want %+v", rec.Acked, want)
	}
	for i := range want {
		if rec.Acked[i] != want[i] {
			t.Fatalf("Acked[%d] = %+v, want %+v", i, rec.Acked[i], want[i])
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
