package service

// Fuzz coverage for the job-envelope decoder: JSON envelope plus the
// embedded COO/delta payloads. Properties checked: decodeRequest never
// panics, hostile sizes are rejected before any payload parsing, and
// anything accepted satisfies the admission invariants the rest of the
// service relies on.

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/service/sched"
	"repro/internal/sparse"
	"repro/internal/store"
)

func FuzzServiceRequest(f *testing.F) {
	seeds := []string{
		// Well-formed decompose and update envelopes.
		`{"tenant":"ml-1","kind":"decompose","coo":"2,2\n0,0,1\n1,1,2..3\n"}`,
		`{"tenant":"ml-1","kind":"decompose","method":"ISVD2","rank":2,"target":"b","solver":"truncated","min":1,"max":5,"coo":"3,3\n0,0,1\n1,1,2\n2,2,3\n"}`,
		`{"tenant":"t.x-9_","kind":"update","refresh":"always","refreshBudget":0.5,"workers":2,"delta":"4,3\n0,1,4\n3,2,1..2\n"}`,
		// Structural breakage.
		``, `{`, `[]`, `null`, `0`, `"x"`,
		`{"tenant":"t","kind":"decompose","coo":"1,1\n0,0,1\n"} {"again":1}`,
		`{"tenant":"t","kind":"decompose","unknown":true}`,
		// Boundary abuse: huge declared dimensions in a tiny body, junk
		// payload text, out-of-range records, misordered intervals.
		`{"tenant":"t","kind":"decompose","coo":"999999999,999999999\n0,0,1\n"}`,
		`{"tenant":"t","kind":"update","delta":"-3,2\n0,0,1\n"}`,
		`{"tenant":"t","kind":"decompose","coo":"2,2\n7,7,1\n"}`,
		`{"tenant":"t","kind":"decompose","coo":"2,2\n0,0,5..1\n"}`,
		`{"tenant":"t","kind":"decompose","coo":"not a matrix"}`,
		// Knob abuse.
		`{"tenant":"t","kind":"decompose","rank":-5,"coo":"1,1\n0,0,1\n"}`,
		`{"tenant":"t","kind":"decompose","method":"ISVD7","coo":"1,1\n0,0,1\n"}`,
		`{"tenant":"../etc","kind":"decompose","coo":"1,1\n0,0,1\n"}`,
		`{"tenant":"` + strings.Repeat("a", 80) + `","kind":"decompose","coo":"1,1\n0,0,1\n"}`,
		`{"tenant":"t","kind":"update","refresh":"maybe","delta":"1,1\n0,0,1\n"}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		const maxBytes = 1 << 16
		jr, err := decodeRequest([]byte(in), maxBytes)
		if len(in) > maxBytes {
			if !errors.Is(err, errTooLarge) {
				t.Fatalf("oversized body (%d bytes) not rejected with errTooLarge: %v", len(in), err)
			}
			return
		}
		if err != nil {
			return
		}
		// Accepted envelope: every admission invariant holds.
		if !validTenant(jr.tenant) {
			t.Fatalf("accepted tenant %q outside the grammar", jr.tenant)
		}
		switch jr.kind {
		case sched.Decompose:
			if jr.base == nil || jr.base.NNZ() == 0 {
				t.Fatal("accepted decompose without payload cells")
			}
			if jr.base.Rows <= 0 || jr.base.Cols <= 0 {
				t.Fatalf("accepted decompose with shape %dx%d", jr.base.Rows, jr.base.Cols)
			}
			if len(jr.patch) != 0 {
				t.Fatal("decompose request carries a patch")
			}
		case sched.Update:
			if len(jr.patch) == 0 {
				t.Fatal("accepted update without patch cells")
			}
			if jr.patchRows <= 0 || jr.patchCols <= 0 {
				t.Fatalf("accepted update with shape %dx%d", jr.patchRows, jr.patchCols)
			}
			for _, p := range jr.patch {
				if p.Row < 0 || p.Row >= jr.patchRows || p.Col < 0 || p.Col >= jr.patchCols {
					t.Fatalf("accepted out-of-range patch cell (%d,%d) in %dx%d", p.Row, p.Col, jr.patchRows, jr.patchCols)
				}
				if p.Lo > p.Hi {
					t.Fatalf("accepted misordered patch interval [%g,%g]", p.Lo, p.Hi)
				}
			}
		default:
			t.Fatalf("accepted unknown kind %v", jr.kind)
		}
		// The wire budget is finite and non-negative; only refresh
		// "always" resolves it to -Inf, and "never" to +Inf.
		if jr.workers < 0 || math.IsNaN(jr.refreshBudget) || jr.refreshBudget < 0 && !math.IsInf(jr.refreshBudget, -1) {
			t.Fatalf("accepted bad knobs: workers=%d refreshBudget=%g", jr.workers, jr.refreshBudget)
		}
	})
}

// FuzzIdempotencyKey fuzzes the Idempotency-Key admission rule against
// the store's persistence bound: any key the server accepts must fit
// the on-disk formats and round-trip bit-exactly through a WAL record,
// and the grammar must hold exactly (no control bytes, no spaces, no
// over-length keys slip through).
func FuzzIdempotencyKey(f *testing.F) {
	f.Add("a")
	f.Add("tenant:job:1")
	f.Add("boot.2026-08-07_00")
	f.Add(strings.Repeat("k", store.MaxIdemKeyLen))
	f.Add(strings.Repeat("k", store.MaxIdemKeyLen+1))
	f.Add("")
	f.Add("bad key")
	f.Add("ключ")
	f.Add("nul\x00byte")
	f.Add("newline\nkey")
	f.Fuzz(func(t *testing.T, key string) {
		ok := validIdemKey(key)
		if !ok {
			return
		}
		if len(key) < 1 || len(key) > store.MaxIdemKeyLen {
			t.Fatalf("accepted key of length %d", len(key))
		}
		for i := 0; i < len(key); i++ {
			c := key[i]
			switch {
			case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
				c == '.', c == '_', c == ':', c == '-':
			default:
				t.Fatalf("accepted key with byte %q", c)
			}
		}
		// Every accepted key must persist: encode a WAL record that acks
		// it and decode it back unchanged.
		rec := &store.WALRecord{
			Seq: 1, JobID: 2,
			Acked: []store.IdemAck{{JobID: 2, Key: key}},
			Delta: core.Delta{Patch: []sparse.ITriplet{{Row: 0, Col: 0, Lo: 1, Hi: 2}}},
		}
		data, err := store.EncodeWALRecord(rec)
		if err != nil {
			t.Fatalf("accepted key %q does not encode: %v", key, err)
		}
		got, err := store.DecodeWALRecord(data)
		if err != nil {
			t.Fatalf("key %q: decode: %v", key, err)
		}
		if len(got.Acked) != 1 || got.Acked[0] != rec.Acked[0] {
			t.Fatalf("key %q round-tripped as %+v", key, got.Acked)
		}
	})
}
