package service

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/service/sched"
)

func TestDecodeRequestValid(t *testing.T) {
	jr, err := decodeRequest([]byte(
		`{"tenant":"ml-1","kind":"decompose","coo":"2,2\n0,0,1\n1,1,2..3\n"}`), 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if jr.kind != sched.Decompose || jr.tenant != "ml-1" {
		t.Fatalf("decoded %+v", jr)
	}
	if jr.method != core.ISVD4 {
		t.Errorf("default method = %v, want ISVD4", jr.method)
	}
	if jr.base == nil || jr.base.NNZ() != 2 || jr.base.Rows != 2 || jr.base.Cols != 2 {
		t.Errorf("base payload parsed wrong: %+v", jr.base)
	}

	jr, err = decodeRequest([]byte(
		`{"tenant":"ml-1","kind":"update","refresh":"always","workers":2,"delta":"4,3\n0,1,4\n3,2,1..2\n"}`), 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if jr.kind != sched.Update || len(jr.patch) != 2 {
		t.Fatalf("decoded %+v", jr)
	}
	if jr.patchRows != 4 || jr.patchCols != 3 {
		t.Errorf("delta header = %dx%d, want 4x3", jr.patchRows, jr.patchCols)
	}
	if !math.IsInf(jr.refreshBudget, -1) || jr.workers != 2 {
		t.Errorf("knobs: refreshBudget=%v workers=%d", jr.refreshBudget, jr.workers)
	}
	p := jr.patch[0]
	if p.Row != 0 || p.Col != 1 || p.Lo != 4 || p.Hi != 4 {
		t.Errorf("patch[0] = %+v", p)
	}
}

func TestDecodeRequestRejects(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string // substring of the error
	}{
		{"bad json", `{`, "bad request envelope"},
		{"unknown field", `{"tenant":"t","kind":"decompose","bogus":1}`, "bad request envelope"},
		{"trailing data", `{"tenant":"t","kind":"decompose","coo":"1,1\n0,0,1\n"} x`, "trailing data"},
		{"empty tenant", `{"tenant":"","kind":"decompose"}`, "bad tenant"},
		{"tenant with space", `{"tenant":"a b","kind":"decompose"}`, "bad tenant"},
		{"tenant with slash", `{"tenant":"a/b","kind":"decompose"}`, "bad tenant"},
		{"tenant too long", `{"tenant":"` + strings.Repeat("a", 65) + `","kind":"decompose"}`, "bad tenant"},
		{"tenant dot", `{"tenant":".","kind":"decompose","coo":"1,1\n0,0,1\n"}`, "bad tenant"},
		{"tenant dotdot", `{"tenant":"..","kind":"decompose","coo":"1,1\n0,0,1\n"}`, "bad tenant"},
		{"bad kind", `{"tenant":"t","kind":"retrain"}`, "unknown job kind"},
		{"missing kind", `{"tenant":"t"}`, "unknown job kind"},
		{"decompose with delta", `{"tenant":"t","kind":"decompose","coo":"1,1\n0,0,1\n","delta":"1,1\n0,0,1\n"}`, "carries a delta"},
		{"bad method", `{"tenant":"t","kind":"decompose","method":"SVD9","coo":"1,1\n0,0,1\n"}`, "unknown method"},
		{"bad target", `{"tenant":"t","kind":"decompose","target":"z","coo":"1,1\n0,0,1\n"}`, "unknown target"},
		{"bad solver", `{"tenant":"t","kind":"decompose","solver":"magic","coo":"1,1\n0,0,1\n"}`, "solver"},
		{"negative rank", `{"tenant":"t","kind":"decompose","rank":-1,"coo":"1,1\n0,0,1\n"}`, "negative rank"},
		{"negative workers", `{"tenant":"t","kind":"decompose","workers":-2,"coo":"1,1\n0,0,1\n"}`, "negative workers"},
		{"negative refresh budget", `{"tenant":"t","kind":"update","refreshBudget":-1,"delta":"1,1\n0,0,1\n"}`, "refreshBudget"},
		{"bad refresh", `{"tenant":"t","kind":"update","refresh":"sometimes","delta":"1,1\n0,0,1\n"}`, "refresh"},
		{"empty coo", `{"tenant":"t","kind":"decompose","coo":""}`, "decompose payload"},
		{"coo without cells", `{"tenant":"t","kind":"decompose","coo":"2,2\n"}`, "no observed cells"},
		{"coo out of range", `{"tenant":"t","kind":"decompose","coo":"2,2\n5,0,1\n"}`, "decompose payload"},
		{"update with coo", `{"tenant":"t","kind":"update","coo":"1,1\n0,0,1\n","delta":"1,1\n0,0,1\n"}`, "decompose-only"},
		{"update with method", `{"tenant":"t","kind":"update","method":"ISVD2","delta":"1,1\n0,0,1\n"}`, "decompose-only"},
		{"update with rank", `{"tenant":"t","kind":"update","rank":3,"delta":"1,1\n0,0,1\n"}`, "decompose-only"},
		{"empty delta", `{"tenant":"t","kind":"update","delta":"2,2\n"}`, "no cells"},
		{"misordered interval", `{"tenant":"t","kind":"decompose","coo":"1,1\n0,0,5..1\n"}`, "decompose payload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeRequest([]byte(tc.body), 1<<16)
			if err == nil {
				t.Fatalf("accepted %s", tc.body)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestDecodeRequestSizeLimit(t *testing.T) {
	body := []byte(`{"tenant":"t","kind":"decompose","coo":"1,1\n0,0,1\n"}`)
	if _, err := decodeRequest(body, int64(len(body))); err != nil {
		t.Fatalf("exact-size body rejected: %v", err)
	}
	_, err := decodeRequest(body, int64(len(body))-1)
	if !errors.Is(err, errTooLarge) {
		t.Fatalf("oversized body: err = %v, want errTooLarge", err)
	}
}

func TestValidateRequestNonFinite(t *testing.T) {
	base := Request{Tenant: "t", Kind: "decompose", COO: "1,1\n0,0,1\n"}
	for _, bad := range []Request{
		func() Request { r := base; r.Min = math.NaN(); return r }(),
		func() Request { r := base; r.Max = math.Inf(1); return r }(),
		func() Request { r := base; r.RefreshBudget = math.NaN(); return r }(),
		func() Request { r := base; r.RefreshBudget = math.Inf(1); return r }(),
	} {
		if _, err := validateRequest(&bad); err == nil {
			t.Errorf("accepted non-finite knobs: %+v", bad)
		}
	}
	if _, err := validateRequest(&base); err != nil {
		t.Fatalf("baseline request rejected: %v", err)
	}
}
