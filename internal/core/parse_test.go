package core

import (
	"math"
	"testing"
)

func TestParseMethod(t *testing.T) {
	good := map[string]Method{
		"ISVD0": ISVD0, "isvd4": ISVD4, "IsVd2": ISVD2,
		"3": ISVD3, " ISVD1 ": ISVD1,
	}
	for in, want := range good {
		got, err := ParseMethod(in)
		if err != nil || got != want {
			t.Fatalf("ParseMethod(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "ISVD5", "LP", "isvd", "5", "-1", "ISVD44"} {
		if _, err := ParseMethod(in); err == nil {
			t.Fatalf("ParseMethod(%q) accepted", in)
		}
	}
}

func TestParseTarget(t *testing.T) {
	good := map[string]Target{"a": TargetA, "B": TargetB, " c ": TargetC}
	for in, want := range good {
		got, err := ParseTarget(in)
		if err != nil || got != want {
			t.Fatalf("ParseTarget(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "d", "ab"} {
		if _, err := ParseTarget(in); err == nil {
			t.Fatalf("ParseTarget(%q) accepted", in)
		}
	}
}

func TestWireRefreshBudget(t *testing.T) {
	good := []struct {
		policy string
		budget float64
		want   float64
	}{
		{"", 0, 0},
		{"auto", 0.25, 0.25},
		{" AUTO ", 0, 0},
		{"NEVER", 0.25, math.Inf(1)},
		{" always ", 5, math.Inf(-1)},
	}
	for _, c := range good {
		got, err := WireRefreshBudget(c.policy, c.budget)
		if err != nil || got != c.want {
			t.Fatalf("WireRefreshBudget(%q, %g) = %v, %v; want %v", c.policy, c.budget, got, err, c.want)
		}
	}
	for _, in := range []string{"sometimes", "auto!"} {
		if _, err := WireRefreshBudget(in, 0); err == nil {
			t.Fatalf("WireRefreshBudget(%q) accepted", in)
		}
	}
	for _, b := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := WireRefreshBudget("auto", b); err == nil {
			t.Fatalf("WireRefreshBudget budget %v accepted", b)
		}
	}
}

// Round trip: every canonical String() parses back to itself.
func TestParseRoundTrip(t *testing.T) {
	for _, m := range Methods() {
		if got, err := ParseMethod(m.String()); err != nil || got != m {
			t.Fatalf("method %v round trip: %v, %v", m, got, err)
		}
	}
	for _, tg := range Targets() {
		if got, err := ParseTarget(tg.String()); err != nil || got != tg {
			t.Fatalf("target %v round trip: %v, %v", tg, got, err)
		}
	}
}
