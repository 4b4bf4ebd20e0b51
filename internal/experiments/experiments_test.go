package experiments

import (
	"strings"
	"testing"
)

// tiny returns the smallest sensible configuration for test speed.
func tiny() Config { return Config{Seed: 1, Trials: 2, Scale: 0.1} }

func TestIDsAndDescribe(t *testing.T) {
	ids := IDs()
	if len(ids) < 15 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
		if Describe(id) == "" {
			t.Fatalf("no description for %q", id)
		}
	}
	for _, want := range []string{"fig3", "fig5", "fig6a", "fig6b", "table2a", "table2b",
		"table2c", "table2d", "table2e", "fig7", "fig8a", "fig8b", "fig8c", "table3",
		"fig9a", "fig9b", "fig9c", "fig10"} {
		if !seen[want] {
			t.Errorf("experiment %q missing", want)
		}
	}
}

func TestUnknownID(t *testing.T) {
	if _, err := Run("nope", tiny()); err == nil {
		t.Fatal("unknown id accepted")
	}
	if Describe("nope") != "" {
		t.Fatal("Describe of unknown id non-empty")
	}
}

func TestFig3AlignmentImproves(t *testing.T) {
	res, err := Run("fig3", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["meanAfter"] < res.Values["meanBefore"] {
		t.Fatalf("alignment did not improve: %v", res.Values)
	}
	if !strings.Contains(res.Text, "before alignment") {
		t.Fatal("text missing series")
	}
}

func TestFig5RecomputeImproves(t *testing.T) {
	res, err := Run("fig5", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["meanVAfter"] < res.Values["meanVBefore"] {
		t.Fatalf("recompute did not improve V alignment: %v", res.Values)
	}
	if res.Values["meanU"] < res.Values["meanVBefore"] {
		t.Fatalf("U-side cosines should exceed pre-recompute V: %v", res.Values)
	}
}

func TestFig6aShape(t *testing.T) {
	res, err := Run("fig6a", tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Paper shape: ISVD4-b is the best method overall; option-b beats the
	// naive baseline on the default (heavy interval) configuration.
	best := res.Values["ISVD4-b"]
	if best < res.Values["ISVD0-c"] {
		t.Errorf("ISVD4-b (%.3f) below ISVD0 (%.3f)", best, res.Values["ISVD0-c"])
	}
	if best < res.Values["ISVD1-a"] {
		t.Errorf("ISVD4-b (%.3f) below ISVD1-a (%.3f)", best, res.Values["ISVD1-a"])
	}
	for k, v := range res.Values {
		if v < 0 || v > 1 {
			t.Errorf("%s H-mean %g out of range", k, v)
		}
	}
}

func TestFig6bPhases(t *testing.T) {
	res, err := Run("fig6b", tiny())
	if err != nil {
		t.Fatal(err)
	}
	// The Gram-based variants must cost more than the naive baseline.
	if res.Values["ISVD4"] <= res.Values["ISVD0"] {
		t.Errorf("ISVD4 total %.3fms not above ISVD0 %.3fms", res.Values["ISVD4"], res.Values["ISVD0"])
	}
}

func TestTable2Trends(t *testing.T) {
	res, err := Run("table2a", tiny())
	if err != nil {
		t.Fatal(err)
	}
	// ISVD0 degrades as interval density grows (Table 2a's key trend).
	if res.Values["100%/ISVD0"] > res.Values["10%/ISVD0"] {
		t.Errorf("ISVD0 should degrade with interval density: %v vs %v",
			res.Values["100%/ISVD0"], res.Values["10%/ISVD0"])
	}
	// At full density the aligned ISVD4-b must beat ISVD0.
	if res.Values["100%/ISVD4-b"] < res.Values["100%/ISVD0"] {
		t.Errorf("ISVD4-b below ISVD0 at 100%% density")
	}
}

func TestTable2eRankMonotone(t *testing.T) {
	res, err := Run("table2e", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["40/ISVD4-b"] <= res.Values["5/ISVD4-b"] {
		t.Errorf("H-mean should grow with rank: %v", res.Values)
	}
}

func TestFig7Runs(t *testing.T) {
	res, err := Run("fig7", tiny())
	if err != nil {
		t.Fatal(err)
	}
	// High privacy, full rank: ISVD3/4-b should be at or near the top
	// (paper order 1-2).
	top := res.Values["high/ISVD4-b@40"]
	if top < res.Values["high/ISVD1-a@40"] {
		t.Errorf("ISVD4-b (%.3f) below ISVD1-a (%.3f) on high-privacy full rank",
			top, res.Values["high/ISVD1-a@40"])
	}
}

func TestFig8bISVDBeatsNMF(t *testing.T) {
	res, err := Run("fig8b", tiny())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's key classification finding: ISVD-based features beat
	// NMF/I-NMF. Compare at rank 20.
	if res.Values["ISVD2-b@20"] < res.Values["NMF@20"] {
		t.Errorf("ISVD2-b F1 %.3f below NMF %.3f", res.Values["ISVD2-b@20"], res.Values["NMF@20"])
	}
}

func TestTable3Runs(t *testing.T) {
	res, err := Run("table3", tiny())
	if err != nil {
		t.Fatal(err)
	}
	// The low-rank decomposition must roughly match interval-vector NMI
	// (paper: matches at rank 20) while not being slower than interval
	// k-means by orders of magnitude... timing depends on hardware, so
	// only check NMI here.
	if res.Values["16x16/isvd2b"] < res.Values["16x16/interval"]-0.15 {
		t.Errorf("ISVD2-b NMI %.3f way below interval NMI %.3f",
			res.Values["16x16/isvd2b"], res.Values["16x16/interval"])
	}
}

func TestFig9cShape(t *testing.T) {
	res, err := Run("fig9c", tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Full-rank: option-b ISVD3/4 lead (paper order 1-2).
	if res.Values["ISVD4-b@19"] < res.Values["ISVD1-a@19"] {
		t.Errorf("ISVD4-b (%.3f) below ISVD1-a (%.3f)",
			res.Values["ISVD4-b@19"], res.Values["ISVD1-a@19"])
	}
}

func TestFig10AIPMFNotWorse(t *testing.T) {
	res, err := Run("fig10", tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"10", "40", "80"} {
		i, iok := res.Values["I-PMF@"+r]
		a, aok := res.Values["AI-PMF@"+r]
		if !iok || !aok {
			continue
		}
		if a > i*1.05 {
			t.Errorf("AI-PMF RMSE %.4f clearly worse than I-PMF %.4f at rank %s", a, i, r)
		}
	}
}

func TestRankOrders(t *testing.T) {
	orders := rankOrders([]float64{0.3, 0.9, 0.5})
	want := []int{3, 1, 2}
	for i := range want {
		if orders[i] != want[i] {
			t.Fatalf("orders = %v", orders)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &table{header: []string{"a", "long-header"}}
	tbl.addRow("x", "1")
	s := tbl.String()
	if !strings.Contains(s, "long-header") || !strings.Contains(s, "---") {
		t.Fatalf("table rendering broken:\n%s", s)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := (Config{}).withDefaults()
	if c.Trials != 10 || c.Scale != 0.25 || c.Seed != 1 {
		t.Fatalf("defaults: %+v", c)
	}
	if q := Quick(); q.Trials != 10 {
		t.Fatalf("Quick: %+v", q)
	}
	if f := Full(); f.Trials != 100 || !f.WithLP {
		t.Fatalf("Full: %+v", f)
	}
}

func TestStreamScenario(t *testing.T) {
	// A tiny run: the scenario must produce per-batch speedups, a
	// near-zero default-budget gap (warm refresh resets drift), and an
	// additive-path gap that the residual column accounts for.
	cfg := Config{Seed: 1, Trials: 1, Scale: 0.1}
	res, err := Run("stream", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["speedup_mean"] <= 1 {
		t.Errorf("additive update not faster than full recompute: mean speedup %.2f", res.Values["speedup_mean"])
	}
	if res.Values["recon_gap_auto"] > 1e-6 {
		t.Errorf("default-budget gap %g, want <= 1e-6 (warm refresh must track the recompute)", res.Values["recon_gap_auto"])
	}
	if !strings.Contains(res.Text, "speedup") {
		t.Error("missing speedup column")
	}
}

func TestWindowScenario(t *testing.T) {
	// The sliding-window replay: downdates must stay faster than the
	// windowed recompute on average, the default-policy chain must track
	// the recompute through its refreshes (expiries chew the residual
	// budget far faster than pure arrivals), and the forgetting chain is
	// pinned against a recompute of the explicitly decayed window.
	cfg := Config{Seed: 1, Trials: 1, Scale: 0.1}
	res, err := Run("window", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["speedup_mean"] <= 1 {
		t.Errorf("window update not faster than windowed recompute: mean speedup %.2f", res.Values["speedup_mean"])
	}
	if res.Values["recon_gap_auto"] > 1e-6 {
		t.Errorf("default-budget gap %g, want <= 1e-6", res.Values["recon_gap_auto"])
	}
	if res.Values["recon_gap_forget"] > 1e-6 {
		t.Errorf("forgetting-chain gap %g, want <= 1e-6 vs the decayed window", res.Values["recon_gap_forget"])
	}
	if res.Values["auto_refreshes"] < 1 {
		t.Error("sliding the window never tripped the refresh budget; the scenario is not exercising the guardrails")
	}
	if !strings.Contains(res.Text, "expire") {
		t.Error("missing expire column")
	}
}
