package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sparse"
)

func init() {
	register("stream", "Streaming updates: per-batch latency of the incremental factor engine vs full redecomposition (ratings arriving in B batches)",
		func(cfg Config) (*Result, error) { return runUpdateChain(cfg, streamChain) })
	register("window", "Sliding-window updates: per-batch latency of downdates (tombstone expiry + forgetting) vs windowed full redecomposition",
		func(cfg Config) (*Result, error) { return runUpdateChain(cfg, windowChain) })
}

// streamBatches is the number of arriving batches a scenario replays;
// together the batches carry streamHoldout of the observed cells.
const (
	streamBatches = 5
	streamHoldout = 0.10
)

// chainScenario is one update-chain experiment: how the held-out cells
// arrive, and the λ of an optional forgetting chain.
type chainScenario struct {
	name string
	// split divides the observed cells into a base and arriving batches
	// (the same split datagen -batches, or -batches -window, writes).
	split func(m *sparse.ICSR, frac float64, batches int, rng *rand.Rand) ([]sparse.ITriplet, []dataset.DeltaBatch, error)
	// forget, when non-zero, adds a chain that decays by λ = forget
	// before each batch, pinned against a recompute of the explicitly
	// decayed matrix.
	forget float64
	// slide describes the batches in the report.
	slide string
}

// streamChain: held-out ratings arrive in batches and nothing expires.
var streamChain = chainScenario{
	name: "stream",
	split: func(m *sparse.ICSR, frac float64, batches int, rng *rand.Rand) ([]sparse.ITriplet, []dataset.DeltaBatch, error) {
		base, deltas, err := dataset.StreamSplit(m, frac, batches, rng)
		out := make([]dataset.DeltaBatch, len(deltas))
		for k, p := range deltas {
			out[k].Patch = p
		}
		return base, out, err
	},
	slide: "streaming held-out cells through Decomposition.Update",
}

// windowChain: each batch also expires equally many of the oldest live
// cells (dataset.WindowSplit), and a λ = 0.98 chain decays old enough
// cells below the retained spectrum while the window slides.
var windowChain = chainScenario{
	name:   "window",
	split:  dataset.WindowSplit,
	forget: 0.98,
	slide:  "sliding a constant-size window (each arrival expires the oldest live cell)",
}

// runUpdateChain replays a production update scenario: a ratings matrix
// is decomposed once, then each arriving batch is (a) folded into the
// decomposition with core's incremental update engine and (b) absorbed
// by a full re-decomposition of the maintained matrix, timing both. The
// decisive comparison is the per-batch latency ratio — the additive
// update costs O(delta), the full recompute O(NNZ·r) per solver sweep —
// and the engine's output is pinned against the recompute at 1e-6 by
// the core property tests, so this experiment reports timing,
// residual-budget use, and the reconstruction gap as a sanity line.
// Beside the additive chain runs the default-budget chain, whose health
// counters close the report: on flat CF spectra the residual budget
// trips and the guardrails refresh, which is exactly what they are for.
func runUpdateChain(cfg Config, sc chainScenario) (*Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	rc := ratingsConfig(cfg, dataset.MovieLensLike())
	data, err := dataset.GenerateRatings(rc, rng)
	if err != nil {
		return nil, err
	}
	full := data.CFIntervalsCSR()

	baseCells, batches, err := sc.split(full, streamHoldout, streamBatches, rng)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sc.name, err)
	}
	base, err := sparse.FromICOO(full.Rows, full.Cols, baseCells)
	if err != nil {
		return nil, err
	}

	rank := 10
	if m := min(full.Rows, full.Cols); rank > m {
		rank = m
	}
	opts := core.Options{Rank: rank, Target: core.TargetB, Solver: cfg.Solver, Workers: cfg.Workers, Updatable: true}
	refOpts := opts
	refOpts.Updatable = false

	t0 := time.Now()
	d, err := core.DecomposeSparse(base, core.ISVD4, opts)
	if err != nil {
		return nil, err
	}
	coldTime := time.Since(t0)
	dAuto, dForget := d, d

	tbl := &table{header: []string{"batch", "arrive", "expire", "update_ms", "full_ms", "speedup", "residual"}}
	vals := map[string]float64{"cold_ms": coldTime.Seconds() * 1000}
	cur, decayed := base, base
	var speedups []float64
	var lastRef *core.Decomposition
	var autoTotal time.Duration
	for k, b := range batches {
		delta := core.Delta{Patch: b.Patch, Unpatch: b.Tombstones}

		// The additive chain: an infinite refresh budget, so pure factor
		// updates (the guardrails aside) — the O(delta) latency floor.
		t0 = time.Now()
		d2, err := d.Update(delta, core.Options{RefreshBudget: math.Inf(1), Workers: cfg.Workers})
		if err != nil {
			return nil, fmt.Errorf("%s: batch %d: %w", sc.name, k+1, err)
		}
		updTime := time.Since(t0)

		// The default-budget chain re-solves (warm-started) whenever the
		// accumulated residual trips the 1% budget, bounding drift at the
		// cost of refresh batches.
		t0 = time.Now()
		dAuto, err = dAuto.Update(delta, core.Options{Workers: cfg.Workers})
		if err != nil {
			return nil, fmt.Errorf("%s: auto batch %d: %w", sc.name, k+1, err)
		}
		autoTotal += time.Since(t0)

		// Maintain the matrices the baselines recompute: the plain one,
		// and the decayed one in the engine's apply order (decay first;
		// arrivals land at full strength; expiries are value-independent).
		if cur, err = cur.ApplyCells(b.Patch, b.Tombstones); err != nil {
			return nil, err
		}
		if sc.forget != 0 {
			if dForget, err = dForget.Update(core.Delta{Forget: sc.forget, Patch: b.Patch, Unpatch: b.Tombstones},
				core.Options{Workers: cfg.Workers}); err != nil {
				return nil, fmt.Errorf("%s: forget batch %d: %w", sc.name, k+1, err)
			}
			if decayed, err = decayed.Scale(sc.forget); err == nil {
				decayed, err = decayed.ApplyCells(b.Patch, b.Tombstones)
			}
			if err != nil {
				return nil, err
			}
		}

		// The baseline pays exactly what a non-streaming consumer would:
		// no Updatable state capture.
		t0 = time.Now()
		lastRef, err = core.DecomposeSparse(cur, core.ISVD4, refOpts)
		if err != nil {
			return nil, err
		}
		fullTime := time.Since(t0)

		sp := fullTime.Seconds() / math.Max(updTime.Seconds(), 1e-9)
		speedups = append(speedups, sp)
		tbl.addRow(fmt.Sprintf("%d", k+1), fmt.Sprintf("%d", len(b.Patch)), fmt.Sprintf("%d", len(b.Tombstones)),
			fmt.Sprintf("%.2f", updTime.Seconds()*1000), fmt.Sprintf("%.2f", fullTime.Seconds()*1000),
			fmt.Sprintf("%.1fx", sp), fmt.Sprintf("%.2e", d2.Health().ResidualBudgetUsed))
		d = d2
	}
	additiveGap := reconstructionGap(d, lastRef)
	autoGap := reconstructionGap(dAuto, lastRef)
	h := dAuto.Health()
	vals["speedup_mean"] = mean(speedups)
	vals["recon_gap_additive"] = additiveGap
	vals["recon_gap_auto"] = autoGap
	vals["auto_refreshes"] = float64(h.Refreshes)
	vals["auto_redecomposes"] = float64(h.Redecomposes)
	last := h.LastEscalation
	if last == "" {
		last = "none"
	}
	text := fmt.Sprintf(
		"%d x %d ratings, %d observed cells; base decomposition (ISVD4, r=%d, %s solver): %.1f ms\n"+
			"%d batches %s:\n%s"+
			"final gap vs full recompute: additive-only %.2e, default budget %.2e at %.1f ms/batch\n"+
			"(default-budget chain health: %d updates, %d warm refreshes, %d redecomposes, last escalation %s)\n",
		full.Rows, full.Cols, full.NNZ(), rank, cfg.Solver, coldTime.Seconds()*1000,
		len(batches), sc.slide, tbl.String(),
		additiveGap, autoGap, autoTotal.Seconds()*1000/float64(len(batches)),
		h.Updates, h.Refreshes, h.Redecomposes, last)
	if sc.forget != 0 {
		forgetRef, err := core.DecomposeSparse(decayed, core.ISVD4, refOpts)
		if err != nil {
			return nil, err
		}
		forgetGap := reconstructionGap(dForget, forgetRef)
		vals["recon_gap_forget"] = forgetGap
		text += fmt.Sprintf("λ=%.2f forgetting chain vs recompute of the explicitly decayed matrix: %.2e\n", sc.forget, forgetGap)
	}
	return &Result{Text: text, Values: vals}, nil
}

// reconstructionGap returns the relative Frobenius distance between two
// decompositions' interval reconstructions.
func reconstructionGap(a, b *core.Decomposition) float64 {
	ra, rb := a.Reconstruct(), b.Reconstruct()
	var diff, norm float64
	for i := range ra.Lo.Data {
		d := ra.Lo.Data[i] - rb.Lo.Data[i]
		diff += d * d
		d = ra.Hi.Data[i] - rb.Hi.Data[i]
		diff += d * d
		norm += rb.Lo.Data[i]*rb.Lo.Data[i] + rb.Hi.Data[i]*rb.Hi.Data[i]
	}
	return math.Sqrt(diff) / math.Max(1, math.Sqrt(norm))
}
