// Package core implements the paper's primary contribution: singular
// value decomposition of interval-valued matrices (ISVD0 through ISVD4,
// Section 4 and Figure 4), the three decomposition targets (a, b, c;
// Section 3.4), interval-valued reconstruction (Supplementary
// Algorithms 12-14), and the decomposition-accuracy metric of
// Definition 5.
package core

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/assign"
	"repro/internal/eig"
	"repro/internal/imatrix"
)

// Target selects the application semantics of the decomposition output
// (Section 3.4).
type Target int

const (
	// TargetA produces interval-valued U†, Σ†, and V†.
	TargetA Target = iota
	// TargetB produces scalar U and V with an interval-valued core Σ†.
	TargetB
	// TargetC produces scalar U, Σ, and V.
	TargetC
)

// String returns "a", "b", or "c".
func (t Target) String() string {
	switch t {
	case TargetA:
		return "a"
	case TargetB:
		return "b"
	case TargetC:
		return "c"
	default:
		return fmt.Sprintf("Target(%d)", int(t))
	}
}

// Method selects one of the paper's decomposition strategies.
type Method int

const (
	// ISVD0 averages the intervals and runs plain SVD (Section 4.1).
	ISVD0 Method = iota
	// ISVD1 decomposes the endpoint matrices independently and aligns
	// the latent spaces afterwards (Section 4.2).
	ISVD1
	// ISVD2 eigen-decomposes the interval Gram matrix, solves for the
	// left factors per side, then aligns (Section 4.3).
	ISVD2
	// ISVD3 aligns right after the eigen-decomposition and solves for the
	// interval-valued U† with interval matrix algebra (Section 4.4).
	ISVD3
	// ISVD4 additionally recomputes V† from the solved U† to tighten the
	// factor intervals (Section 4.5).
	ISVD4
	// LP labels decompositions produced by the linear-programming
	// competitor pipeline (Deif/Seif interval eigenproblem; package
	// internal/lp). It is not dispatched by Decompose.
	LP
)

// String returns the canonical method name, e.g. "ISVD3".
func (m Method) String() string {
	if m == LP {
		return "LP"
	}
	if m < ISVD0 || m > ISVD4 {
		return fmt.Sprintf("Method(%d)", int(m))
	}
	return fmt.Sprintf("ISVD%d", int(m))
}

// Options configures a decomposition.
type Options struct {
	// Rank is the target rank r; it is clamped to min(n, m). Zero means
	// full rank.
	Rank int
	// Target selects the output semantics (default TargetA).
	Target Target
	// Assign selects the ILSA matching algorithm (default Hungarian,
	// the paper's Problem 2 formulation).
	Assign assign.Method
	// CondThreshold is the condition-number bound above which the
	// Moore-Penrose pseudo-inverse replaces plain inversion in ISVD3/4
	// (paper parameter condThr; default 1e8).
	CondThreshold float64
	// PinvCutoff is the singular-value cutoff of the pseudo-inverse
	// (paper: "replace singular values smaller than 0.1 with zero";
	// default 0.1).
	PinvCutoff float64
	// Workers bounds the goroutines this decomposition's own fan-outs
	// (e.g. the concurrent endpoint eigen-decompositions) may use. Zero
	// means the shared pool default (parallel.Workers(), settable globally
	// via parallel.SetWorkers or the CLIs' -workers flag). The deep matrix
	// kernels always use the shared pool; results are bitwise identical
	// for any worker count.
	Workers int
	// Solver is the solver choice of every endpoint SVD, Gram
	// eigen-decomposition, factor pseudo-inverse and update refresh, all
	// of which go through eig.RoutedSVD / eig.RoutedSymEig (the refresh
	// through eig.GramSVD, RoutedSymEig on the smaller side's Gram):
	// eig.SolverAuto (the zero value) tries the truncated rank-r subspace
	// solver when Rank plus its oversampling is below a third of the
	// operator dimension, eig.SolverTruncated always tries it, and
	// eig.SolverFull never does. A truncated attempt that does not
	// converge (a flat spectrum) falls back to the full O(n³) solver, and
	// the truncated solver matches the full one to 1e-9 relative
	// tolerance, so auto never changes results beyond that tolerance.
	// Either way the output is bitwise identical for any worker count.
	Solver eig.Solver
	// Updatable retains the endpoint factor states and a sparse copy of
	// the input in the returned Decomposition so Update can fold
	// arriving batches (appended rows/cols, cell patches) into the
	// factors at delta cost instead of re-decomposing. Unsupported with
	// ExactAlgebra, and ISVD2-4 additionally require entrywise
	// non-negative endpoints (see core/update.go).
	Updatable bool
	// RefreshBudget is the threshold on the accumulated relative
	// discarded singular mass past which Update replaces the additive
	// result with a warm-started truncated re-solve (read by Update, not
	// Decompose). 0 means the 1% default; math.Inf(1) never trips; any
	// negative value, canonically math.Inf(-1), trips on every update.
	RefreshBudget float64
	// OrthoBudget is the numerical-health guardrail on the factor
	// states' orthogonality drift ‖QᵀQ−I‖∞, read by Update like
	// RefreshBudget (0 = the 1e-8 default). It is the engine's only
	// orthogonality check: an update whose additive result — patches,
	// tombstones and removals alike — drifts past it escalates to a
	// full windowed redecompose, whatever the RefreshBudget — see
	// core/update.go.
	OrthoBudget float64
	// ExactAlgebra switches ISVD2-4 and TargetA reconstruction from the
	// paper's Algorithm 1 endpoint products (min/max over the endpoint
	// matrix products — the reference implementation's semantics, and the
	// default here) to exact inclusion-correct interval matrix products.
	// Exact algebra yields wider, sound intervals but much lower H-mean
	// accuracy when spans are large; see the AblationAlgebra benchmark.
	ExactAlgebra bool
}

func (o Options) withDefaults(m *imatrix.IMatrix) Options {
	return o.withDefaultsDims(m.Rows(), m.Cols())
}

func (o Options) withDefaultsDims(rows, cols int) Options {
	maxRank := rows
	if cols < maxRank {
		maxRank = cols
	}
	if o.Rank <= 0 || o.Rank > maxRank {
		o.Rank = maxRank
	}
	if o.CondThreshold == 0 {
		o.CondThreshold = 1e8
	}
	if o.PinvCutoff == 0 {
		o.PinvCutoff = 0.1
	}
	return o
}

// Timings records per-phase wall-clock durations of a decomposition,
// matching the phase breakdown of the paper's Figure 6(b).
type Timings struct {
	Preprocess time.Duration // interval Gram computation / averaging
	Decompose  time.Duration // SVD / eigen-decomposition of the endpoints
	Align      time.Duration // ILSA
	Solve      time.Duration // recovery of U† (and V† recomputation)
	Construct  time.Duration // target-specific assembly
}

// Total returns the sum of all phases.
func (t Timings) Total() time.Duration {
	return t.Preprocess + t.Decompose + t.Align + t.Solve + t.Construct
}

// Decomposition is the result of an interval-valued SVD. For TargetB the
// U and V matrices are degenerate (scalar) intervals; for TargetC the
// core Σ is degenerate too. Use Reconstruct to obtain M̃† and Accuracy to
// score it against the input.
type Decomposition struct {
	Method Method
	Target Target
	Rank   int

	// U is n×r, Sigma is r×r diagonal, V is m×r.
	U, Sigma, V *imatrix.IMatrix

	// ExactAlgebra records which interval-product semantics produced the
	// factors; Reconstruct uses the same semantics.
	ExactAlgebra bool

	// Diagnostics for the paper's Figures 3 and 5: |cos| between the
	// minimum- and maximum-side basis vectors per latent dimension.
	CosVUnaligned  []float64 // before ILSA (Figure 3a)
	CosVAligned    []float64 // after ILSA (Figure 3b)
	CosURecovered  []float64 // U side after solving (Figure 5a, ISVD2-4)
	CosVRecomputed []float64 // V side after ISVD4 recomputation (Figure 5b)

	Timings Timings

	// state retains the incremental-update engine state when the
	// decomposition was produced with Options.Updatable (see update.go).
	state *updState
}

// ValidateInput checks that an interval matrix is a legal decomposition
// input: finite endpoints and Lo <= Hi everywhere.
func ValidateInput(m *imatrix.IMatrix) error {
	if !m.Lo.IsFinite() || !m.Hi.IsFinite() {
		return fmt.Errorf("core: input contains NaN or Inf endpoints")
	}
	if !m.IsWellFormed() {
		return fmt.Errorf("core: input contains misordered intervals (lo > hi); repair with AverageReplace or FromUnordered")
	}
	return nil
}

// Decompose runs the selected ISVD method on the interval matrix m.
func Decompose(m *imatrix.IMatrix, method Method, opts Options) (*Decomposition, error) {
	if err := ValidateInput(m); err != nil {
		return nil, err
	}
	if err := validateUpdatable(method, opts, func() bool { return nonNegativeDense(m.Lo) }); err != nil {
		return nil, err
	}
	return decompose(denseOperand{m}, method, opts.withDefaults(m))
}

// ParseMethod parses a method name as it appears in CLI flags and
// service requests: "ISVD0".."ISVD4" (any case) or the bare digit.
func ParseMethod(s string) (Method, error) {
	t := strings.ToUpper(strings.TrimSpace(s))
	t = strings.TrimPrefix(t, "ISVD")
	if len(t) == 1 && t[0] >= '0' && t[0] <= '4' {
		return Method(t[0] - '0'), nil
	}
	return 0, fmt.Errorf("core: unknown method %q (want ISVD0..ISVD4)", s)
}

// ParseTarget parses a decomposition target name: "a", "b", or "c"
// (any case).
func ParseTarget(s string) (Target, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "a":
		return TargetA, nil
	case "b":
		return TargetB, nil
	case "c":
		return TargetC, nil
	default:
		return 0, fmt.Errorf("core: unknown target %q (want a, b, or c)", s)
	}
}

// WireRefreshBudget maps the wire form of the refresh setting — a
// policy name "auto", "never" or "always" (any case; empty means auto)
// and a finite, non-negative budget — to Options.RefreshBudget: auto
// keeps the budget, never is math.Inf(1), always is math.Inf(-1).
func WireRefreshBudget(policy string, budget float64) (float64, error) {
	if budget < 0 || math.IsNaN(budget) || math.IsInf(budget, 0) {
		return 0, fmt.Errorf("core: bad refreshBudget %g (want finite and non-negative)", budget)
	}
	switch strings.ToLower(strings.TrimSpace(policy)) {
	case "", "auto":
		return budget, nil
	case "never":
		return math.Inf(1), nil
	case "always":
		return math.Inf(-1), nil
	default:
		return 0, fmt.Errorf("core: unknown refresh policy %q (want auto, never, or always)", policy)
	}
}

// Methods lists all decomposition methods in order.
func Methods() []Method { return []Method{ISVD0, ISVD1, ISVD2, ISVD3, ISVD4} }

// Targets lists all decomposition targets in order.
func Targets() []Target { return []Target{TargetA, TargetB, TargetC} }
