// Package ivmf (interval-valued matrix factorization) is the public API
// of this repository: a Go implementation of "Matrix Factorization with
// Interval-Valued Data" (Li, Di Mauro, Candan, Sapino).
//
// The package decomposes matrices whose entries are intervals [lo, hi]
// rather than scalars — data arising from summarization, conflicting
// sources, anonymization, or measurement imprecision — using the paper's
// ISVD family (interval singular value decomposition, variants ISVD0-4
// with output targets a/b/c) and AI-PMF (aligned interval probabilistic
// matrix factorization), plus the NMF/I-NMF and LP-competitor baselines
// used in its evaluation.
//
// Quick start:
//
//	m := ivmf.NewIntervalMatrix(rows, cols)
//	m.Set(0, 0, ivmf.Interval{Lo: 0.8, Hi: 1.2})
//	...
//	d, err := ivmf.Decompose(m, ivmf.ISVD4, ivmf.Options{Rank: 10, Target: ivmf.TargetB})
//	acc := d.Evaluate(m) // Definition 5 accuracy (harmonic mean)
//
// See examples/ for runnable programs and cmd/experiments for the
// harness regenerating every table and figure of the paper.
package ivmf

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/eig"
	"repro/internal/imatrix"
	"repro/internal/interval"
	"repro/internal/ipmf"
	"repro/internal/lp"
	"repro/internal/matrix"
	"repro/internal/nmf"
	"repro/internal/parallel"
	"repro/internal/recommend"
	"repro/internal/sparse"
)

// Interval is a closed interval [Lo, Hi]; Lo == Hi is a scalar.
type Interval = interval.Interval

// IntervalMatrix is a dense interval-valued matrix M† = [M*, M^*].
type IntervalMatrix = imatrix.IMatrix

// Matrix is a dense scalar matrix.
type Matrix = matrix.Dense

// NewIntervalMatrix allocates a zero interval matrix.
func NewIntervalMatrix(rows, cols int) *IntervalMatrix { return imatrix.New(rows, cols) }

// FromScalarMatrix lifts a scalar matrix to degenerate intervals.
func FromScalarMatrix(m *Matrix) *IntervalMatrix { return imatrix.FromScalar(m) }

// FromEndpoints wraps minimum and maximum endpoint matrices (no copy).
func FromEndpoints(lo, hi *Matrix) *IntervalMatrix { return imatrix.FromEndpoints(lo, hi) }

// NewMatrix allocates a zero scalar matrix.
func NewMatrix(rows, cols int) *Matrix { return matrix.New(rows, cols) }

// SparseIntervalMatrix is an interval matrix in compressed sparse row
// form: one index structure shared by the lo/hi value arrays, with
// unstored cells meaning "unobserved" (the zero-cell convention of the
// ratings paths). Storage is O(NNZ) instead of O(rows·cols).
type SparseIntervalMatrix = sparse.ICSR

// SparseEntry is one observed cell of a sparse interval matrix.
type SparseEntry = sparse.ITriplet

// NewSparseIntervalMatrix builds a sparse interval matrix from observed
// entries (any order; duplicates are errors).
func NewSparseIntervalMatrix(rows, cols int, entries []SparseEntry) (*SparseIntervalMatrix, error) {
	return sparse.FromICOO(rows, cols, entries)
}

// Compress converts a dense interval matrix to sparse form, storing
// every cell where either endpoint is non-zero.
func Compress(m *IntervalMatrix) *SparseIntervalMatrix { return sparse.FromIMatrix(m) }

// Decomposition methods (Section 4 of the paper).
const (
	ISVD0 = core.ISVD0 // average intervals, plain SVD (naive baseline)
	ISVD1 = core.ISVD1 // decompose endpoints independently, then align
	ISVD2 = core.ISVD2 // eigen-decompose interval Gram, solve U, align
	ISVD3 = core.ISVD3 // align first, solve U† with interval algebra
	ISVD4 = core.ISVD4 // ISVD3 plus V† recomputation (best accuracy)
)

// Decomposition output targets (Section 3.4).
const (
	TargetA = core.TargetA // interval U†, Σ†, V†
	TargetB = core.TargetB // scalar U, V; interval Σ† (best H-mean)
	TargetC = core.TargetC // all scalar
)

// Method selects an ISVD variant.
type Method = core.Method

// Target selects the output semantics.
type Target = core.Target

// Options configures Decompose.
type Options = core.Options

// Solver selects the eigen/SVD backend of a decomposition
// (Options.Solver): SolverAuto (the zero value) routes to the truncated
// rank-r subspace solver when Rank is small relative to the matrix and to
// the full O(n³) decomposition otherwise; the two agree to 1e-9 relative
// tolerance and are each bitwise reproducible for any worker count.
type Solver = eig.Solver

// Solver choices for Options.Solver.
const (
	SolverAuto      = eig.SolverAuto      // truncated when profitable (default)
	SolverFull      = eig.SolverFull      // always the full decomposition
	SolverTruncated = eig.SolverTruncated // always the truncated solver
)

// ParseSolver parses "auto", "full", or "truncated" (the CLIs' -solver
// flag values).
func ParseSolver(s string) (Solver, error) { return eig.ParseSolver(s) }

// SetWorkers bounds the goroutines of the shared worker pool every hot
// kernel (matrix products, eigensolvers, factorization epochs) runs on.
// n <= 0 resets to the default, GOMAXPROCS. Results are bitwise identical
// for any worker count; per-decomposition bounds go through
// Options.Workers instead.
func SetWorkers(n int) { parallel.SetWorkers(n) }

// Decomposition is the result of an interval-valued SVD; see
// (*Decomposition).Reconstruct and (*Decomposition).Evaluate.
type Decomposition = core.Decomposition

// AccuracyResult carries the Definition 5 accuracy measures.
type AccuracyResult = core.AccuracyResult

// Decompose runs the selected ISVD method on m.
func Decompose(m *IntervalMatrix, method Method, opts Options) (*Decomposition, error) {
	return core.Decompose(m, method, opts)
}

// DecomposeSparse runs the selected ISVD method directly on sparse
// interval storage: all products against the input run on CSR kernels,
// and with the default auto solver the endpoint Gram matrices are applied
// matrix-free and never materialized — transient memory is
// O(NNZ + (rows+cols)·rank) instead of O(cols²). The memory bound holds
// for spectra the truncated solver converges on (decay past rank); a
// flat spectrum or a full-solver routing falls back to materializing the
// dense Gram rather than failing — see core.DecomposeSparse.
func DecomposeSparse(m *SparseIntervalMatrix, method Method, opts Options) (*Decomposition, error) {
	return core.DecomposeSparse(m, method, opts)
}

// Delta is a batch modification to a decomposed matrix — appended rows,
// appended columns, a cell patch, and/or the decremental sliding-window
// operations (cell tombstones, row/column removal, forgetting factor) —
// consumed by Update.
type Delta = core.Delta

// Tombstone addresses one cell a Delta.Unpatch reverts to unobserved (a
// deletion has no value, only a position). The cell must currently be
// stored: a tombstone for a never-inserted cell is an error.
type Tombstone = sparse.Cell

// Health is the numerical-health report of an updatable decomposition's
// update chain (Decomposition.Health): residual budget use, factor
// orthogonality drift, spectrum condition, and the counts of guardrail
// escalations (warm refreshes, windowed full redecomposes) taken so
// far.
type Health = core.Health

// Update folds a batch delta into a decomposition produced with
// Options.Updatable and returns the refreshed decomposition: the
// endpoint factor states absorb the batch through a deterministic
// Brand-style low-rank update — O((rows+cols)·rank·batch + batch³) per
// batch instead of a full re-decomposition — and the method's
// align/solve/construct stages re-run from the factors. The input
// decomposition keeps serving unchanged. Updated results agree with a
// full recompute to 1e-6 for exact-rank deltas and are bitwise identical
// for any worker count. Accumulated truncation error is tracked against
// opts.RefreshBudget and repaired by a warm-started re-solve once it
// exceeds the budget: 0 means the 1% default, math.Inf(1) never
// re-solves, and a negative budget (canonically math.Inf(-1)) re-solves
// on every batch.
func Update(d *Decomposition, delta Delta, opts Options) (*Decomposition, error) {
	return d.Update(delta, opts)
}

// Accuracy scores a reconstruction against the original interval matrix.
func Accuracy(orig, recon *IntervalMatrix) AccuracyResult { return core.Accuracy(orig, recon) }

// LPOptions configures the LP competitor decomposition.
type LPOptions = lp.Options

// DecomposeLP runs the Deif/Seif linear-programming competitor
// (Section 6.2 of the paper). It is orders of magnitude slower than ISVD
// and only accurate for very small intervals.
func DecomposeLP(m *IntervalMatrix, opts LPOptions) (*Decomposition, error) {
	return lp.Decompose(m, opts)
}

// PMFConfig holds the hyper-parameters of the probabilistic factorizers.
type PMFConfig = ipmf.Config

// PMFModel is a trained scalar PMF model.
type PMFModel = ipmf.Model

// IntervalPMFModel is a trained I-PMF/AI-PMF model.
type IntervalPMFModel = ipmf.IntervalModel

// TrainPMF fits scalar probabilistic matrix factorization on the
// non-zero cells of m.
func TrainPMF(m *Matrix, cfg PMFConfig, rng *rand.Rand) (*PMFModel, error) {
	return ipmf.TrainPMF(m, cfg, rng)
}

// TrainIPMF fits interval PMF (Shen et al.) without alignment.
func TrainIPMF(m *IntervalMatrix, cfg PMFConfig, rng *rand.Rand) (*IntervalPMFModel, error) {
	return ipmf.TrainIPMF(m, cfg, rng)
}

// TrainAIPMF fits the paper's aligned interval PMF.
func TrainAIPMF(m *IntervalMatrix, cfg PMFConfig, rng *rand.Rand) (*IntervalPMFModel, error) {
	return ipmf.TrainAIPMF(m, cfg, rng)
}

// TrainIPMFSparse fits I-PMF directly on sparse ratings: per-epoch cost
// and memory scale with the observed-cell count, and for a compressed
// dense matrix the result is bitwise identical to TrainIPMF.
func TrainIPMFSparse(m *SparseIntervalMatrix, cfg PMFConfig, rng *rand.Rand) (*IntervalPMFModel, error) {
	return ipmf.TrainIPMFCSR(m, cfg, rng)
}

// TrainAIPMFSparse fits AI-PMF directly on sparse ratings.
func TrainAIPMFSparse(m *SparseIntervalMatrix, cfg PMFConfig, rng *rand.Rand) (*IntervalPMFModel, error) {
	return ipmf.TrainAIPMFCSR(m, cfg, rng)
}

// NMFConfig holds NMF hyper-parameters.
type NMFConfig = nmf.Config

// NMFModel is a trained scalar NMF model.
type NMFModel = nmf.Model

// IntervalNMFModel is a trained I-NMF model.
type IntervalNMFModel = nmf.IntervalModel

// TrainNMF fits non-negative matrix factorization with Lee-Seung updates.
func TrainNMF(m *Matrix, cfg NMFConfig, rng *rand.Rand) (*NMFModel, error) {
	return nmf.Train(m, cfg, rng)
}

// TrainINMF fits the interval-valued NMF baseline of Shen et al.
func TrainINMF(m *IntervalMatrix, cfg NMFConfig, rng *rand.Rand) (*IntervalNMFModel, error) {
	return nmf.TrainInterval(m, cfg, rng)
}

// Methods lists the ISVD methods in order.
func Methods() []Method { return core.Methods() }

// Targets lists the decomposition targets in order.
func Targets() []Target { return core.Targets() }

// ParseMethod parses "ISVD0".."ISVD4" (any case, with or without the
// "ISVD" prefix) — the spelling of cmd flags and ivmfd job envelopes.
func ParseMethod(s string) (Method, error) { return core.ParseMethod(s) }

// ParseTarget parses "a", "b", or "c" (any case).
func ParseTarget(s string) (Target, error) { return core.ParseTarget(s) }

// ValidateInput checks that an interval matrix has finite, well-ordered
// endpoints (the precondition of Decompose).
func ValidateInput(m *IntervalMatrix) error { return core.ValidateInput(m) }

// Recommender predicts ratings from a low-rank interval reconstruction
// (the reconstruction-based prediction of Section 6.5 of the paper).
type Recommender = recommend.Predictor

// RecommendHoldout is a held-out observation for recommender evaluation.
type RecommendHoldout = recommend.Holdout

// NewRecommender decomposes the interval rating matrix and returns a
// predictor over its reconstruction, clamped to [minRating, maxRating].
func NewRecommender(ratings *IntervalMatrix, method Method, opts Options, minRating, maxRating float64) (*Recommender, error) {
	return recommend.Build(ratings, method, opts, minRating, maxRating)
}

// NewSparseRecommender trains AI-PMF on sparse ratings and returns a
// factor-backed predictor: predictions are computed on demand from
// U_i·V†_j, so memory stays O((rows+cols)·rank) — no dense rating or
// reconstruction matrix is ever materialized. Use
// (*Recommender).TopNSparse to recommend with the rated cells of the
// sparse matrix excluded.
func NewSparseRecommender(ratings *SparseIntervalMatrix, cfg PMFConfig, rng *rand.Rand, minRating, maxRating float64) (*Recommender, error) {
	return recommend.BuildSparse(ratings, cfg, rng, minRating, maxRating)
}

// NewSparseISVDRecommender decomposes sparse ratings with an ISVD method
// (DecomposeSparse) and returns a lazily-evaluating predictor over the
// factor reconstruction: with the default auto solver nothing dense of
// the matrix shape is ever built — not the ratings, not the Gram
// matrices, not the reconstruction.
func NewSparseISVDRecommender(ratings *SparseIntervalMatrix, method Method, opts Options, minRating, maxRating float64) (*Recommender, error) {
	return recommend.BuildSparseISVD(ratings, method, opts, minRating, maxRating)
}
