// Package recommend implements the reconstruction-based rating
// prediction of Section 6.5 of the paper: an interval-valued rating
// matrix (user-genre or user-item) is decomposed at low rank and the
// reconstruction M̃† supplies estimates for the cells — including the
// unobserved ones, which is what makes low-rank reconstruction a
// recommender. Predictions carry their interval, so callers can surface
// the model's imprecision alongside the point estimate.
//
// Two prediction backends share one Predictor API: a materialized
// interval reconstruction (Build/FromDecomposition — the paper's path)
// and trained AI-PMF factors (BuildSparse/FromIntervalModel), which
// compute each cell on demand from U_i·V†_j. The factor backend accepts
// sparse CSR ratings and never materializes a dense matrix — memory is
// O((rows+cols)·rank) instead of O(rows·cols), which is what makes it
// usable on realistically sparse rating corpora.
//
//ivmf:deterministic
package recommend

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/imatrix"
	"repro/internal/interval"
	"repro/internal/ipmf"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/sparse"
)

// source is a rating estimate provider: either a materialized
// reconstruction (*imatrix.IMatrix satisfies it directly) or a lazy
// factor product.
type source interface {
	Rows() int
	Cols() int
	At(i, j int) interval.Interval
}

// factorSource predicts from trained interval PMF factors on demand.
type factorSource struct{ m *ipmf.IntervalModel }

func (f factorSource) Rows() int { return f.m.U.Rows }
func (f factorSource) Cols() int { return f.m.VLo.Rows }
func (f factorSource) At(i, j int) interval.Interval {
	lo, hi := f.m.PredictInterval(i, j)
	return interval.Interval{Lo: lo, Hi: hi}
}

// Predictor predicts ratings from a low-rank interval source. All
// prediction methods (Predict, PredictInterval, TopN, TopNSparse) are
// safe for concurrent use; ApplyDelta mutates the predictor and needs
// external synchronization (see its doc).
type Predictor struct {
	src source
	// Min and Max clamp predictions to the rating scale; Max <= Min
	// disables clamping.
	Min, Max float64
}

// ErrShape is returned when prediction indices fall outside the matrix.
var ErrShape = errors.New("recommend: index out of range")

// Build decomposes the interval rating matrix with the given ISVD method
// and returns a Predictor over its reconstruction. Ratings on the 1..5
// scale should pass minRating=1, maxRating=5.
func Build(ratings *imatrix.IMatrix, method core.Method, opts core.Options, minRating, maxRating float64) (*Predictor, error) {
	d, err := core.Decompose(ratings, method, opts)
	if err != nil {
		return nil, fmt.Errorf("recommend: %w", err)
	}
	return &Predictor{src: d.Reconstruct(), Min: minRating, Max: maxRating}, nil
}

// FromDecomposition wraps an existing decomposition.
func FromDecomposition(d *core.Decomposition, minRating, maxRating float64) *Predictor {
	return &Predictor{src: d.Reconstruct(), Min: minRating, Max: maxRating}
}

// FromIntervalModel wraps trained I-PMF/AI-PMF factors; every prediction
// is computed on demand as U_i·V†_j, so no dense matrix is materialized.
func FromIntervalModel(m *ipmf.IntervalModel, minRating, maxRating float64) *Predictor {
	return &Predictor{src: factorSource{m}, Min: minRating, Max: maxRating}
}

// BuildSparse trains AI-PMF on a sparse interval rating matrix and
// returns a factor-backed Predictor. Unlike Build it never densifies:
// training iterates the stored cells (O(NNZ) per epoch) and the
// predictor holds only the factors.
func BuildSparse(ratings *sparse.ICSR, cfg ipmf.Config, rng *rand.Rand, minRating, maxRating float64) (*Predictor, error) {
	m, err := ipmf.TrainAIPMFCSR(ratings, cfg, rng)
	if err != nil {
		return nil, fmt.Errorf("recommend: %w", err)
	}
	return FromIntervalModel(m, minRating, maxRating), nil
}

// decompSource predicts cells lazily from ISVD factors, reproducing
// Reconstruct's per-cell values (Supplementary Algorithms 12-14) without
// ever materializing the rows×cols reconstruction: memory stays
// O((rows+cols)·rank). For TargetB/C the factors are the averaged scalar
// U/V with the (interval) core diagonal; for TargetA the inner U†×Σ†
// endpoint product is a diagonal scaling precomputed per cell of U, and
// each lookup min/max-combines the four endpoint dot products of
// Algorithm 1 — the same candidate set the materialized path combines.
type decompSource struct {
	d *core.Decomposition
	// TargetB/C: scalar factors and core diagonals.
	u, v     *matrix.Dense
	sLo, sHi []float64
	// TargetA: W = U†×Σ† endpoint product (n×r) and V†.
	w, va *imatrix.IMatrix
}

func newDecompSource(d *core.Decomposition) (*decompSource, error) {
	s := &decompSource{d: d}
	switch d.Target {
	case core.TargetB, core.TargetC:
		s.u = d.U.Mid()
		s.v = d.V.Mid()
		s.sLo = d.Sigma.Lo.Diagonal()
		s.sHi = d.Sigma.Hi.Diagonal()
	case core.TargetA:
		if d.ExactAlgebra {
			return nil, fmt.Errorf("recommend: lazy TargetA prediction supports endpoint algebra only")
		}
		// Σ† is diagonal, so each W entry is the min/max over the four
		// endpoint scalar products of one U entry with one σ interval.
		r := d.Rank
		s.w = imatrix.New(d.U.Rows(), r)
		for i := 0; i < d.U.Rows(); i++ {
			for k := 0; k < r; k++ {
				ul, uh := d.U.Lo.At(i, k), d.U.Hi.At(i, k)
				gl, gh := d.Sigma.Lo.At(k, k), d.Sigma.Hi.At(k, k)
				p1, p2, p3, p4 := ul*gl, ul*gh, uh*gl, uh*gh
				s.w.Lo.Set(i, k, math.Min(math.Min(p1, p2), math.Min(p3, p4)))
				s.w.Hi.Set(i, k, math.Max(math.Max(p1, p2), math.Max(p3, p4)))
			}
		}
		s.va = d.V
	default:
		return nil, fmt.Errorf("recommend: unknown target %v", d.Target)
	}
	return s, nil
}

func (s *decompSource) Rows() int { return s.d.U.Rows() }
func (s *decompSource) Cols() int { return s.d.V.Rows() }

func (s *decompSource) At(i, j int) interval.Interval {
	switch s.d.Target {
	case core.TargetC:
		var p float64
		for k := 0; k < s.d.Rank; k++ {
			p += s.u.At(i, k) * ((s.sLo[k] + s.sHi[k]) / 2) * s.v.At(j, k)
		}
		return interval.Interval{Lo: p, Hi: p}
	case core.TargetB:
		var lo, hi float64
		for k := 0; k < s.d.Rank; k++ {
			uv := s.u.At(i, k) * s.v.At(j, k)
			lo += s.sLo[k] * uv
			hi += s.sHi[k] * uv
		}
		if lo > hi { // AverageReplace semantics of the materialized path
			m := (lo + hi) / 2
			return interval.Interval{Lo: m, Hi: m}
		}
		return interval.Interval{Lo: lo, Hi: hi}
	default: // TargetA, endpoint algebra
		var c11, c12, c21, c22 float64
		for k := 0; k < s.d.Rank; k++ {
			wl, wh := s.w.Lo.At(i, k), s.w.Hi.At(i, k)
			vl, vh := s.va.Lo.At(j, k), s.va.Hi.At(j, k)
			c11 += wl * vl
			c12 += wl * vh
			c21 += wh * vl
			c22 += wh * vh
		}
		lo := math.Min(math.Min(c11, c12), math.Min(c21, c22))
		hi := math.Max(math.Max(c11, c12), math.Max(c21, c22))
		return interval.Interval{Lo: lo, Hi: hi}
	}
}

// BuildSparseISVD decomposes sparse interval ratings with the selected
// ISVD method (core.DecomposeSparse: CSR kernels throughout; with the
// default auto solver the endpoint Gram matrices are applied matrix-free
// and never materialized) and returns a lazily-evaluating Predictor over
// the factor reconstruction — no rows×cols matrix is ever built, so
// memory stays O(NNZ + (rows+cols)·rank) end to end.
func BuildSparseISVD(ratings *sparse.ICSR, method core.Method, opts core.Options, minRating, maxRating float64) (*Predictor, error) {
	d, err := core.DecomposeSparse(ratings, method, opts)
	if err != nil {
		return nil, fmt.Errorf("recommend: %w", err)
	}
	src, err := newDecompSource(d)
	if err != nil {
		return nil, err
	}
	return &Predictor{src: src, Min: minRating, Max: maxRating}, nil
}

// FromSparseDecomposition wraps an existing ISVD decomposition into a
// lazily-evaluating factor-backed Predictor — the BuildSparseISVD
// source without re-decomposing. Predictions are computed per cell from
// the factors (memory O((rows+cols)·rank), nothing dense is built),
// bitwise identical to what BuildSparseISVD would serve for the same
// decomposition. This is the serving tier's constructor: a job executor
// that already holds the (updatable) decomposition builds each snapshot
// predictor from it directly, and after a Decomposition.Update it wraps
// the returned decomposition for the swapped-in snapshot. TargetA
// decompositions must use endpoint algebra (the lazy source's only
// unsupported configuration is ExactAlgebra TargetA).
func FromSparseDecomposition(d *core.Decomposition, minRating, maxRating float64) (*Predictor, error) {
	src, err := newDecompSource(d)
	if err != nil {
		return nil, err
	}
	return &Predictor{src: src, Min: minRating, Max: maxRating}, nil
}

// Decomposition returns the decomposition backing a factor-backed ISVD
// predictor, or nil for other backends (materialized reconstructions,
// AI-PMF factors). The serving tier uses it to fold the next delta into
// the model a snapshot was built from.
func (p *Predictor) Decomposition() *core.Decomposition {
	if ds, ok := p.src.(*decompSource); ok {
		return ds.d
	}
	return nil
}

// ApplyDelta folds a batch of arriving ratings (new cells, edited
// cells, or appended users/items as rows/cols) into a live predictor
// without rebuilding it: the underlying updatable decomposition absorbs
// the delta through core's incremental factor-update engine
// (Decomposition.Update — O(delta)-shaped, not O(dataset)) and the
// predictor re-derives its lazy factor source from the result. Requires
// a factor-backed ISVD predictor built from an updatable decomposition
// (BuildSparseISVD with Options.Updatable). opts carries the update
// knobs (RefreshBudget, OrthoBudget, Workers).
//
// On error the predictor is left unchanged; on success prediction shape
// may grow (appended rows/cols become predictable immediately).
//
// ApplyDelta mutates the predictor and must be externally synchronized
// with concurrent Predict/PredictInterval/TopN calls. For lock-free
// serving, update a decomposition on the side (it is functional — the
// old one keeps serving) and swap in a fresh predictor instead.
func (p *Predictor) ApplyDelta(delta core.Delta, opts core.Options) error {
	ds, ok := p.src.(*decompSource)
	if !ok {
		return fmt.Errorf("recommend: ApplyDelta requires a factor-backed ISVD predictor (BuildSparseISVD)")
	}
	d2, err := ds.d.Update(delta, opts)
	if err != nil {
		return fmt.Errorf("recommend: ApplyDelta: %w", err)
	}
	src, err := newDecompSource(d2)
	if err != nil {
		return fmt.Errorf("recommend: ApplyDelta: %w", err)
	}
	p.src = src
	return nil
}

// Rows and Cols report the prediction matrix shape.
func (p *Predictor) Rows() int { return p.src.Rows() }

// Cols reports the prediction matrix width.
func (p *Predictor) Cols() int { return p.src.Cols() }

// PredictInterval returns the interval estimate for cell (i, j), clamped
// to the rating scale.
func (p *Predictor) PredictInterval(i, j int) (interval.Interval, error) {
	if i < 0 || i >= p.src.Rows() || j < 0 || j >= p.src.Cols() {
		return interval.Interval{}, fmt.Errorf("%w: (%d, %d) in %dx%d", ErrShape, i, j, p.src.Rows(), p.src.Cols())
	}
	iv := p.src.At(i, j)
	if p.Max > p.Min {
		iv = iv.Clamp(p.Min, p.Max)
	}
	return iv, nil
}

// Predict returns the midpoint estimate for cell (i, j).
func (p *Predictor) Predict(i, j int) (float64, error) {
	iv, err := p.PredictInterval(i, j)
	if err != nil {
		return 0, err
	}
	return iv.Mid(), nil
}

// topCand is one entry of TopN's bounded selection heap.
type topCand struct {
	j int
	v float64
}

// worseThan orders the selection heap: the root is the candidate to
// evict. Lower midpoint is worse; on ties the larger column index is
// worse, so equal-valued predictions surface in ascending column order —
// the ordering of the pre-heap selection-sort implementation.
func (a topCand) worseThan(b topCand) bool {
	return a.v < b.v || (a.v == b.v && a.j > b.j)
}

// topScratchPool recycles TopN selection heaps across calls and
// goroutines: the serving path stays allocation-free (beyond the result
// slice) without giving up the Predictor's concurrent-use contract.
var topScratchPool = sync.Pool{New: func() any {
	s := make([]topCand, 0, 64)
	return &s
}}

// TopN returns the column indices of the n highest midpoint predictions
// in row i, excluding the given already-rated columns. It keeps a
// size-n min-heap over the scanned columns (O(cols·log n), preallocated
// scratch reused across calls) instead of materializing and
// selection-sorting every candidate — the difference between O(cols)
// transient garbage per request and none, on the hot serving path.
func (p *Predictor) TopN(i, n int, exclude map[int]bool) ([]int, error) {
	return p.topNSkip(i, n, func(j int) bool { return exclude[j] })
}

// topNSkip is the heap-selection core of TopN/TopNSparse; skip is
// queried once per column in ascending order.
func (p *Predictor) topNSkip(i, n int, skip func(j int) bool) ([]int, error) {
	if i < 0 || i >= p.src.Rows() {
		return nil, fmt.Errorf("%w: row %d", ErrShape, i)
	}
	if n < 0 {
		n = 0
	}
	sp := topScratchPool.Get().(*[]topCand)
	h := (*sp)[:0]
	for j := 0; j < p.src.Cols(); j++ {
		if skip(j) {
			continue
		}
		iv, _ := p.PredictInterval(i, j)
		c := topCand{j: j, v: iv.Mid()}
		if len(h) < n {
			h = append(h, c)
			siftUp(h, len(h)-1)
			continue
		}
		if n == 0 || !h[0].worseThan(c) {
			continue
		}
		h[0] = c
		siftDown(h, 0)
	}
	// Drain the heap worst-first into the output back-to-front: the
	// result descends by midpoint, ascending column on ties.
	out := make([]int, len(h))
	full := h
	for k := len(h) - 1; k >= 0; k-- {
		out[k] = h[0].j
		h[0] = h[k]
		h = h[:k]
		siftDown(h, 0)
	}
	*sp = full[:0]
	topScratchPool.Put(sp)
	return out, nil
}

func siftUp(h []topCand, k int) {
	for k > 0 {
		parent := (k - 1) / 2
		if !h[k].worseThan(h[parent]) {
			return
		}
		h[k], h[parent] = h[parent], h[k]
		k = parent
	}
}

func siftDown(h []topCand, k int) {
	for {
		worst := k
		if l := 2*k + 1; l < len(h) && h[l].worseThan(h[worst]) {
			worst = l
		}
		if r := 2*k + 2; r < len(h) && h[r].worseThan(h[worst]) {
			worst = r
		}
		if worst == k {
			return
		}
		h[k], h[worst] = h[worst], h[k]
		k = worst
	}
}

// TopNSparse is TopN with the exclusion set taken from the stored cells
// of row i of the sparse ratings — the columns the user already rated —
// so callers holding CSR ratings don't build an exclusion map by hand.
func (p *Predictor) TopNSparse(i, n int, ratings *sparse.ICSR) ([]int, error) {
	if ratings.Rows != p.src.Rows() || ratings.Cols != p.src.Cols() {
		return nil, fmt.Errorf("%w: ratings %dx%d vs predictor %dx%d",
			ErrShape, ratings.Rows, ratings.Cols, p.src.Rows(), p.src.Cols())
	}
	if i < 0 || i >= ratings.Rows {
		return nil, fmt.Errorf("%w: row %d", ErrShape, i)
	}
	// The stored columns are sorted ascending and topNSkip queries
	// columns in ascending order, so one advancing pointer replaces an
	// exclusion map — no per-call transient allocation on this serving
	// path. Explicitly stored [0, 0] cells are unobserved (the training
	// convention of ipmf), so they stay recommendable.
	cols, lo, hi := ratings.RowView(i)
	next := 0
	return p.topNSkip(i, n, func(j int) bool {
		for next < len(cols) && cols[next] < j {
			next++
		}
		if next < len(cols) && cols[next] == j {
			return lo[next] != 0 || hi[next] != 0
		}
		return false
	})
}

// Holdout is a held-out observation for evaluation.
type Holdout struct {
	Row, Col int
	Value    float64
}

// EvaluateRMSE scores midpoint predictions against held-out values.
func (p *Predictor) EvaluateRMSE(holdouts []Holdout) (float64, error) {
	pred := make([]float64, len(holdouts))
	truth := make([]float64, len(holdouts))
	for k, h := range holdouts {
		v, err := p.Predict(h.Row, h.Col)
		if err != nil {
			return 0, err
		}
		pred[k] = v
		truth[k] = h.Value
	}
	return metrics.RMSE(pred, truth), nil
}

// CoverageRate reports the fraction of held-out values falling inside
// the predicted intervals — a calibration measure for the interval
// semantics (tight intervals with high coverage are best).
func (p *Predictor) CoverageRate(holdouts []Holdout) (float64, error) {
	if len(holdouts) == 0 {
		return 0, nil
	}
	hit := 0
	for _, h := range holdouts {
		iv, err := p.PredictInterval(h.Row, h.Col)
		if err != nil {
			return 0, err
		}
		if iv.Contains(h.Value) {
			hit++
		}
	}
	return float64(hit) / float64(len(holdouts)), nil
}
