// Package oracle is the offline reference for served predictions. It
// replays the wire envelopes of acknowledged jobs — the exact text a
// client sent to ivmfd — through the library alone (dataset parsers,
// core decompose/update, recommend predictor), and compares served
// answers with the replay bitwise. It never calls the service or the
// store, so the serving tier is never checked against itself.
//
// The replay follows the service's recipe: a decompose job builds one
// updatable decomposition with the envelope's method, rank, target and
// solver, and each update job applies its delta text (sorted by
// dataset.ParseDeltaCOO) with its forgetting factor and budgets (the
// refresh policy name folded in by core.WireRefreshBudget) as one
// functional Update. Workers is ignored: results are bitwise equal for
// any worker count.
package oracle

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eig"
	"repro/internal/interval"
	"repro/internal/recommend"
)

// Job is the wire envelope of one job, field for field the JSON body of
// POST /v1/jobs (a service.Request converts to it directly).
type Job struct {
	Tenant        string
	Kind          string
	Method        string
	Rank          int
	Target        string
	Solver        string
	Min           float64
	Max           float64
	Workers       int
	Refresh       string
	RefreshBudget float64
	OrthoBudget   float64
	Forget        float64
	COO           string
	Delta         string
}

// Chain is the offline state after a sequence of acknowledged jobs. The
// zero Chain is empty; its first job must be a decompose.
type Chain struct {
	d    *core.Decomposition
	pred *recommend.Predictor
}

// Apply advances the chain by one acknowledged job. A decompose job
// starts the chain over, as it replaces the served model.
func (c *Chain) Apply(j Job) error {
	var (
		d        *core.Decomposition
		min, max float64
		err      error
	)
	switch j.Kind {
	case "decompose":
		if d, err = decompose(j); err != nil {
			return err
		}
		min, max = j.Min, j.Max
	case "update":
		if c.d == nil {
			return fmt.Errorf("oracle: update before decompose")
		}
		if d, err = update(c.d, j); err != nil {
			return err
		}
		min, max = c.pred.Min, c.pred.Max
	default:
		return fmt.Errorf("oracle: unknown job kind %q", j.Kind)
	}
	pred, err := recommend.FromSparseDecomposition(d, min, max)
	if err != nil {
		return err
	}
	c.d, c.pred = d, pred
	return nil
}

func decompose(j Job) (*core.Decomposition, error) {
	name := j.Method
	if name == "" {
		name = "ISVD4"
	}
	method, err := core.ParseMethod(name)
	if err != nil {
		return nil, err
	}
	opts := core.Options{Rank: j.Rank, Updatable: true}
	if j.Target != "" {
		if opts.Target, err = core.ParseTarget(j.Target); err != nil {
			return nil, err
		}
	}
	if opts.Solver, err = eig.ParseSolver(j.Solver); err != nil {
		return nil, err
	}
	base, err := dataset.ReadIntervalCOO(strings.NewReader(j.COO))
	if err != nil {
		return nil, err
	}
	return core.DecomposeSparse(base, method, opts)
}

func update(d *core.Decomposition, j Job) (*core.Decomposition, error) {
	_, _, batch, err := dataset.ParseDeltaCOO(strings.NewReader(j.Delta))
	if err != nil {
		return nil, err
	}
	budget, err := core.WireRefreshBudget(j.Refresh, j.RefreshBudget)
	if err != nil {
		return nil, err
	}
	opts := core.Options{RefreshBudget: budget, OrthoBudget: j.OrthoBudget}
	return d.Update(core.Delta{Forget: j.Forget, Patch: batch.Patch, Unpatch: batch.Tombstones}, opts)
}

// Health is the replayed decomposition's health report: its escalation
// counters say whether the guardrails fired along the chain.
func (c *Chain) Health() core.Health { return c.d.Health() }

// Predict returns the intervals the server must serve for cells.
func (c *Chain) Predict(cells [][2]int) ([]interval.Interval, error) {
	if c.pred == nil {
		return nil, fmt.Errorf("oracle: empty chain")
	}
	out := make([]interval.Interval, len(cells))
	for k, cell := range cells {
		iv, err := c.pred.PredictInterval(cell[0], cell[1])
		if err != nil {
			return nil, err
		}
		out[k] = iv
	}
	return out, nil
}

// Check compares served[k], the served answer for cells[k], with the
// chain. See Diff for what counts as a mismatch.
func (c *Chain) Check(cells [][2]int, served []interval.Interval) ([]Mismatch, error) {
	want, err := c.Predict(cells)
	if err != nil {
		return nil, err
	}
	return Diff(cells, served, want), nil
}

// Mismatch is one served cell that differs from the replay.
type Mismatch struct {
	Cell         [2]int
	Served, Want interval.Interval
}

func (m Mismatch) String() string {
	return fmt.Sprintf("cell (%d,%d): served [%v,%v], offline [%v,%v]",
		m.Cell[0], m.Cell[1], m.Served.Lo, m.Served.Hi, m.Want.Lo, m.Want.Hi)
}

// Diff compares served answers with the replay's, cell by cell. A cell
// matches only if both endpoints are bitwise equal and finite: a
// non-finite served value is a mismatch even where the replay has the
// same bits, because a poisoned model must never reach a client. A
// length disagreement reports every unanswered cell.
func Diff(cells [][2]int, served, want []interval.Interval) []Mismatch {
	var out []Mismatch
	for k, cell := range cells {
		s := interval.Interval{Lo: math.NaN(), Hi: math.NaN()} // unanswered
		if k < len(served) {
			s = served[k]
		}
		var w interval.Interval
		if k < len(want) {
			w = want[k]
		}
		if finite(s.Lo) && finite(s.Hi) &&
			math.Float64bits(s.Lo) == math.Float64bits(w.Lo) &&
			math.Float64bits(s.Hi) == math.Float64bits(w.Hi) {
			continue
		}
		out = append(out, Mismatch{Cell: cell, Served: s, Want: w})
	}
	return out
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
