package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/sparse"
)

// Sliding-window delta format: the delta COO layout of delta.go
// extended with tombstone records. A tombstone is a record whose value
// field is the single token "x" — a deletion has no value, only a
// position — so "3,7,x" expires cell (3, 7) while "3,7,1.5" patches it.
// One batch is an unambiguous set of cell operations: a cell may appear
// at most once, as either a patch or a tombstone. cmd/datagen's -window
// flag emits these files; core.Delta.Patch/Unpatch consume them.

// tombstoneCell is the value token of a tombstone record. It can never
// collide with an interval cell: parseCell requires a float or
// "lo..hi".
const tombstoneCell = "x"

// DeltaBatch is one parsed sliding-window batch: cell patches (set
// semantics) plus tombstones (cells reverting to unobserved).
type DeltaBatch struct {
	Patch      []sparse.ITriplet
	Tombstones []sparse.Cell
}

// WriteDeltaBatchCOO writes a sliding-window batch in the delta COO
// format for a base matrix of the given shape. Records are emitted in
// (row, col) order with patches and tombstones interleaved, so the
// output is uniquely determined by the batch's operation set.
// Everything ReadDeltaCOO would refuse shape-wise — out-of-range cells,
// duplicates (including a cell both patched and tombstoned), misordered
// or non-finite intervals — fails at write time; only the
// against-the-base storedness of tombstones is a read-time check.
func WriteDeltaBatchCOO(w io.Writer, rows, cols int, batch DeltaBatch) error {
	type rec struct {
		row, col int
		cell     string
	}
	recs := make([]rec, 0, len(batch.Patch)+len(batch.Tombstones))
	for _, t := range batch.Patch {
		if math.IsNaN(t.Lo) || math.IsInf(t.Lo, 0) || math.IsNaN(t.Hi) || math.IsInf(t.Hi, 0) {
			return fmt.Errorf("dataset: WriteDeltaBatchCOO: cell (%d, %d) has a non-finite endpoint", t.Row, t.Col)
		}
		if t.Lo > t.Hi {
			return fmt.Errorf("dataset: WriteDeltaBatchCOO: cell (%d, %d) is misordered (lo > hi)", t.Row, t.Col)
		}
		cell := formatFloat(t.Lo)
		if t.Hi != t.Lo {
			cell = formatFloat(t.Lo) + ".." + formatFloat(t.Hi)
		}
		recs = append(recs, rec{t.Row, t.Col, cell})
	}
	for _, c := range batch.Tombstones {
		recs = append(recs, rec{c.Row, c.Col, tombstoneCell})
	}
	sort.Slice(recs, func(a, b int) bool {
		if recs[a].row != recs[b].row {
			return recs[a].row < recs[b].row
		}
		return recs[a].col < recs[b].col
	})
	for k, rc := range recs {
		if rc.row < 0 || rc.row >= rows || rc.col < 0 || rc.col >= cols {
			return fmt.Errorf("dataset: WriteDeltaBatchCOO: cell (%d, %d) outside %dx%d", rc.row, rc.col, rows, cols)
		}
		if k > 0 && rc.row == recs[k-1].row && rc.col == recs[k-1].col {
			return fmt.Errorf("dataset: WriteDeltaBatchCOO: duplicate cell (%d, %d)", rc.row, rc.col)
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{strconv.Itoa(rows), strconv.Itoa(cols)}); err != nil {
		return err
	}
	for _, rc := range recs {
		if err := cw.Write([]string{strconv.Itoa(rc.row), strconv.Itoa(rc.col), rc.cell}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ParseDeltaCOO parses the delta COO format standalone, without a base
// matrix: it returns the declared shape and the batch, after every
// shape-independent check — well-formed header, in-range duplicate-free
// cells, finite ordered intervals. Patches and tombstones come back
// sorted by (row, col) whatever the record order, so every consumer of
// the same text sees the same delta. Callers that hold the base matrix
// should use ReadDeltaCOO, which additionally pins the header to the
// base shape and rejects tombstones for never-inserted cells.
func ParseDeltaCOO(r io.Reader) (rows, cols int, batch DeltaBatch, err error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // header is 2 fields, cells are 3
	records, err := cr.ReadAll()
	if err != nil {
		return 0, 0, DeltaBatch{}, err
	}
	if len(records) == 0 {
		return 0, 0, DeltaBatch{}, fmt.Errorf("dataset: empty delta COO file")
	}
	header := records[0]
	if len(header) != 2 {
		return 0, 0, DeltaBatch{}, fmt.Errorf("dataset: delta COO header has %d fields, want 2 (rows,cols)", len(header))
	}
	if rows, err = parseDim(header[0]); err != nil {
		return 0, 0, DeltaBatch{}, fmt.Errorf("dataset: delta COO rows: %w", err)
	}
	if cols, err = parseDim(header[1]); err != nil {
		return 0, 0, DeltaBatch{}, fmt.Errorf("dataset: delta COO cols: %w", err)
	}
	type key struct{ row, col int }
	seen := make(map[key]bool, len(records)-1)
	for k, rec := range records[1:] {
		if len(rec) != 3 {
			return 0, 0, DeltaBatch{}, fmt.Errorf("dataset: delta COO record %d has %d fields, want 3", k+1, len(rec))
		}
		i, err := strconv.Atoi(rec[0])
		if err != nil {
			return 0, 0, DeltaBatch{}, fmt.Errorf("dataset: delta COO record %d: bad row %q", k+1, rec[0])
		}
		j, err := strconv.Atoi(rec[1])
		if err != nil {
			return 0, 0, DeltaBatch{}, fmt.Errorf("dataset: delta COO record %d: bad col %q", k+1, rec[1])
		}
		if i < 0 || i >= rows || j < 0 || j >= cols {
			return 0, 0, DeltaBatch{}, fmt.Errorf("dataset: delta COO record %d: cell (%d, %d) outside %dx%d", k+1, i, j, rows, cols)
		}
		if seen[key{i, j}] {
			return 0, 0, DeltaBatch{}, fmt.Errorf("dataset: delta COO record %d: duplicate cell (%d, %d)", k+1, i, j)
		}
		seen[key{i, j}] = true
		if rec[2] == tombstoneCell {
			batch.Tombstones = append(batch.Tombstones, sparse.Cell{Row: i, Col: j})
			continue
		}
		lo, hi, err := parseCell(rec[2])
		if err != nil {
			return 0, 0, DeltaBatch{}, fmt.Errorf("dataset: delta COO record %d: %w", k+1, err)
		}
		if lo > hi {
			return 0, 0, DeltaBatch{}, fmt.Errorf("dataset: delta COO record %d: misordered interval (lo > hi)", k+1)
		}
		batch.Patch = append(batch.Patch, sparse.ITriplet{Row: i, Col: j, Lo: lo, Hi: hi})
	}
	sort.Slice(batch.Patch, func(a, b int) bool {
		if batch.Patch[a].Row != batch.Patch[b].Row {
			return batch.Patch[a].Row < batch.Patch[b].Row
		}
		return batch.Patch[a].Col < batch.Patch[b].Col
	})
	sort.Slice(batch.Tombstones, func(a, b int) bool {
		if batch.Tombstones[a].Row != batch.Tombstones[b].Row {
			return batch.Tombstones[a].Row < batch.Tombstones[b].Row
		}
		return batch.Tombstones[a].Col < batch.Tombstones[b].Col
	})
	return rows, cols, batch, nil
}

// ReadDeltaCOO parses a delta COO file as one batch against the base
// matrix the stream has reached. The file's header must match the base
// shape, and every tombstone must address a cell currently stored in
// the base: a tombstone for a never-inserted cell means the stream and
// the model disagree about history and is rejected at read time, before
// anything downstream applies a partial batch. The batch is sorted as
// ParseDeltaCOO sorts it.
func ReadDeltaCOO(r io.Reader, base *sparse.ICSR) (DeltaBatch, error) {
	rows, cols, batch, err := ParseDeltaCOO(r)
	if err != nil {
		return DeltaBatch{}, err
	}
	if rows != base.Rows || cols != base.Cols {
		return DeltaBatch{}, fmt.Errorf("dataset: delta header %dx%d does not match base matrix %dx%d", rows, cols, base.Rows, base.Cols)
	}
	for _, c := range batch.Tombstones {
		if !cellStored(base, c.Row, c.Col) {
			return DeltaBatch{}, fmt.Errorf("dataset: delta tombstone for never-inserted cell (%d, %d)", c.Row, c.Col)
		}
	}
	return batch, nil
}

// cellStored reports whether (i, j) is a stored cell of m — distinct
// from At, which cannot tell a stored explicit zero from an unobserved
// cell.
func cellStored(m *sparse.ICSR, i, j int) bool {
	cols, _, _ := m.RowView(i)
	for _, c := range cols {
		if c == j {
			return true
		}
		if c > j {
			break
		}
	}
	return false
}

// WindowSplit derives a sliding-window stream from m: the base is the
// initial window (the StreamSplit base sample), and each batch appends
// the next arriving cells while tombstoning equally many of the oldest
// live cells (FIFO in split order), so the window size stays constant
// across the stream. Like StreamSplit it is a pure function of
// (m, frac, batches, rng state); replaying base + all batches yields
// exactly the final window's cell set.
func WindowSplit(m *sparse.ICSR, frac float64, batches int, rng *rand.Rand) (base []sparse.ITriplet, wbatches []DeltaBatch, err error) {
	base, deltas, err := StreamSplit(m, frac, batches, rng)
	if err != nil {
		return nil, nil, err
	}
	window := append([]sparse.ITriplet(nil), base...) // FIFO of live cells
	head := 0
	wbatches = make([]DeltaBatch, len(deltas))
	for k, d := range deltas {
		tomb := make([]sparse.Cell, 0, len(d))
		for i := 0; i < len(d) && head < len(window); i++ {
			c := window[head]
			head++
			tomb = append(tomb, sparse.Cell{Row: c.Row, Col: c.Col})
		}
		window = append(window, d...)
		wbatches[k] = DeltaBatch{
			Patch:      append([]sparse.ITriplet(nil), d...),
			Tombstones: tomb,
		}
	}
	return base, wbatches, nil
}
