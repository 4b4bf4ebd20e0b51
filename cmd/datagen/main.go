// Command datagen emits the synthetic datasets used by the experiments
// as interval CSV files (cells are "1.5" scalars or "1.0..2.5"
// intervals) or, with -format coo, as sparse interval COO files (header
// "rows,cols", then "row,col,value" records for the observed cells), so
// they can be inspected or fed back through cmd/isvd.
//
// Usage:
//
//	datagen -kind uniform  -rows 40 -cols 250 -intdensity 1 -intensity 1 > m.csv
//	datagen -kind anonymized -rows 40 -cols 250 -privacy high > m.csv
//	datagen -kind faces -scale 0.25 > faces.csv
//	datagen -kind ratings -scale 0.1 > usergenre.csv
//	datagen -kind ratings -scale 0.1 -density 0.02 -format coo > sparse.csv
//	datagen -kind ratings -scale 0.1 -format coo -batches 5 -out stream
//
// With -batches N the generated matrix is split (stable seed split:
// the same flags always produce the same split) into a base COO file
// plus N delta COO files of arriving cell batches — the reproducible
// input of the streaming-update scenario (cmd/experiments stream):
// <out>.base.coo.csv holds the matrix with the streamed cells removed,
// and <out>.delta.K.coo.csv (K = 1..N) each hold one arriving batch in
// the delta COO format of internal/dataset (together ~10% of the
// observed cells).
//
// Adding -window turns the stream into a sliding window: each delta
// additionally carries tombstone records ("row,col,x") expiring exactly
// as many of the oldest live cells as arrive, so replaying the batches
// keeps the live-cell count constant — the reproducible input of the
// sliding-window scenarios (cmd/experiments window):
//
//	datagen -kind ratings -scale 0.1 -format coo -batches 5 -window -out win
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/dataset"
	"repro/internal/imatrix"
	"repro/internal/sparse"
)

func main() {
	kind := flag.String("kind", "uniform", "uniform | anonymized | faces | ratings")
	rows := flag.Int("rows", 40, "rows (uniform/anonymized)")
	cols := flag.Int("cols", 250, "cols (uniform/anonymized)")
	zeroFrac := flag.Float64("zerofrac", 0, "fraction of zero cells (uniform)")
	intDensity := flag.Float64("intdensity", 1, "interval density (uniform)")
	intensity := flag.Float64("intensity", 1, "interval intensity (uniform)")
	privacy := flag.String("privacy", "medium", "high | medium | low (anonymized)")
	scale := flag.Float64("scale", 0.25, "dataset scale (faces/ratings)")
	density := flag.Float64("density", 0, "observed-cell fraction: ratings NumRatings override, or 1-zerofrac for uniform (0 = dataset default)")
	format := flag.String("format", "csv", "csv (dense interval CSV) | coo (sparse interval COO)")
	batches := flag.Int("batches", 0, "emit a base COO file plus N delta files for the streaming scenario (requires -format coo and -out)")
	window := flag.Bool("window", false, "with -batches, emit sliding-window delta files: each batch carries arriving cells plus tombstones expiring equally many of the oldest live cells")
	out := flag.String("out", "", "output file prefix for -batches (files <out>.base.coo.csv, <out>.delta.K.coo.csv)")
	seed := flag.Int64("seed", 1, "RNG seed")
	flag.Parse()

	if err := run(os.Stdout, *kind, *rows, *cols, *zeroFrac, *intDensity, *intensity, *privacy, *scale, *density, *format, *batches, *window, *out, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, kind string, rows, cols int, zeroFrac, intDensity, intensity float64, privacy string, scale, density float64, format string, batches int, window bool, out string, seed int64) error {
	if density < 0 || density > 1 {
		return fmt.Errorf("density %g outside [0, 1]", density)
	}
	if batches < 0 {
		return fmt.Errorf("batches %d negative", batches)
	}
	if batches > 0 && format != "coo" {
		return fmt.Errorf("-batches requires -format coo")
	}
	if batches > 0 && out == "" {
		return fmt.Errorf("-batches requires -out (the files <out>.base.coo.csv and <out>.delta.K.coo.csv are written)")
	}
	if window && batches == 0 {
		return fmt.Errorf("-window requires -batches")
	}
	if density > 0 && kind != "uniform" && kind != "ratings" {
		return fmt.Errorf("-density is not supported for kind %q (only uniform and ratings)", kind)
	}
	rng := rand.New(rand.NewSource(seed))
	var m *imatrix.IMatrix
	var err error
	switch kind {
	case "uniform":
		if density > 0 {
			zeroFrac = 1 - density
		}
		m, err = dataset.GenerateUniform(dataset.SyntheticConfig{
			Rows: rows, Cols: cols, ZeroFrac: zeroFrac,
			IntervalDensity: intDensity, Intensity: intensity,
		}, rng)
	case "anonymized":
		var mix dataset.AnonymizationMix
		switch privacy {
		case "high":
			mix = dataset.HighAnonymity
		case "medium":
			mix = dataset.MediumAnonymity
		case "low":
			mix = dataset.LowAnonymity
		default:
			return fmt.Errorf("unknown privacy level %q", privacy)
		}
		m, err = dataset.GenerateAnonymized(rows, cols, mix, rng)
	case "faces":
		fc := dataset.DefaultFaces()
		if scale < 1 {
			fc.Subjects = max(4, int(float64(fc.Subjects)*scale))
			fc.Res = 16
		}
		var fd *dataset.FaceData
		fd, err = dataset.GenerateFaces(fc, rng)
		if err == nil {
			m = fd.Interval
		}
	case "ratings":
		rc := dataset.MovieLensLike().Scaled(scale)
		if density > 0 {
			// WithDensity caps observed cells at half the matrix (the
			// generator's termination bound); reject rather than
			// silently emit a less dense matrix than asked for.
			if density > 0.5 {
				return fmt.Errorf("ratings density %g exceeds the generator maximum 0.5", density)
			}
			rc = rc.WithDensity(density)
		}
		var data *dataset.RatingsData
		data, err = dataset.GenerateRatings(rc, rng)
		if err == nil {
			m = data.UserGenreIntervals()
		}
	default:
		return fmt.Errorf("unknown kind %q", kind)
	}
	if err != nil {
		return err
	}
	switch format {
	case "csv":
		return dataset.WriteIntervalCSV(w, m)
	case "coo":
		if batches > 0 {
			return writeBatches(w, sparse.FromIMatrix(m), batches, window, out, rng)
		}
		return dataset.WriteIntervalCOO(w, sparse.FromIMatrix(m))
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}

// streamFrac is the fraction of observed cells -batches carves out of
// the base matrix as the arriving stream.
const streamFrac = 0.10

// writeBatches splits the observed cells of m into a base matrix and
// `batches` arriving cell batches (dataset.StreamSplit — a stable seed
// split: the shuffle comes from the same seeded generator as the data,
// so identical flags produce identical files), writing
// <out>.base.coo.csv and <out>.delta.K.coo.csv. A summary of the
// written files goes to w. With window, each delta instead carries the
// arriving cells plus tombstones expiring equally many of the oldest
// live cells (dataset.WindowSplit), so replaying the batch files slides
// a constant-size window over the stream.
func writeBatches(w io.Writer, m *sparse.ICSR, batches int, window bool, out string, rng *rand.Rand) error {
	var base []sparse.ITriplet
	var deltas [][]sparse.ITriplet
	var wbatches []dataset.DeltaBatch
	var err error
	if window {
		base, wbatches, err = dataset.WindowSplit(m, streamFrac, batches, rng)
	} else {
		base, deltas, err = dataset.StreamSplit(m, streamFrac, batches, rng)
	}
	if err != nil {
		return err
	}
	baseM, err := sparse.FromICOO(m.Rows, m.Cols, base)
	if err != nil {
		return err
	}
	writeFile := func(name string, emit func(io.Writer) error) error {
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintln(w, name)
		return nil
	}
	if err := writeFile(out+".base.coo.csv", func(fw io.Writer) error {
		return dataset.WriteIntervalCOO(fw, baseM)
	}); err != nil {
		return err
	}
	if window {
		for k, batch := range wbatches {
			batch := batch
			if err := writeFile(fmt.Sprintf("%s.delta.%d.coo.csv", out, k+1), func(fw io.Writer) error {
				return dataset.WriteDeltaBatchCOO(fw, m.Rows, m.Cols, batch)
			}); err != nil {
				return err
			}
		}
		return nil
	}
	for k, batch := range deltas {
		if err := writeFile(fmt.Sprintf("%s.delta.%d.coo.csv", out, k+1), func(fw io.Writer) error {
			return dataset.WriteDeltaCOO(fw, m.Rows, m.Cols, batch)
		}); err != nil {
			return err
		}
	}
	return nil
}
