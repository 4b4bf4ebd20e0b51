// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments [flags] <id>...     # e.g. fig6a table2a fig10
//	experiments [flags] all
//	experiments stream              # streaming-update scenario: per-batch
//	                                # incremental-update latency vs full
//	                                # redecomposition (BENCH_update.json
//	                                # holds the committed baseline)
//
// Flags:
//
//	-full        paper-scale run (100 trials, full datasets, LP on)
//	-trials N    override the trial count
//	-scale F     override the dataset scale factor
//	-density F   override the ratings observed-cell fraction (sparse CSR paths)
//	-seed N      RNG seed (default 1)
//	-solver S    eigen/SVD backend: auto (default), full, or truncated
//	-lp          include the (slow) LP competitor class
//	-workers N   bound the worker pool (0 = GOMAXPROCS)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/eig"
	"repro/internal/experiments"
	"repro/internal/parallel"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	full := flag.Bool("full", false, "paper-scale configuration")
	trials := flag.Int("trials", 0, "override trial count")
	scale := flag.Float64("scale", 0, "override dataset scale")
	density := flag.Float64("density", 0, "override ratings observed-cell fraction (0 = dataset default)")
	seed := flag.Int64("seed", 0, "RNG seed")
	withLP := flag.Bool("lp", false, "include the LP competitor class")
	solver := flag.String("solver", "auto", "eigen/SVD backend of the ISVD decompositions (the LP competitor always uses the full solver): auto, full, or truncated")
	workers := flag.Int("workers", 0, "worker-pool goroutines (0 = GOMAXPROCS); results are identical for any value")
	flag.Parse()
	parallel.SetWorkers(*workers)

	// -list short-circuits before any flag validation: the listing must
	// print regardless of what other flags hold.
	if *list {
		if err := run(os.Stdout, experiments.Config{}, nil, true); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.Quick()
	if *full {
		cfg = experiments.Full()
	}
	if *trials > 0 {
		cfg.Trials = *trials
	}
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *density > 0 {
		// The ratings generator caps observed cells at half the matrix;
		// reject rather than silently run at a lower density than asked.
		if *density > 0.5 {
			fmt.Fprintf(os.Stderr, "-density %g exceeds the ratings generator maximum 0.5\n", *density)
			os.Exit(2)
		}
		cfg.Density = *density
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *withLP {
		cfg.WithLP = true
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	sv, err := eig.ParseSolver(*solver)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	cfg.Solver = sv

	if err := run(os.Stdout, cfg, flag.Args(), false); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
}

// run executes the listed experiments (or prints the id listing) to w.
func run(w io.Writer, cfg experiments.Config, ids []string, list bool) error {
	if list {
		for _, id := range experiments.IDs() {
			fmt.Fprintf(w, "%-8s %s\n", id, experiments.Describe(id))
		}
		return nil
	}
	if len(ids) == 0 {
		return fmt.Errorf("no experiment ids given; use -list to see them or 'all' to run everything")
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		res, err := experiments.Run(id, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== %s — %s (%.1fs) ==\n%s\n", res.ID, res.Title, time.Since(start).Seconds(), res.Text)
	}
	return nil
}
