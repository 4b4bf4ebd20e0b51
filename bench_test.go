package ivmf_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (Section 6), each delegating to the corresponding
// experiment runner in internal/experiments at a reduced scale so
// `go test -bench=.` completes in minutes. Reported custom metrics carry
// the experiment's headline number (H-mean, RMSE, F1, or NMI) so bench
// output doubles as a regression record of the reproduced shapes.
// Run `cmd/experiments -full` for paper-scale numbers.
//
// Micro-benchmarks for the substrates and ablation benchmarks for the
// design choices called out in DESIGN.md (interval-product semantics,
// ILSA assignment algorithm) follow at the end.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eig"
	"repro/internal/experiments"
	"repro/internal/imatrix"
	"repro/internal/ipmf"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/nmf"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// benchConfig is the reduced-scale experiment configuration used by the
// benchmarks.
func benchConfig() experiments.Config {
	return experiments.Config{Seed: 1, Trials: 2, Scale: 0.15}
}

// runExperiment executes one experiment per iteration and reports the
// named headline values as custom metrics.
func runExperiment(b *testing.B, id string, metricKeys ...string) {
	b.Helper()
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, k := range metricKeys {
		if v, ok := last.Values[k]; ok {
			b.ReportMetric(v, k)
		}
	}
}

func BenchmarkFig3Alignment(b *testing.B) {
	runExperiment(b, "fig3", "meanBefore", "meanAfter")
}

func BenchmarkFig5Recompute(b *testing.B) {
	runExperiment(b, "fig5", "meanVBefore", "meanVAfter")
}

func BenchmarkFig6Accuracy(b *testing.B) {
	runExperiment(b, "fig6a", "ISVD0-c", "ISVD4-b")
}

func BenchmarkFig6Phases(b *testing.B) {
	runExperiment(b, "fig6b", "ISVD0", "ISVD4")
}

func BenchmarkTable2IntervalDensity(b *testing.B) {
	runExperiment(b, "table2a", "100%/ISVD4-b")
}

func BenchmarkTable2IntervalIntensity(b *testing.B) {
	runExperiment(b, "table2b", "100%/ISVD4-b")
}

func BenchmarkTable2MatrixDensity(b *testing.B) {
	runExperiment(b, "table2c", "90%/ISVD4-b")
}

func BenchmarkTable2MatrixShape(b *testing.B) {
	runExperiment(b, "table2d", "25-by-400/ISVD4-b")
}

func BenchmarkTable2TargetRank(b *testing.B) {
	runExperiment(b, "table2e", "40/ISVD4-b")
}

func BenchmarkFig7Anonymized(b *testing.B) {
	runExperiment(b, "fig7", "high/ISVD4-b@40")
}

func BenchmarkFig8Reconstruction(b *testing.B) {
	runExperiment(b, "fig8a", "ISVD4-b@10", "NMF@10")
}

func BenchmarkFig8NN(b *testing.B) {
	runExperiment(b, "fig8b", "ISVD2-b@20", "NMF@20")
}

func BenchmarkFig8Clustering(b *testing.B) {
	runExperiment(b, "fig8c", "ISVD2-b@20", "NMF@20")
}

func BenchmarkTable3(b *testing.B) {
	runExperiment(b, "table3", "16x16/isvd2b", "16x16/interval")
}

func BenchmarkFig9Ciao(b *testing.B) {
	runExperiment(b, "fig9a", "ISVD4-b@28", "ISVD0-c@28")
}

func BenchmarkFig9Epinions(b *testing.B) {
	runExperiment(b, "fig9b", "ISVD4-b@27", "ISVD0-c@27")
}

func BenchmarkFig9MovieLens(b *testing.B) {
	runExperiment(b, "fig9c", "ISVD4-b@19", "ISVD0-c@19")
}

func BenchmarkFig10CF(b *testing.B) {
	runExperiment(b, "fig10", "PMF@10", "AI-PMF@10")
}

// --- Substrate micro-benchmarks ---

func benchIntervalMatrix(rng *rand.Rand, rows, cols int) *imatrix.IMatrix {
	m := imatrix.New(rows, cols)
	for i := range m.Lo.Data {
		v := rng.Float64()
		m.Lo.Data[i] = v
		m.Hi.Data[i] = v + rng.Float64()*0.5
	}
	return m
}

func BenchmarkIntervalMatMulExact(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := benchIntervalMatrix(rng, 60, 80)
	y := benchIntervalMatrix(rng, 80, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imatrix.Mul(x, y)
	}
}

func BenchmarkIntervalMatMulEndpoints(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := benchIntervalMatrix(rng, 60, 80)
	y := benchIntervalMatrix(rng, 80, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imatrix.MulEndpoints(x, y)
	}
}

func BenchmarkSVD100x100(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := matrix.New(100, 100)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eig.SVD(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymEig200(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 200
	m := matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eig.SymEig(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkISVD(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	m := dataset.MustGenerateUniform(dataset.DefaultSynthetic(), rng)
	for _, method := range core.Methods() {
		b.Run(method.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Decompose(m, method, core.Options{Rank: 20, Target: core.TargetB}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHungarian(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 64
	score := make([][]float64, n)
	for i := range score {
		score[i] = make([]float64, n)
		for j := range score[i] {
			score[i][j] = rng.Float64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assign.SolveHungarian(score)
	}
}

// BenchmarkILSA512x20 aligns one endpoint factor pair of the update
// benchmarks' shape (n=512, rank 20): the r² column cosines plus the
// Hungarian assignment. BENCH_kernels.json holds its before/after row.
func BenchmarkILSA512x20(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	const n, r = 512, 20
	vlo, vhi := matrix.New(n, r), matrix.New(n, r)
	for i := range vlo.Data {
		vlo.Data[i] = rng.NormFloat64()
		vhi.Data[i] = vlo.Data[i] + 0.3*rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		align.ILSA(vlo, vhi, assign.Hungarian)
	}
}

// BenchmarkMatMulParallel measures the worker pool's effect on the dense
// matrix product at the paper's Table 2 scale (500x500): the serial
// sub-benchmark pins the pool to one worker, parallel uses every core.
// Results are bitwise identical between the two (see determinism_test.go).
func BenchmarkMatMulParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	n := 500
	x := matrix.New(n, n)
	y := matrix.New(n, n)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
		y.Data[i] = rng.NormFloat64()
	}
	for _, bench := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bench.name, func(b *testing.B) {
			parallel.SetWorkers(bench.workers)
			defer parallel.SetWorkers(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matrix.Mul(x, y)
			}
		})
	}
}

// BenchmarkIntervalMatMulParallel covers the endpoint interval product
// (Supplementary Algorithm 1) at the 500x500 Table 2 scale.
func BenchmarkIntervalMatMulParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	x := benchIntervalMatrix(rng, 500, 500)
	y := benchIntervalMatrix(rng, 500, 500)
	for _, bench := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bench.name, func(b *testing.B) {
			parallel.SetWorkers(bench.workers)
			defer parallel.SetWorkers(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				imatrix.MulEndpoints(x, y)
			}
		})
	}
}

// BenchmarkISVD4Parallel runs the full ISVD4 pipeline on the default
// synthetic config (250x400, the Fig. 6 instance) serially vs on the
// pool; the speedup comes from the Gram products, the sharded eigensolver
// sweeps, and the interval solve/recompute products.
func BenchmarkISVD4Parallel(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	m := dataset.MustGenerateUniform(dataset.DefaultSynthetic(), rng)
	for _, bench := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bench.name, func(b *testing.B) {
			parallel.SetWorkers(bench.workers)
			defer parallel.SetWorkers(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Decompose(m, core.ISVD4, core.Options{Rank: 20, Target: core.TargetB}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

// AblationAlgebra compares the paper's endpoint-product semantics against
// exact interval algebra inside ISVD4 under TargetA (interval factors),
// where the width difference shows: exact algebra is sound but inflates
// the factor intervals and loses most of the accuracy when spans are
// large.
func BenchmarkAblationAlgebra(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	cfg := dataset.DefaultSynthetic()
	cfg.Rows, cfg.Cols = 40, 60
	m := dataset.MustGenerateUniform(cfg, rng)
	for _, exact := range []bool{false, true} {
		name := "endpoint"
		if exact {
			name = "exact"
		}
		b.Run(name, func(b *testing.B) {
			var h, span float64
			for i := 0; i < b.N; i++ {
				d, err := core.Decompose(m, core.ISVD4, core.Options{
					Rank: 20, Target: core.TargetA, ExactAlgebra: exact,
				})
				if err != nil {
					b.Fatal(err)
				}
				h = d.Evaluate(m).HMean
				span = d.U.TotalSpan() / float64(d.U.Rows()*d.U.Cols())
			}
			b.ReportMetric(h, "H-mean")
			b.ReportMetric(span, "U-span")
		})
	}
}

// AblationAssign compares the three ILSA matching algorithms (Hungarian =
// the paper's optimal Problem 2, Greedy = Supplementary Algorithm 6,
// stable marriage = Problem 1) on decomposition accuracy and time.
func BenchmarkAblationAssign(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	m := dataset.MustGenerateUniform(dataset.DefaultSynthetic(), rng)
	for _, method := range []assign.Method{assign.Hungarian, assign.Greedy, assign.StableMarriage} {
		b.Run(method.String(), func(b *testing.B) {
			var h float64
			for i := 0; i < b.N; i++ {
				d, err := core.Decompose(m, core.ISVD4, core.Options{
					Rank: 20, Target: core.TargetB, Assign: method,
				})
				if err != nil {
					b.Fatal(err)
				}
				h = d.Evaluate(m).HMean
			}
			b.ReportMetric(h, "H-mean")
		})
	}
}

// AblationAlignment quantifies what ILSA itself buys: ISVD1 with
// alignment (normal) vs ISVD0 (no alignment possible) on cosine and
// H-mean, plus the K-means NMI with and without interval features.
func BenchmarkAblationAlignment(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	m := dataset.MustGenerateUniform(dataset.DefaultSynthetic(), rng)
	b.Run("ISVD1-aligned", func(b *testing.B) {
		var after float64
		for i := 0; i < b.N; i++ {
			d, err := core.Decompose(m, core.ISVD1, core.Options{Rank: 20, Target: core.TargetB})
			if err != nil {
				b.Fatal(err)
			}
			var s float64
			for _, c := range d.CosVAligned {
				s += c
			}
			after = s / float64(len(d.CosVAligned))
		}
		b.ReportMetric(after, "meanCos")
	})
	b.Run("unaligned", func(b *testing.B) {
		var before float64
		for i := 0; i < b.N; i++ {
			svdLo, err := eig.SVD(m.Lo)
			if err != nil {
				b.Fatal(err)
			}
			svdHi, err := eig.SVD(m.Hi)
			if err != nil {
				b.Fatal(err)
			}
			cs := align.ColumnCosines(svdLo.Truncate(20).V, svdHi.Truncate(20).V)
			var s float64
			for _, c := range cs {
				s += c
			}
			before = s / float64(len(cs))
		}
		b.ReportMetric(before, "meanCos")
	})
}

// BenchmarkRMSEPredict covers the CF prediction path end to end at a
// small scale.
func BenchmarkCFPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	rc := dataset.MovieLensLike().Scaled(0.05)
	data, err := dataset.GenerateRatings(rc, rng)
	if err != nil {
		b.Fatal(err)
	}
	iv := data.CFIntervals()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, err := ipmf.TrainAIPMF(iv, ipmf.Config{Rank: 8, Epochs: 40, LearningRate: 0.01}, rng)
		if err != nil {
			b.Fatal(err)
		}
		pred := make([]float64, len(data.Ratings))
		truth := make([]float64, len(data.Ratings))
		for k, r := range data.Ratings {
			pred[k] = model.Predict(r.User, r.Item)
			truth[k] = r.Value
		}
		b.ReportMetric(metrics.RMSE(pred, truth), "trainRMSE")
	}
}

// --- Blocked/fused kernel benchmarks ---

// reportGFLOPS attaches a GFLOP/s metric computed from the per-iteration
// flop count, so kernel regressions show up as a throughput number that
// is comparable across matrix sizes.
func reportGFLOPS(b *testing.B, flopsPerOp float64) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(flopsPerOp*float64(b.N)/s/1e9, "GFLOP/s")
	}
}

// BenchmarkKernelMul measures the cache-blocked dense product on one
// worker at the paper-relevant 256–1024² sizes (CI smoke runs one
// iteration of each; BENCH_kernels.json pins the committed baseline).
func BenchmarkKernelMul(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{256, 512, 1024} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			parallel.SetWorkers(1)
			defer parallel.SetWorkers(0)
			x := matrix.New(n, n)
			y := matrix.New(n, n)
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
				y.Data[i] = rng.NormFloat64()
			}
			dst := matrix.New(n, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matrix.MulInto(dst, x, y)
			}
			reportGFLOPS(b, 2*float64(n)*float64(n)*float64(n))
		})
	}
}

// BenchmarkKernelTMul covers the transpose product of the Gram step.
func BenchmarkKernelTMul(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	n := 512
	x := matrix.New(n, n)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	dst := matrix.New(n, n)
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matrix.TMulInto(dst, x, x)
	}
	reportGFLOPS(b, 2*float64(n)*float64(n)*float64(n))
}

// BenchmarkKernelMulT covers the a·bᵀ reconstruction product.
func BenchmarkKernelMulT(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	n := 512
	x := matrix.New(n, n)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	dst := matrix.New(n, n)
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matrix.MulTInto(dst, x, x)
	}
	reportGFLOPS(b, 2*float64(n)*float64(n)*float64(n))
}

// BenchmarkKernelMulEndpoints measures the fused Algorithm 1 endpoint
// product: four candidate products and the min/max combine in one pass,
// allocs/op shows the four matrix-sized temporaries are gone.
func BenchmarkKernelMulEndpoints(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{256, 512} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			parallel.SetWorkers(1)
			defer parallel.SetWorkers(0)
			x := benchIntervalMatrix(rng, n, n)
			y := benchIntervalMatrix(rng, n, n)
			dst := imatrix.New(n, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				imatrix.MulEndpointsInto(dst, x, y)
			}
			reportGFLOPS(b, 8*float64(n)*float64(n)*float64(n))
		})
	}
}

// BenchmarkKernelGramEndpoints measures the fused endpoint Gram kernel
// at the tall-thin shape of the ISVD Gram step.
func BenchmarkKernelGramEndpoints(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	m := benchIntervalMatrix(rng, 1024, 256)
	dst := imatrix.New(256, 256)
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imatrix.GramEndpointsInto(dst, m)
	}
	reportGFLOPS(b, 8*1024*256*256)
}

// BenchmarkNMFTrain pins the workspace-reuse win in the NMF
// multiplicative-update path (allocs/op is the headline: the update
// loop itself no longer allocates matrices).
func BenchmarkNMFTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	m := matrix.New(120, 90)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nmf.Train(m, nmf.Config{Rank: 10, Iterations: 60}, rand.New(rand.NewSource(26))); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sparse CSR benchmarks ---

// BenchmarkSGDSparse pins the headline property of the CSR training
// path: the ipmf epoch cost scales with the number of observed cells
// (NNZ), not with rows·cols. Every sub-benchmark trains on the SAME
// number of ratings (so ns/op should stay roughly flat) while the
// matrix area grows 16x — densities run from 4% down to 0.25%. The
// dense entry point at the same shape pays an additional O(rows·cols)
// for storage and compression, pinned by the matching Dense variants.
func BenchmarkSGDSparse(b *testing.B) {
	const nRatings = 4000
	cfg := ipmf.Config{Rank: 8, Epochs: 10, LearningRate: 0.01}
	for _, shape := range []struct {
		users, items int
	}{{250, 400}, {500, 800}, {1000, 1600}} {
		rc := dataset.RatingsConfig{
			Users: shape.users, Items: shape.items, Genres: 8,
			NumRatings: nRatings, LatentRank: 6, Alpha: 0.4,
		}
		data, err := dataset.GenerateRatings(rc, rand.New(rand.NewSource(31)))
		if err != nil {
			b.Fatal(err)
		}
		csr := data.CFIntervalsCSR()
		density := float64(csr.NNZ()) / float64(shape.users*shape.items)
		b.Run(fmt.Sprintf("CSR-%dx%d-density%.2f%%", shape.users, shape.items, 100*density), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ipmf.TrainAIPMFCSR(csr, cfg, rand.New(rand.NewSource(32))); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Dense-%dx%d-density%.2f%%", shape.users, shape.items, 100*density), func(b *testing.B) {
			dense := csr.ToIMatrix()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ipmf.TrainAIPMF(dense, cfg, rand.New(rand.NewSource(32))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCSRMulDense compares the CSR·Dense kernel against the dense
// product at 5% density (results are bitwise identical; see
// internal/sparse property tests).
func BenchmarkCSRMulDense(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	n := 600
	a := matrix.New(n, n)
	for i := range a.Data {
		if rng.Float64() < 0.05 {
			a.Data[i] = rng.NormFloat64()
		}
	}
	dense := matrix.New(n, 64)
	for i := range dense.Data {
		dense.Data[i] = rng.NormFloat64()
	}
	csr := sparse.FromDense(a)
	b.Run("CSR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparse.MulDense(csr, dense)
		}
	})
	b.Run("Dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matrix.Mul(a, dense)
		}
	})
}

// BenchmarkSparseGram covers the endpoint Gram product (the ISVD Gram
// step) from sparse storage at 5% density.
func BenchmarkSparseGram(b *testing.B) {
	rng := rand.New(rand.NewSource(34))
	m := imatrix.New(800, 120)
	for i := range m.Lo.Data {
		if rng.Float64() < 0.05 {
			v := rng.Float64()
			m.Lo.Data[i] = v
			m.Hi.Data[i] = v + 0.3*rng.Float64()
		}
	}
	csr := sparse.FromIMatrix(m)
	b.Run("CSR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparse.GramEndpoints(csr)
		}
	})
	b.Run("Dense", func(b *testing.B) {
		mt := m.T()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			imatrix.MulEndpoints(mt, m)
		}
	})
}
