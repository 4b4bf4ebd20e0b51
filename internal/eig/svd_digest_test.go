package eig

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/matrix"
	"repro/internal/parallel"
)

// svdDigest hashes the exact bits of a decomposition: the shapes of U
// and V, then every float64 of U, S and V in storage order (FNV-64a).
func svdDigest(r *SVDResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, d := range []int{r.U.Rows, r.U.Cols, len(r.S), r.V.Rows, r.V.Cols} {
		put(uint64(d))
	}
	for _, block := range [][]float64{r.U.Data, r.S, r.V.Data} {
		for _, x := range block {
			put(math.Float64bits(x))
		}
	}
	return h.Sum64()
}

// ratingsLike returns a rows×cols matrix with ~density of its cells set
// to integer ratings 1..5 and the rest exactly zero, so whole rows and
// columns can be empty: the shape of a ratings endpoint handed to the
// dense SVD fallback.
func ratingsLike(rng *rand.Rand, rows, cols int, density float64) *matrix.Dense {
	m := matrix.New(rows, cols)
	for i := range m.Data {
		if rng.Float64() < density {
			m.Data[i] = float64(1 + rng.Intn(5))
		}
	}
	return m
}

// rankDeficient returns a rank-rho rows×cols product with the listed
// columns set exactly to zero.
func rankDeficient(rng *rand.Rand, rows, cols, rho int, zeroCols ...int) *matrix.Dense {
	m := matrix.Mul(randDense(rng, rows, rho), randDense(rng, rho, cols))
	for _, j := range zeroCols {
		for i := 0; i < rows; i++ {
			m.Set(i, j, 0)
		}
	}
	return m
}

// svdDigestCases is the fixed input table of TestSVDBitwiseDigests. Each
// generator draws from its own seeded source, so adding a case never
// shifts another case's input.
var svdDigestCases = []struct {
	name string
	gen  func() *matrix.Dense
	want uint64
}{
	{"wide-141x252", func() *matrix.Dense { return randDense(rand.New(rand.NewSource(1)), 141, 252) }, 0xd105c3911b486c61},
	{"tall-252x141", func() *matrix.Dense { return randDense(rand.New(rand.NewSource(2)), 252, 141) }, 0xaaa52b104ec6bffb},
	{"square-60x60", func() *matrix.Dense { return randDense(rand.New(rand.NewSource(3)), 60, 60) }, 0x84363687fd828157},
	{"tall-200x80", func() *matrix.Dense { return randDense(rand.New(rand.NewSource(4)), 200, 80) }, 0x610d014433faaae9},
	{"wide-80x200", func() *matrix.Dense { return randDense(rand.New(rand.NewSource(5)), 80, 200) }, 0x16dfedbc241f04fc},
	{"tall-64x3", func() *matrix.Dense { return randDense(rand.New(rand.NewSource(6)), 64, 3) }, 0x6cf047e7f0b3ef66},
	{"wide-3x64", func() *matrix.Dense { return randDense(rand.New(rand.NewSource(7)), 3, 64) }, 0xa067ef5b4f6aec29},
	{"1x1", func() *matrix.Dense { return matrix.FromRows([][]float64{{-2.5}}) }, 0xe68bafd2af9fa6e0},
	{"zero-7x5", func() *matrix.Dense { return matrix.New(7, 5) }, 0x3bcbf66d1b80b182},
	{"rankdef-zero-cols-90x40", func() *matrix.Dense {
		return rankDeficient(rand.New(rand.NewSource(8)), 90, 40, 6, 0, 17, 39)
	}, 0xe87bc089b5299bbf},
	{"rankdef-zero-cols-40x90", func() *matrix.Dense {
		return rankDeficient(rand.New(rand.NewSource(9)), 40, 90, 6, 3, 50, 89)
	}, 0x842cb59ff80d7c14},
	{"ratings-5pct-141x252", func() *matrix.Dense { return ratingsLike(rand.New(rand.NewSource(10)), 141, 252, 0.05) }, 0xbaed1c2c8fe8a9a9},
	{"ratings-5pct-252x141", func() *matrix.Dense { return ratingsLike(rand.New(rand.NewSource(11)), 252, 141, 0.05) }, 0x3841f10f2978b226},
}

// TestSVDBitwiseDigests pins the exact bits of SVD's U, S and V over a
// fixed table of tall, wide, square, rank-deficient and degenerate
// inputs, at one worker and at three. A restructuring of the
// Golub-Reinsch loops (storage layout, loop order, sharding) must leave
// every element's arithmetic unchanged; any drift shows here as a digest
// change. The digests assume no fused multiply-add, which Go emits on
// arm64/ppc64/s390x but not on amd64's default GOAMD64 level.
func TestSVDBitwiseDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are recorded for amd64 floating point; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	defer parallel.SetWorkers(0)
	for _, workers := range []int{1, 3} {
		parallel.SetWorkers(workers)
		for _, tc := range svdDigestCases {
			res, err := SVD(tc.gen())
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if got := svdDigest(res); got != tc.want {
				t.Errorf("workers=%d %s: digest %#016x, want %#016x", workers, tc.name, got, tc.want)
			}
		}
	}
}
