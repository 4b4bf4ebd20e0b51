package update

import (
	"testing"

	"repro/internal/matrix"
)

var gsSink *matrix.Dense

// BenchmarkGSCols384x120 times the column Gram-Schmidt of extendBasis on
// the cell-patch shape of an n=384 window: a 384×120 residual block.
func BenchmarkGSCols384x120(b *testing.B) {
	a := gsRand(1, 384, 120)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gsSink, _ = gsCols(a)
	}
}
