// Package a exercises the poolshard analyzer.
package a

import "parallel"

type acc struct{ sum float64 }

var global float64

// bad collects the shared-state write shapes that break the disjoint
// row-range contract.
func bad(xs, dst []float64, m map[int]float64, p *float64) {
	total := 0.0
	var a acc
	parallel.For(len(xs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			total += xs[i]           // want `writes captured variable total`
			a.sum += xs[i]           // want `writes through captured a`
			m[i] = xs[i]             // want `writes captured map m`
			dst = append(dst, xs[i]) // want `writes captured variable dst` `appends to captured slice dst`
		}
	})
	parallel.ForWith(2, len(xs), 1, func(lo, hi int) {
		*p = xs[lo] // want `writes through captured p`
		global = 1  // want `writes captured variable global`
		total++     // want `writes captured variable total`
	})
	_ = total
}

// good writes only disjoint indexed ranges and closure-local state.
func good(xs, dst []float64) {
	n := len(xs)
	parallel.For(n, 1, func(lo, hi int) {
		scratch := [4]float64{} // closure-local: fine
		sum := 0.0
		for i := lo; i < hi; i++ {
			sum += xs[i]       // local accumulator: fine
			dst[i] = 2 * xs[i] // indexed write into captured slice: the intended pattern
			scratch[i%4] = xs[i]
		}
		dst[lo] = sum // still indexed: fine
	})
}

// doExempt shows the parallel.Do endpoint-pair idiom: one captured
// result slot per task function is the intended use and is not
// flagged.
func doExempt(xs []float64) (lo, hi float64) {
	parallel.Do(
		func() { lo = min(xs) },
		func() { hi = max(xs) },
	)
	return lo, hi
}

// notPool is the near-miss negative: an identical closure handed to an
// arbitrary runner is not under the pool contract.
func notPool(xs []float64) float64 {
	total := 0.0
	run(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			total += xs[i]
		}
	})
	return total
}

func run(fn func(lo, hi int)) { fn(0, 0) }

func min(xs []float64) float64 { return xs[0] }
func max(xs []float64) float64 { return xs[0] }
