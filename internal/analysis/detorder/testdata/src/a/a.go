// Package a exercises the detorder analyzer: nondeterminism sources
// are flagged only inside annotated functions, and malformed //ivmf:
// directives are flagged wherever they appear.
package a

import (
	"math/rand"
	"time"
)

// bad gathers every flagged nondeterminism source.
//
//ivmf:deterministic
func bad(m map[string]int, ch chan int) int {
	s := 0
	for k := range m { // want `range over map in deterministic function bad`
		s += m[k]
	}
	_ = time.Now()                   // want `time\.Now in deterministic function bad`
	d := time.Since(time.Unix(0, 0)) // want `time\.Since in deterministic function bad`
	_ = d
	s += rand.Int() // want `global rand\.Int in deterministic function bad`
	rand.Seed(42)   // want `global rand\.Seed in deterministic function bad`
	select {        // want `multi-case select in deterministic function bad`
	case v := <-ch:
		s += v
	default:
	}
	return s
}

// good shows the sanctioned idioms: an explicitly seeded generator,
// slice iteration, and a single-case (blocking) select.
//
//ivmf:deterministic
func good(xs []int, ch chan int) int {
	rng := rand.New(rand.NewSource(1))
	s := rng.Int()
	for i, v := range xs {
		s += i * v
	}
	select {
	case v := <-ch:
		s += v
	}
	return s
}

// unannotated is the near-miss negative: the same nondeterminism
// sources draw no diagnostics without the contract.
func unannotated(m map[string]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	s += rand.Int()
	_ = time.Now()
	return s
}

// Directive hygiene: malformed attempts are diagnostics, not silently
// disabled contracts.

//ivmf:deterministic because reasons // want `trailing text is not allowed`
func trailing(m map[int]int) {
	for range m { // no contract took effect above, so no range diagnostic
	}
}

// ivmf:deterministic // want `no space is allowed between // and ivmf:`
func spaced(m map[int]int) {
	for range m {
	}
}

/* ivmf:deterministic */ // want `ivmf directives must be line comments`
func blocky(m map[int]int) {
	for range m {
	}
}
