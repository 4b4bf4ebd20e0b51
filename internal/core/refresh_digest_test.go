package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/imatrix"
	"repro/internal/sparse"
)

// refreshDigestChain returns the fixed full-spectrum base and the six
// deltas of TestRefreshBudgetDigests: patches, a λ=0.9 forget, a row
// append, an unpatch and a row removal. Every update discards mass, so
// the refresh budget decides what each step does.
func refreshDigestChain() (*sparse.ICSR, []Delta) {
	rng := rand.New(rand.NewSource(131))
	m := imatrix.New(30, 22)
	for i := range m.Lo.Data {
		v := math.Abs(rng.NormFloat64())
		m.Lo.Data[i] = v
		m.Hi.Data[i] = v + 0.1
	}
	patch := func(cells int) []sparse.ITriplet {
		var p []sparse.ITriplet
		seen := map[[2]int]bool{}
		for len(p) < cells {
			r, c := rng.Intn(30), rng.Intn(22)
			if seen[[2]int{r, c}] {
				continue
			}
			seen[[2]int{r, c}] = true
			v := 3 * math.Abs(rng.NormFloat64())
			p = append(p, sparse.ITriplet{Row: r, Col: c, Lo: v, Hi: 1.3*v + 0.1})
		}
		return p
	}
	row := imatrix.New(1, 22)
	for j := 0; j < 22; j++ {
		v := math.Abs(rng.NormFloat64())
		row.Lo.Set(0, j, v)
		row.Hi.Set(0, j, v+0.2)
	}
	deltas := []Delta{
		{Patch: patch(6)},
		{Forget: 0.9, Patch: patch(4)},
		{AppendRows: sparse.FromIMatrix(row)},
		{Patch: patch(8)},
		{RemoveRows: []int{4}},
		{Unpatch: []sparse.Cell{{Row: 29, Col: 21}}, Patch: patch(5)},
	}
	return sparse.FromIMatrix(m), deltas
}

// chainDigest hashes the exact bits every step of an update chain
// publishes: the interval factors U, Σ, V, the accumulated residual
// and the escalation counters (FNV-64a).
func chainDigest(t *testing.T, d *Decomposition, deltas []Delta, opts Options) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for i, delta := range deltas {
		var err error
		if d, err = d.Update(delta, opts); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		for _, m := range []*imatrix.IMatrix{d.U, d.Sigma, d.V} {
			put(uint64(m.Rows()))
			put(uint64(m.Cols()))
			for _, block := range [][]float64{m.Lo.Data, m.Hi.Data} {
				for _, x := range block {
					put(math.Float64bits(x))
				}
			}
		}
		put(math.Float64bits(d.Health().ResidualBudgetUsed))
		hl := d.Health()
		put(uint64(hl.Updates))
		put(uint64(hl.Refreshes))
		put(uint64(hl.Redecomposes))
	}
	return h.Sum64()
}

// TestRefreshBudgetDigests pins the refresh budget's three regimes
// bitwise on 6-step chains: an infinite budget never refreshes, a
// negative one refreshes on every update, and zero is the 1% default.
// The digests were recorded under the retired refresh-policy names
// (never, always, auto), which these budgets replace exactly. The
// always and default digests were re-recorded when the warm refresh
// moved to eig.GramSVD: its fallback on this 30×22 rank-5 chain (not
// routed to the truncated solver) is now the SymEig of the 22×22 Gram
// instead of the Golub-Reinsch SVD. Every step's escalation counters
// stayed the same.
func TestRefreshBudgetDigests(t *testing.T) {
	policies := []struct {
		name string
		opts Options
	}{
		{"never", Options{RefreshBudget: math.Inf(1)}},
		{"always", Options{RefreshBudget: math.Inf(-1)}},
		{"default", Options{}},
	}
	want := map[string]uint64{
		"ISVD0/never":   0xa48fc5a6368be7cf,
		"ISVD0/always":  0xd1e03eeb91f0a6dd,
		"ISVD0/default": 0x9abe4e4a9573957e,
		"ISVD1/never":   0x00bf0ee0713f4fc1,
		"ISVD1/always":  0xe6389b3f3122b393,
		"ISVD1/default": 0x1585a869b7355aa9,
		"ISVD4/never":   0x2c5a102d8e5d0abd,
		"ISVD4/always":  0x82e52ff8495c0f29,
		"ISVD4/default": 0xfb1f11eb2322e43b,
	}
	sp, deltas := refreshDigestChain()
	for _, method := range []Method{ISVD0, ISVD1, ISVD4} {
		base, err := DecomposeSparse(sp, method, Options{Rank: 5, Target: TargetB, Updatable: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range policies {
			key := method.String() + "/" + p.name
			got := chainDigest(t, base, deltas, p.opts)
			if got != want[key] {
				t.Errorf("%s: digest %#x, want %#x", key, got, want[key])
			}
		}
	}
}
