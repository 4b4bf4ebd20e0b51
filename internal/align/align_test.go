package align

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/assign"
	"repro/internal/matrix"
)

func TestCosine(t *testing.T) {
	if c := Cosine([]float64{1, 0}, []float64{0, 1}); c != 0 {
		t.Errorf("orthogonal cos = %g", c)
	}
	if c := Cosine([]float64{1, 1}, []float64{2, 2}); math.Abs(c-1) > 1e-12 {
		t.Errorf("parallel cos = %g", c)
	}
	if c := Cosine([]float64{1, 0}, []float64{-1, 0}); math.Abs(c+1) > 1e-12 {
		t.Errorf("anti-parallel cos = %g", c)
	}
	if c := Cosine([]float64{0, 0}, []float64{1, 2}); c != 0 {
		t.Errorf("zero vector cos = %g", c)
	}
}

func TestILSAIdentityWhenAligned(t *testing.T) {
	v := matrix.FromRows([][]float64{{1, 0}, {0, 1}})
	res := ILSA(v, v, assign.Hungarian)
	for j, i := range res.Perm {
		if i != j || res.Flip[j] {
			t.Fatalf("identical matrices misaligned: %+v", res)
		}
		if math.Abs(res.Cos[j]-1) > 1e-12 {
			t.Fatalf("cos[%d] = %g", j, res.Cos[j])
		}
	}
}

func TestILSADetectsSwap(t *testing.T) {
	vlo := matrix.FromRows([][]float64{{1, 0}, {0, 1}})
	// Vhi has the two basis vectors swapped.
	vhi := matrix.FromRows([][]float64{{0, 1}, {1, 0}})
	res := ILSA(vlo, vhi, assign.Hungarian)
	if res.Perm[0] != 1 || res.Perm[1] != 0 {
		t.Fatalf("swap not detected: %v", res.Perm)
	}
}

func TestILSADetectsFlip(t *testing.T) {
	vlo := matrix.FromRows([][]float64{{1, 0}, {0, 1}})
	vhi := matrix.FromRows([][]float64{{-1, 0}, {0, 1}})
	res := ILSA(vlo, vhi, assign.Hungarian)
	if !res.Flip[0] || res.Flip[1] {
		t.Fatalf("flip flags wrong: %v", res.Flip)
	}
}

func TestApply(t *testing.T) {
	vlo := matrix.FromRows([][]float64{{1, 0}, {0, 1}})
	// Columns swapped AND first (post-swap) direction inverted.
	vhi := matrix.FromRows([][]float64{{0, 1}, {-1, 0}})
	uhi := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	sig := matrix.Diag([]float64{5, 7})
	res := ILSA(vlo, vhi, assign.Hungarian)
	res.Apply(uhi, vhi, sig)
	// After alignment vhi should approximate vlo up to sign conventions.
	for j := 0; j < 2; j++ {
		c := math.Abs(Cosine(vhi.Col(j), vlo.Col(j)))
		if math.Abs(c-1) > 1e-12 {
			t.Fatalf("column %d not aligned after Apply: cos = %g", j, c)
		}
		// Signs made positive.
		if Cosine(vhi.Col(j), vlo.Col(j)) < 0 {
			t.Fatalf("column %d still anti-parallel", j)
		}
	}
	// Sigma diagonal permuted consistently (swap expected).
	if sig.At(0, 0) != 7 || sig.At(1, 1) != 5 {
		t.Fatalf("sigma not permuted: %v", sig.Diagonal())
	}
}

func TestApplyToDiag(t *testing.T) {
	res := Result{Perm: []int{2, 0, 1}}
	got := res.ApplyToDiag([]float64{10, 20, 30})
	want := []float64{30, 10, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

func TestColumnCosines(t *testing.T) {
	a := matrix.FromRows([][]float64{{1, 0}, {0, 1}})
	b := matrix.FromRows([][]float64{{-1, 1}, {0, 1}})
	cs := ColumnCosines(a, b)
	if math.Abs(cs[0]-1) > 1e-12 {
		t.Errorf("|cos| of anti-parallel = %g, want 1", cs[0])
	}
	want := 1 / math.Sqrt(2)
	if math.Abs(cs[1]-want) > 1e-12 {
		t.Errorf("cs[1] = %g, want %g", cs[1], want)
	}
}

// Property: after Apply, per-column |cos| equals the reported Cos and the
// mean alignment never decreases relative to the unaligned pairing.
func TestPropILSAImprovesAlignment(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		n, r := 4+rnd.Intn(6), 2+rnd.Intn(3)
		vlo := matrix.New(n, r)
		vhi := matrix.New(n, r)
		for i := range vlo.Data {
			vlo.Data[i] = rnd.NormFloat64()
			vhi.Data[i] = rnd.NormFloat64()
		}
		before := ColumnCosines(vlo, vhi)
		res := ILSA(vlo, vhi, assign.Hungarian)
		aligned := vhi.Clone()
		res.Apply(nil, aligned, nil)
		after := ColumnCosines(vlo, aligned)
		var sb, sa float64
		for j := range before {
			sb += before[j]
			sa += after[j]
			if math.Abs(after[j]-res.Cos[j]) > 1e-9 {
				return false
			}
			// Aligned columns must be non-negatively correlated.
			if Cosine(vlo.Col(j), aligned.Col(j)) < -1e-9 {
				return false
			}
		}
		return sa >= sb-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// ilsaByColumns is ILSA and ColumnCosines as first written: one Cosine
// per column pair over copied columns. It is the reference the row-sweep
// versions must match bit for bit.
func ilsaByColumns(vlo, vhi *matrix.Dense, method assign.Method) (Result, []float64) {
	r := vlo.Cols
	score := make([][]float64, r)
	for i := 0; i < r; i++ {
		score[i] = make([]float64, r)
		hi := vhi.Col(i)
		for j := 0; j < r; j++ {
			score[i][j] = math.Abs(Cosine(hi, vlo.Col(j)))
		}
	}
	perm := assign.Solve(score, method)
	flip := make([]bool, r)
	cos := make([]float64, r)
	for j := 0; j < r; j++ {
		c := Cosine(vlo.Col(j), vhi.Col(perm[j]))
		flip[j] = c < 0
		cos[j] = math.Abs(c)
	}
	unaligned := make([]float64, r)
	for j := range unaligned {
		unaligned[j] = math.Abs(Cosine(vlo.Col(j), vhi.Col(j)))
	}
	return Result{Perm: perm, Flip: flip, Cos: cos}, unaligned
}

// TestILSAMatchesColumnReference pins ILSA and ColumnCosines bitwise to
// the per-column-copy reference on 512×20 inputs shaped like an
// endpoint pair: vhi is vlo permuted, partly sign-flipped and perturbed,
// with one duplicated column (tied scores), one exact copy and one zero
// column (Cosine's zero-norm case).
func TestILSAMatchesColumnReference(t *testing.T) {
	const n, r = 512, 20
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vlo := matrix.New(n, r)
		for i := range vlo.Data {
			vlo.Data[i] = rng.NormFloat64()
		}
		vhi := matrix.New(n, r)
		perm := rng.Perm(r)
		for j, src := range perm {
			sign := 1.0
			if rng.Intn(2) == 0 {
				sign = -1
			}
			noise := 0.3 * rng.Float64()
			for i := 0; i < n; i++ {
				vhi.Set(i, j, sign*vlo.At(i, src)+noise*rng.NormFloat64())
			}
		}
		vhi.SetCol(int(seed)%r, vhi.Col((int(seed)+1)%r))
		vhi.SetCol((int(seed)+2)%r, vlo.Col((int(seed)+5)%r))
		vhi.SetCol((int(seed)+3)%r, make([]float64, n))
		for _, method := range []assign.Method{assign.Hungarian, assign.Greedy, assign.StableMarriage} {
			got := ILSA(vlo, vhi, method)
			want, wantCos := ilsaByColumns(vlo, vhi, method)
			for j := 0; j < r; j++ {
				if got.Perm[j] != want.Perm[j] || got.Flip[j] != want.Flip[j] ||
					math.Float64bits(got.Cos[j]) != math.Float64bits(want.Cos[j]) {
					t.Fatalf("seed %d method %v col %d: got (%d, %v, %x), want (%d, %v, %x)", seed, method, j,
						got.Perm[j], got.Flip[j], math.Float64bits(got.Cos[j]),
						want.Perm[j], want.Flip[j], math.Float64bits(want.Cos[j]))
				}
			}
			for j, c := range ColumnCosines(vlo, vhi) {
				if math.Float64bits(c) != math.Float64bits(wantCos[j]) {
					t.Fatalf("seed %d ColumnCosines[%d] = %x, want %x", seed, j, math.Float64bits(c), math.Float64bits(wantCos[j]))
				}
			}
		}
	}
}
