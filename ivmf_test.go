package ivmf_test

import (
	"math/rand"
	"testing"

	ivmf "repro"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := ivmf.NewIntervalMatrix(12, 9)
	for i := 0; i < 12; i++ {
		for j := 0; j < 9; j++ {
			v := rng.Float64() + 0.1
			m.Set(i, j, ivmf.Interval{Lo: v, Hi: v + 0.3*rng.Float64()})
		}
	}
	for _, method := range ivmf.Methods() {
		for _, target := range ivmf.Targets() {
			d, err := ivmf.Decompose(m, method, ivmf.Options{Rank: 4, Target: target})
			if err != nil {
				t.Fatalf("%v-%v: %v", method, target, err)
			}
			acc := d.Evaluate(m)
			if acc.HMean <= 0 || acc.HMean > 1 {
				t.Errorf("%v-%v: H-mean %g out of range", method, target, acc.HMean)
			}
		}
	}
}

func TestPublicAPIScalarLift(t *testing.T) {
	s := ivmf.NewMatrix(4, 3)
	for i := range s.Data {
		s.Data[i] = float64(i + 1)
	}
	m := ivmf.FromScalarMatrix(s)
	d, err := ivmf.Decompose(m, ivmf.ISVD4, ivmf.Options{Target: ivmf.TargetB})
	if err != nil {
		t.Fatal(err)
	}
	if acc := d.Evaluate(m); acc.HMean < 1-1e-9 {
		t.Fatalf("scalar full-rank H-mean = %v", acc.HMean)
	}
}

func TestPublicAPIPMF(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := ivmf.NewMatrix(15, 10)
	for i := range m.Data {
		if rng.Float64() < 0.7 {
			m.Data[i] = float64(1 + rng.Intn(5))
		}
	}
	model, err := ivmf.TrainPMF(m, ivmf.PMFConfig{Rank: 3, Epochs: 20}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p := model.Predict(0, 0); p != p {
		t.Fatal("NaN prediction")
	}
	im := ivmf.FromScalarMatrix(m)
	am, err := ivmf.TrainAIPMF(im, ivmf.PMFConfig{Rank: 3, Epochs: 20}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := am.PredictInterval(0, 0); lo > hi {
		t.Fatal("misordered interval prediction")
	}
}

func TestPublicAPINMF(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := ivmf.NewMatrix(8, 6)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	model, err := ivmf.TrainNMF(m, ivmf.NMFConfig{Rank: 3, Iterations: 50}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if model.Reconstruct().Rows != 8 {
		t.Fatal("bad reconstruction shape")
	}
	im, err := ivmf.TrainINMF(ivmf.FromScalarMatrix(m), ivmf.NMFConfig{Rank: 3, Iterations: 50}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !im.Reconstruct().IsWellFormed() {
		t.Fatal("I-NMF reconstruction misordered")
	}
}

func TestPublicAPILP(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := ivmf.NewIntervalMatrix(8, 5)
	for i := 0; i < 8; i++ {
		for j := 0; j < 5; j++ {
			v := rng.Float64() + 0.5
			m.Set(i, j, ivmf.Interval{Lo: v, Hi: v + 1e-4})
		}
	}
	d, err := ivmf.DecomposeLP(m, ivmf.LPOptions{Rank: 3, Target: ivmf.TargetB})
	if err != nil {
		t.Fatal(err)
	}
	if acc := d.Evaluate(m); acc.HMean < 0.8 {
		t.Fatalf("tiny-interval LP H-mean = %v", acc.HMean)
	}
}

func TestPublicAccuracyHelper(t *testing.T) {
	m := ivmf.NewIntervalMatrix(2, 2)
	m.Set(0, 0, ivmf.Interval{Lo: 1, Hi: 2})
	if acc := ivmf.Accuracy(m, m.Clone()); acc.HMean != 1 {
		t.Fatalf("self accuracy = %v", acc.HMean)
	}
}

func TestPublicAPIRecommender(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := ivmf.NewIntervalMatrix(15, 6)
	for i := 0; i < 15; i++ {
		for j := 0; j < 6; j++ {
			if rng.Float64() < 0.6 {
				v := float64(1 + rng.Intn(5))
				m.Set(i, j, ivmf.Interval{Lo: v, Hi: v})
			}
		}
	}
	rec, err := ivmf.NewRecommender(m, ivmf.ISVD4, ivmf.Options{Rank: 3, Target: ivmf.TargetB}, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	top, err := rec.TopN(0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Fatalf("TopN = %v", top)
	}
	cov, err := rec.CoverageRate([]ivmf.RecommendHoldout{{Row: 0, Col: 0, Value: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if cov < 0 || cov > 1 {
		t.Fatalf("coverage %v", cov)
	}
}

func TestPublicAPIValidateInput(t *testing.T) {
	m := ivmf.NewIntervalMatrix(2, 2)
	if err := ivmf.ValidateInput(m); err != nil {
		t.Fatal(err)
	}
	m.Lo.Set(0, 0, 2)
	m.Hi.Set(0, 0, 1)
	if err := ivmf.ValidateInput(m); err == nil {
		t.Fatal("misordered accepted")
	}
}

func TestPublicAPIParsers(t *testing.T) {
	if m, err := ivmf.ParseMethod("isvd4"); err != nil || m != ivmf.ISVD4 {
		t.Errorf("ParseMethod(isvd4) = %v, %v", m, err)
	}
	if tg, err := ivmf.ParseTarget("B"); err != nil || tg != ivmf.TargetB {
		t.Errorf("ParseTarget(B) = %v, %v", tg, err)
	}
	if _, err := ivmf.ParseMethod("ISVD9"); err == nil {
		t.Error("ParseMethod accepted ISVD9")
	}
	if _, err := ivmf.ParseTarget("z"); err == nil {
		t.Error("ParseTarget accepted z")
	}
}
