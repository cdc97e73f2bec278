package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if got := Pearson(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("perfect positive correlation = %v, want 1", got)
	}
	neg := []float64{8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Fatalf("perfect negative correlation = %v, want -1", got)
	}
}

func TestPearsonKnownValue(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 1, 4, 3, 5}
	// Hand-computed: cov = 2.0 (n-1 basis irrelevant: ratio), r = 0.8.
	if got := Pearson(xs, ys); !almostEqual(got, 0.8, 1e-12) {
		t.Fatalf("Pearson = %v, want 0.8", got)
	}
}

func TestPearsonConstantVector(t *testing.T) {
	if !math.IsNaN(Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})) {
		t.Fatal("correlation with a constant vector should be NaN")
	}
}

func TestPearsonWithMissing(t *testing.T) {
	xs := []float64{1, Missing, 3, 4}
	ys := []float64{2, 99, 6, 8}
	// Missing position must be ignored; remaining pairs are colinear.
	if got := Pearson(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("Pearson with missing = %v, want 1", got)
	}
	if !math.IsNaN(Pearson([]float64{1, Missing}, []float64{Missing, 1})) {
		t.Fatal("no paired observations should yield NaN")
	}
}

func TestPearsonShortVectors(t *testing.T) {
	if !math.IsNaN(Pearson([]float64{1}, []float64{2})) {
		t.Fatal("single pair should be NaN")
	}
	if !math.IsNaN(Pearson(nil, nil)) {
		t.Fatal("empty should be NaN")
	}
}

func TestFisherZRoundTrip(t *testing.T) {
	for _, r := range []float64{-0.99, -0.5, 0, 0.3, 0.9, 0.999} {
		z := FisherZ(r)
		back := math.Tanh(z)
		if !almostEqual(back, r, 1e-6) {
			t.Fatalf("round trip %v -> %v -> %v", r, z, back)
		}
	}
	if math.IsInf(FisherZ(1), 0) || math.IsInf(FisherZ(-1), 0) {
		t.Fatal("FisherZ at ±1 must stay finite")
	}
	if !math.IsNaN(FisherZ(math.NaN())) {
		t.Fatal("FisherZ(NaN) should be NaN")
	}
}

func TestMeanPairwiseCorrelation(t *testing.T) {
	rows := [][]float64{
		{1, 2, 3, 4},
		{2, 4, 6, 8},
		{1, 2, 3, 4.1},
	}
	got := MeanPairwiseCorrelation(rows)
	if got < 0.99 {
		t.Fatalf("tight cluster mean correlation = %v, want ~1", got)
	}
	if !math.IsNaN(MeanPairwiseCorrelation([][]float64{{1, 2}})) {
		t.Fatal("single row should be NaN")
	}
}

// Property: Pearson is symmetric and bounded in [-1, 1].
func TestQuickPearsonSymmetricBounded(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m := int(n%30) + 3
		xs := make([]float64, m)
		ys := make([]float64, m)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = r.NormFloat64()
		}
		a := Pearson(xs, ys)
		b := Pearson(ys, xs)
		if math.IsNaN(a) {
			return math.IsNaN(b)
		}
		return almostEqual(a, b, 1e-12) && a >= -1 && a <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Pearson is invariant under positive affine transforms of either
// argument.
func TestQuickPearsonAffineInvariant(t *testing.T) {
	f := func(seed int64, scaleBits uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = r.NormFloat64()
		}
		scale := 0.5 + float64(scaleBits%100)/10 // strictly positive
		shift := r.NormFloat64() * 10
		xs2 := make([]float64, n)
		for i := range xs {
			xs2[i] = scale*xs[i] + shift
		}
		a, b := Pearson(xs, ys), Pearson(xs2, ys)
		if math.IsNaN(a) {
			return math.IsNaN(b)
		}
		return almostEqual(a, b, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
