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

func TestPearsonUncentered(t *testing.T) {
	xs := []float64{1, 0}
	ys := []float64{0, 1}
	if got := PearsonUncentered(xs, ys); !almostEqual(got, 0, 1e-12) {
		t.Fatalf("orthogonal cosine = %v, want 0", got)
	}
	if got := PearsonUncentered(xs, xs); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("self cosine = %v, want 1", got)
	}
	// Uncentered differs from centered when means are nonzero.
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 7}
	if almostEqual(PearsonUncentered(a, b), Pearson(a, b), 1e-9) {
		t.Fatal("uncentered should differ from centered here")
	}
}

func TestSpearmanMonotone(t *testing.T) {
	xs := []float64{1, 5, 10, 100}
	ys := []float64{1, 25, 1000, 1e6} // monotone but nonlinear
	if got := Spearman(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("monotone Spearman = %v, want 1", got)
	}
	rev := []float64{4, 3, 2, 1}
	if got := Spearman(xs, rev); !almostEqual(got, -1, 1e-12) {
		t.Fatalf("reversed Spearman = %v, want -1", got)
	}
}

func TestSpearmanTies(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	ys := []float64{1, 2, 2, 3}
	if got := Spearman(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("tied identical vectors = %v, want 1", got)
	}
}

func TestEuclidean(t *testing.T) {
	if got := Euclidean([]float64{0, 0}, []float64{3, 4}); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("Euclidean = %v, want 5", got)
	}
	// Missingness rescaling: distance over half the positions scales by sqrt(2).
	withMiss := Euclidean([]float64{0, Missing}, []float64{3, 0})
	if !almostEqual(withMiss, 3*math.Sqrt(2), 1e-12) {
		t.Fatalf("rescaled Euclidean = %v, want %v", withMiss, 3*math.Sqrt(2))
	}
	if !math.IsNaN(Euclidean([]float64{Missing}, []float64{1})) {
		t.Fatal("no pairs should be NaN")
	}
}

func TestManhattan(t *testing.T) {
	if got := Manhattan([]float64{0, 0}, []float64{3, 4}); !almostEqual(got, 7, 1e-12) {
		t.Fatalf("Manhattan = %v, want 7", got)
	}
}

func TestRanks(t *testing.T) {
	got := Ranks([]float64{10, 30, 20})
	want := []float64{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestRanksTies(t *testing.T) {
	got := Ranks([]float64{5, 5, 1, 9})
	// value 1 -> rank 1; two 5s share ranks 2,3 -> 2.5; 9 -> 4.
	want := []float64{2.5, 2.5, 1, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks with ties = %v, want %v", got, want)
		}
	}
}

func TestRanksMissing(t *testing.T) {
	got := Ranks([]float64{3, Missing, 1})
	if !math.IsNaN(got[1]) {
		t.Fatal("missing entry must have NaN rank")
	}
	if got[0] != 2 || got[2] != 1 {
		t.Fatalf("Ranks = %v", got)
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

// Property: Spearman depends only on ranks — applying any strictly
// increasing function leaves it unchanged.
func TestQuickSpearmanRankInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 12
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = r.NormFloat64()
		}
		cube := make([]float64, n)
		for i, v := range xs {
			cube[i] = v * v * v // strictly increasing
		}
		a, b := Spearman(xs, ys), Spearman(cube, ys)
		if math.IsNaN(a) {
			return math.IsNaN(b)
		}
		return almostEqual(a, b, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Euclidean distance satisfies the triangle inequality on
// fully-observed vectors.
func TestQuickEuclideanTriangle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 8
		a := make([]float64, n)
		b := make([]float64, n)
		c := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i], b[i], c[i] = r.NormFloat64(), r.NormFloat64(), r.NormFloat64()
		}
		return Euclidean(a, c) <= Euclidean(a, b)+Euclidean(b, c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
