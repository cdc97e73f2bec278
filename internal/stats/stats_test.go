package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 2, 3}, 2},
		{[]float64{1, Missing, 3}, 2},
		{[]float64{Missing}, math.NaN()},
		{nil, math.NaN()},
		{[]float64{-5, 5}, 0},
	}
	for i, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("case %d: Mean = %v, want %v", i, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 denominator: 32/7.
	if got := Variance(xs); !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if got := StdDev(xs); !almostEqual(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("StdDev = %v", got)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("Variance of single value should be NaN")
	}
	if !math.IsNaN(Variance([]float64{Missing, 1})) {
		t.Fatal("Variance of one observed value should be NaN")
	}
}

func TestVarianceSkipsMissing(t *testing.T) {
	with := []float64{1, Missing, 2, 3, Missing}
	without := []float64{1, 2, 3}
	if !almostEqual(Variance(with), Variance(without), 1e-12) {
		t.Fatalf("missing values must not affect variance: %v vs %v",
			Variance(with), Variance(without))
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("odd median = %v, want 3", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median = %v, want 2.5", got)
	}
	if got := Median([]float64{4, Missing, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median with missing = %v, want 2.5", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Fatal("Median(nil) should be NaN")
	}
}

func TestMedianDoesNotMutateInput(t *testing.T) {
	in := []float64{5, 1, 3}
	Median(in)
	if in[0] != 5 || in[1] != 1 || in[2] != 3 {
		t.Fatalf("Median mutated its input: %v", in)
	}
}

func TestZScores(t *testing.T) {
	xs := []float64{1, 2, 3, Missing}
	zs := ZScores(xs)
	if !math.IsNaN(zs[3]) {
		t.Fatal("missing entry should stay missing")
	}
	if !almostEqual(Mean(zs[:3]), 0, 1e-12) {
		t.Fatalf("z-scores should have zero mean, got %v", Mean(zs[:3]))
	}
	if !almostEqual(StdDev(zs[:3]), 1, 1e-12) {
		t.Fatalf("z-scores should have unit sd, got %v", StdDev(zs[:3]))
	}
}

func TestZScoresInto(t *testing.T) {
	xs := []float64{1, math.NaN(), 3, 5}
	dst := make([]float64, len(xs))
	ZScoresInto(dst, xs)
	want := ZScores(xs)
	for i := range want {
		if math.IsNaN(want[i]) != math.IsNaN(dst[i]) {
			t.Fatalf("missing mismatch at %d", i)
		}
		if !math.IsNaN(want[i]) && dst[i] != want[i] {
			t.Fatalf("ZScoresInto[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestZScoresFlatVector(t *testing.T) {
	zs := ZScores([]float64{5, 5, 5})
	for i, z := range zs {
		if z != 0 {
			t.Fatalf("flat vector z-score[%d] = %v, want 0", i, z)
		}
	}
}

func TestNormalize(t *testing.T) {
	xs := []float64{3, 4}
	norm := Normalize(xs)
	if !almostEqual(norm, 5, 1e-12) {
		t.Fatalf("norm = %v, want 5", norm)
	}
	if !almostEqual(xs[0], 0.6, 1e-12) || !almostEqual(xs[1], 0.8, 1e-12) {
		t.Fatalf("normalized = %v", xs)
	}
	zero := []float64{0, 0}
	if Normalize(zero) != 0 {
		t.Fatal("zero vector norm should be 0")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp misbehaves")
	}
	if !math.IsNaN(Clamp(math.NaN(), 0, 1)) {
		t.Fatal("Clamp(NaN) should stay NaN")
	}
}

// Property: the mean of a shuffled vector equals the mean of the original.
func TestQuickMeanPermutationInvariant(t *testing.T) {
	f := func(vals []float64, seed int64) bool {
		xs := make([]float64, 0, len(vals))
		for _, v := range vals {
			if !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
				xs = append(xs, v)
			}
		}
		ys := make([]float64, len(xs))
		copy(ys, xs)
		r := rand.New(rand.NewSource(seed))
		r.Shuffle(len(ys), func(i, j int) { ys[i], ys[j] = ys[j], ys[i] })
		return almostEqual(Mean(xs), Mean(ys), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: z-scoring twice is the same as z-scoring once (idempotence on
// already-standardized data).
func TestQuickZScoresIdempotent(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
				xs = append(xs, v)
			}
		}
		z1 := ZScores(xs)
		z2 := ZScores(z1)
		for i := range z1 {
			if !almostEqual(z1[i], z2[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Variance is non-negative whenever defined.
func TestQuickVarianceNonNegative(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsInf(v, 0) && math.Abs(v) < 1e8 {
				xs = append(xs, v)
			}
		}
		v := Variance(xs)
		return math.IsNaN(v) || v >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
