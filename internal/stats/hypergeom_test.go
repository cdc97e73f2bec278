package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestChooseSmall(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 2, 10}, {5, 0, 1}, {5, 5, 1}, {10, 3, 120}, {0, 0, 1},
		{5, 6, 0}, {5, -1, 0},
	}
	for _, c := range cases {
		if got := Choose(c.n, c.k); !almostEqual(got, c.want, 1e-6) {
			t.Errorf("Choose(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestChooseLargeStable(t *testing.T) {
	// C(1000, 500) is astronomically large; log version must stay finite.
	lc := logChoose(1000, 500)
	if math.IsInf(lc, 0) || math.IsNaN(lc) {
		t.Fatalf("logChoose(1000,500) = %v", lc)
	}
	// Known: log10 C(1000,500) ≈ 299.3; so ln ≈ 689.
	if lc < 600 || lc > 750 {
		t.Fatalf("logChoose(1000,500) = %v outside plausible range", lc)
	}
}

func TestHypergeomPMFKnown(t *testing.T) {
	// Urn: N=50, K=5 successes, draw n=10. P(X=1) = C(5,1)C(45,9)/C(50,10).
	want := Choose(5, 1) * Choose(45, 9) / Choose(50, 10)
	if got := HypergeomPMF(1, 50, 5, 10); !almostEqual(got, want, 1e-9) {
		t.Fatalf("PMF = %v, want %v", got, want)
	}
}

func TestHypergeomPMFSumsToOne(t *testing.T) {
	N, K, n := 40, 12, 9
	s := 0.0
	for k := 0; k <= n; k++ {
		s += HypergeomPMF(k, N, K, n)
	}
	if !almostEqual(s, 1, 1e-9) {
		t.Fatalf("PMF sums to %v, want 1", s)
	}
}

func TestHypergeomImpossible(t *testing.T) {
	if HypergeomPMF(6, 10, 5, 5) != 0 {
		t.Fatal("k > K must be impossible")
	}
	if HypergeomPMF(-1, 10, 5, 5) != 0 {
		t.Fatal("negative k must be impossible")
	}
	if HypergeomPMF(0, 10, 8, 5) != 0 {
		// n-k=5 > N-K=2: cannot draw 5 failures from 2.
		t.Fatal("too many failures must be impossible")
	}
}

func TestHypergeomUpperTail(t *testing.T) {
	// P(X >= 0) is always 1.
	if got := HypergeomUpperTail(0, 100, 10, 10); got != 1 {
		t.Fatalf("P(X>=0) = %v, want 1", got)
	}
	// Upper tail at k equals sum of PMF from k.
	N, K, n := 60, 15, 12
	k := 5
	want := 0.0
	for i := k; i <= n; i++ {
		want += HypergeomPMF(i, N, K, n)
	}
	if got := HypergeomUpperTail(k, N, K, n); !almostEqual(got, want, 1e-9) {
		t.Fatalf("upper tail = %v, want %v", got, want)
	}
	// Beyond the support the tail is 0.
	if got := HypergeomUpperTail(16, 60, 15, 12); got != 0 {
		t.Fatalf("beyond support = %v, want 0", got)
	}
}

func TestHypergeomLowerTail(t *testing.T) {
	N, K, n := 60, 15, 12
	k := 4
	want := 0.0
	for i := 0; i <= k; i++ {
		want += HypergeomPMF(i, N, K, n)
	}
	if got := HypergeomLowerTail(k, N, K, n); !almostEqual(got, want, 1e-9) {
		t.Fatalf("lower tail = %v, want %v", got, want)
	}
	if got := HypergeomLowerTail(-1, N, K, n); got != 0 {
		t.Fatalf("P(X<=-1) = %v, want 0", got)
	}
	if got := HypergeomLowerTail(n, N, K, n); got != 1 {
		t.Fatalf("P(X<=n) = %v, want 1", got)
	}
}

func TestHypergeomEnrichmentDirection(t *testing.T) {
	// Observing many successes must be less probable than observing few,
	// under a sparse-annotation null.
	pHigh := HypergeomUpperTail(8, 6000, 50, 20)
	pLow := HypergeomUpperTail(1, 6000, 50, 20)
	if pHigh >= pLow {
		t.Fatalf("p(k>=8)=%v should be << p(k>=1)=%v", pHigh, pLow)
	}
	if pHigh > 1e-8 {
		t.Fatalf("extreme enrichment p-value suspiciously large: %v", pHigh)
	}
}

func TestFoldEnrichment(t *testing.T) {
	// 10/20 selected vs 50/6000 background = 0.5 / 0.008333 = 60.
	if got := FoldEnrichment(10, 6000, 50, 20); !almostEqual(got, 60, 1e-9) {
		t.Fatalf("fold = %v, want 60", got)
	}
	if !math.IsNaN(FoldEnrichment(1, 0, 5, 5)) {
		t.Fatal("zero population should be NaN")
	}
}

// Property: upper and lower tails are complementary:
// P(X >= k) + P(X <= k-1) = 1.
func TestQuickHypergeomComplementary(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		N := int(a%80) + 20
		K := int(b) % (N + 1)
		n := int(c) % (N + 1)
		k := int(d) % (n + 1)
		up := HypergeomUpperTail(k, N, K, n)
		lo := HypergeomLowerTail(k-1, N, K, n)
		return almostEqual(up+lo, 1, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: PMF is symmetric in the roles of K and n.
func TestQuickHypergeomSymmetry(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		N := int(a%60) + 10
		K := int(b) % (N + 1)
		n := int(c) % (N + 1)
		k := int(d) % (min(K, n) + 1)
		p1 := HypergeomPMF(k, N, K, n)
		p2 := HypergeomPMF(k, N, n, K)
		return almostEqual(p1, p2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestBonferroni(t *testing.T) {
	ps := []float64{0.01, 0.2, Missing, 0.5}
	out := Bonferroni(ps)
	if !almostEqual(out[0], 0.04, 1e-12) {
		t.Fatalf("Bonferroni[0] = %v, want 0.04", out[0])
	}
	if !almostEqual(out[1], 0.8, 1e-12) {
		t.Fatalf("Bonferroni[1] = %v, want 0.8", out[1])
	}
	if !math.IsNaN(out[2]) {
		t.Fatal("NaN should propagate")
	}
	if out[3] != 1 {
		t.Fatalf("Bonferroni[3] = %v, want clamped 1", out[3])
	}
}

func TestBenjaminiHochberg(t *testing.T) {
	ps := []float64{0.01, 0.04, 0.03, 0.005}
	q := BenjaminiHochberg(ps)
	// Sorted: 0.005(1), 0.01(2), 0.03(3), 0.04(4); m=4.
	// raw q: 0.02, 0.02, 0.04, 0.04; monotone from top: same.
	want := []float64{0.02, 0.04, 0.04, 0.02}
	for i := range want {
		if !almostEqual(q[i], want[i], 1e-12) {
			t.Fatalf("BH = %v, want %v", q, want)
		}
	}
}

func TestBenjaminiHochbergMonotone(t *testing.T) {
	ps := []float64{0.001, 0.002, 0.9, 0.04, 0.03}
	q := BenjaminiHochberg(ps)
	// Adjusted values must respect the ordering of raw p-values.
	type pair struct{ p, q float64 }
	var pairs []pair
	for i := range ps {
		pairs = append(pairs, pair{ps[i], q[i]})
	}
	for i := range pairs {
		for j := range pairs {
			if pairs[i].p < pairs[j].p && pairs[i].q > pairs[j].q+1e-12 {
				t.Fatalf("BH not monotone: p=%v q=%v vs p=%v q=%v",
					pairs[i].p, pairs[i].q, pairs[j].p, pairs[j].q)
			}
		}
	}
}

func TestCorrectionsEmpty(t *testing.T) {
	if len(Bonferroni(nil)) != 0 || len(BenjaminiHochberg(nil)) != 0 {
		t.Fatal("empty input should yield empty output")
	}
	allNaN := []float64{Missing, Missing}
	q := BenjaminiHochberg(allNaN)
	if !math.IsNaN(q[0]) || !math.IsNaN(q[1]) {
		t.Fatal("all-NaN input should stay NaN")
	}
}

// Property: BH is never more conservative than Bonferroni.
func TestQuickCorrectionOrdering(t *testing.T) {
	f := func(raw []float64) bool {
		ps := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				// Map arbitrary floats into (0,1].
				p := math.Abs(v)
				p -= math.Floor(p)
				if p == 0 {
					p = 0.5
				}
				ps = append(ps, p)
			}
		}
		bon := Bonferroni(ps)
		bh := BenjaminiHochberg(ps)
		for i := range ps {
			if bh[i] > bon[i]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Choose, HypergeomPMF and HypergeomLowerTail are the references the
// upper tail is checked against here; no binary calls them.

// Choose returns the binomial coefficient C(n, k) as a float64. Values
// overflow to +Inf gracefully for very large arguments.
func Choose(n, k int) float64 {
	lc := logChoose(n, k)
	if math.IsInf(lc, -1) {
		return 0
	}
	return math.Exp(lc)
}

// HypergeomPMF returns P(X = k) where X follows a hypergeometric
// distribution with population size N, K successes in the population, and n
// draws. Zero is returned for impossible k.
func HypergeomPMF(k, N, K, n int) float64 {
	lp := HypergeomLogPMF(k, N, K, n)
	if math.IsInf(lp, -1) {
		return 0
	}
	return math.Exp(lp)
}

// HypergeomLowerTail returns P(X <= k), the depletion p-value.
func HypergeomLowerTail(k, N, K, n int) float64 {
	if k < 0 {
		return 0
	}
	lo := 0
	if n-(N-K) > lo {
		lo = n - (N - K)
	}
	if k < lo {
		// Fewer successes than the draw forces are impossible.
		return 0
	}
	if k >= min(n, K) {
		return 1
	}
	maxLog := math.Inf(-1)
	logs := make([]float64, 0, k-lo+1)
	for i := lo; i <= k; i++ {
		lp := HypergeomLogPMF(i, N, K, n)
		if math.IsInf(lp, -1) {
			continue
		}
		logs = append(logs, lp)
		if lp > maxLog {
			maxLog = lp
		}
	}
	if len(logs) == 0 {
		return 0
	}
	s := 0.0
	for _, lp := range logs {
		s += math.Exp(lp - maxLog)
	}
	return Clamp(math.Exp(maxLog)*s, 0, 1)
}
