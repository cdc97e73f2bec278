package stats_test

import (
	"math"
	"math/rand"
	"testing"

	"forestview/internal/oracle"
	"forestview/internal/stats"
)

// TestLogChooseMatchesLgammaOracle: the table-based logChoose must agree
// with the oracle's per-call Lgamma triple bitwise (table entries are
// Lgamma values, so not even 1 ulp of slack is needed).
func TestLogChooseMatchesLgammaOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(20000) - 10 // include a few negatives
		k := rng.Intn(20000) - 10
		got, want := stats.LogChoose(n, k), oracle.LogChoose(n, k)
		if got != want && !(math.IsInf(got, -1) && math.IsInf(want, -1)) {
			t.Fatalf("logChoose(%d,%d) = %v, oracle %v", n, k, got, want)
		}
	}
}

// TestHypergeomTableMatchesLgammaOracle is the stats-level golden parity
// required by the enrichment kernel: on random 2×2 tables at gene-universe
// scale, the table-based upper tail and the oracle's Lgamma path agree to
// ≤ 1e-12 (in fact bitwise).
func TestHypergeomTableMatchesLgammaOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 2000; i++ {
		N := 1 + rng.Intn(6000)
		K := rng.Intn(N + 1)
		n := rng.Intn(N + 1)
		k := rng.Intn(n + 1)
		got := stats.HypergeomUpperTail(k, N, K, n)
		want := oracle.HypergeomUpperTail(k, N, K, n)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("upper tail (k=%d N=%d K=%d n=%d): table %v vs lgamma %v",
				k, N, K, n, got, want)
		}
		lp, lw := stats.HypergeomLogPMF(k, N, K, n), oracle.HypergeomLogPMF(k, N, K, n)
		if lp != lw && !(math.IsInf(lp, -1) && math.IsInf(lw, -1)) {
			t.Fatalf("log PMF (k=%d N=%d K=%d n=%d): table %v vs lgamma %v",
				k, N, K, n, lp, lw)
		}
	}
}
