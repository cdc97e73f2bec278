package stats

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestLnFactorialMatchesLgamma pins every table entry to math.Lgamma —
// including entries created by growth well past the seed size.
func TestLnFactorialMatchesLgamma(t *testing.T) {
	for _, n := range []int{0, 1, 2, 10, 255, 256, 257, 1000, 5000, 60001} {
		want, _ := math.Lgamma(float64(n + 1))
		if got := LnFactorial(n); got != want {
			t.Fatalf("LnFactorial(%d) = %v, want %v", n, got, want)
		}
	}
	if !math.IsNaN(LnFactorial(-1)) {
		t.Fatal("LnFactorial(-1) should be NaN")
	}
}

// TestLnFactorialConcurrentGrowth hammers reads racing with growth; run
// with -race it proves the copy-on-grow publication is safe, and every
// caller still sees exact Lgamma values.
func TestLnFactorialConcurrentGrowth(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 2000; i++ {
				n := rng.Intn(30000)
				want, _ := math.Lgamma(float64(n + 1))
				if got := LnFactorial(n); got != want {
					t.Errorf("LnFactorial(%d) = %v, want %v", n, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestGrowLnFactorial(t *testing.T) {
	GrowLnFactorial(-5) // no-op, must not panic
	GrowLnFactorial(70000)
	tab := *lnFactTab.Load()
	if len(tab) < 70001 {
		t.Fatalf("table length %d after GrowLnFactorial(70000)", len(tab))
	}
}
