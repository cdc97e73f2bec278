package stats

import "math"

// The hypergeometric distribution underlies GOLEM's enrichment analysis:
// drawing n genes (the selected cluster) from a population of N genes of
// which K are annotated to some GO term, what is the probability of seeing
// at least k annotated genes in the draw? All computation is performed in
// log space so populations of tens of thousands of genes (and the
// quarter-billion-measurement compendia the paper cites) remain numerically
// stable. Log-factorials come from the shared table in lnfact.go — the
// universe size is fixed per enrichment context, so a p-value is lookups
// and adds with no per-call math.Lgamma. The pre-table Lgamma path is
// retained below (lgammaLogChoose, HypergeomUpperTailLgamma) as the parity
// oracle and the in-binary benchmark baseline.

// logChoose returns log(C(n, k)) or -Inf for impossible combinations.
func logChoose(n, k int) float64 {
	if k < 0 || k > n || n < 0 {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	return LnFactorial(n) - LnFactorial(k) - LnFactorial(n-k)
}

// lgammaLogChoose is the pre-table logChoose: three math.Lgamma calls per
// coefficient. Retained as the golden oracle the table path is tested
// against; table entries are themselves Lgamma values, so the two agree
// bitwise.
func lgammaLogChoose(n, k int) float64 {
	if k < 0 || k > n || n < 0 {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	ln1, _ := math.Lgamma(float64(n + 1))
	lk1, _ := math.Lgamma(float64(k + 1))
	lnk1, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - lk1 - lnk1
}

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

// HypergeomLogPMF returns log P(X = k), or -Inf for impossible k.
func HypergeomLogPMF(k, N, K, n int) float64 {
	if N < 0 || K < 0 || K > N || n < 0 || n > N {
		return math.Inf(-1)
	}
	if k < 0 || k > n || k > K || n-k > N-K {
		return math.Inf(-1)
	}
	return logChoose(K, k) + logChoose(N-K, n-k) - logChoose(N, n)
}

// HypergeomUpperTail returns P(X >= k): the enrichment p-value of observing
// k or more annotated genes in the selection. The sum runs over the short
// upper tail, accumulating PMF terms in linear space after factoring out
// the largest log term for stability.
func HypergeomUpperTail(k, N, K, n int) float64 {
	if k <= 0 {
		return 1
	}
	hi := n
	if K < hi {
		hi = K
	}
	if k > hi {
		return 0
	}
	// Collect log-PMFs of the tail and sum with the log-sum-exp trick.
	maxLog := math.Inf(-1)
	logs := make([]float64, 0, hi-k+1)
	for i := k; i <= hi; i++ {
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
	p := math.Exp(maxLog) * s
	return Clamp(p, 0, 1)
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

// lgammaHypergeomLogPMF is HypergeomLogPMF on the retained Lgamma path.
func lgammaHypergeomLogPMF(k, N, K, n int) float64 {
	if N < 0 || K < 0 || K > N || n < 0 || n > N {
		return math.Inf(-1)
	}
	if k < 0 || k > n || k > K || n-k > N-K {
		return math.Inf(-1)
	}
	return lgammaLogChoose(K, k) + lgammaLogChoose(N-K, n-k) - lgammaLogChoose(N, n)
}

// HypergeomUpperTailLgamma is the pre-table HypergeomUpperTail: identical
// tail summation, per-call math.Lgamma coefficients. golem.ReferenceAnalyze
// scores with it so the retained enrichment path is end-to-end the old
// code, and BenchmarkF4_EnrichReference measures the old cost.
func HypergeomUpperTailLgamma(k, N, K, n int) float64 {
	if k <= 0 {
		return 1
	}
	hi := n
	if K < hi {
		hi = K
	}
	if k > hi {
		return 0
	}
	maxLog := math.Inf(-1)
	logs := make([]float64, 0, hi-k+1)
	for i := k; i <= hi; i++ {
		lp := lgammaHypergeomLogPMF(i, N, K, n)
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

// FoldEnrichment returns the ratio of the observed annotation fraction in
// the selection to the background fraction: (k/n)/(K/N). NaN when any
// denominator is zero.
func FoldEnrichment(k, N, K, n int) float64 {
	if n == 0 || N == 0 || K == 0 {
		return math.NaN()
	}
	return (float64(k) / float64(n)) / (float64(K) / float64(N))
}
