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
// and adds with no per-call math.Lgamma. internal/oracle's
// HypergeomUpperTail is the per-call Lgamma path, the parity oracle and the
// benchmark baseline.

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

// FoldEnrichment returns the ratio of the observed annotation fraction in
// the selection to the background fraction: (k/n)/(K/N). NaN when any
// denominator is zero.
func FoldEnrichment(k, N, K, n int) float64 {
	if n == 0 || N == 0 || K == 0 {
		return math.NaN()
	}
	return (float64(k) / float64(n)) / (float64(K) / float64(N))
}
