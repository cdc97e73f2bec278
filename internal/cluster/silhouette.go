package cluster

import "math"

// Silhouette returns the mean silhouette coefficient of a flat clustering
// under Pearson distance — the cluster-quality score used by the ablation
// benchmarks. Values near 1 indicate tight, well-separated clusters.
func Silhouette(rows [][]float64, assign []int) float64 {
	n := len(rows)
	if n != len(assign) || n < 2 {
		return math.NaN()
	}
	// Precompute cluster membership lists.
	clusters := make(map[int][]int)
	for i, c := range assign {
		clusters[c] = append(clusters[c], i)
	}
	if len(clusters) < 2 {
		return math.NaN()
	}
	total, cnt := 0.0, 0
	for i := 0; i < n; i++ {
		own := clusters[assign[i]]
		if len(own) <= 1 {
			continue // silhouette undefined for singletons
		}
		a := 0.0
		for _, j := range own {
			if j != i {
				a += distance(rows[i], rows[j])
			}
		}
		a /= float64(len(own) - 1)
		b := math.Inf(1)
		for c, members := range clusters {
			if c == assign[i] {
				continue
			}
			s := 0.0
			for _, j := range members {
				s += distance(rows[i], rows[j])
			}
			s /= float64(len(members))
			if s < b {
				b = s
			}
		}
		den := math.Max(a, b)
		if den > 0 {
			total += (b - a) / den
			cnt++
		}
	}
	if cnt == 0 {
		return math.NaN()
	}
	return total / float64(cnt)
}
