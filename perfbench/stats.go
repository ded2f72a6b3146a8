package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-th percentile (0 < q ≤ 100) of xs
// and the number of samples it was taken over. Nearest rank, not
// interpolation: the value is always one that was measured, so a job list
// whose samples fall in separate clusters never reports a time between
// two clusters. An empty sample gives (0, 0).
func percentile(xs []float64, q float64) (v float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}
