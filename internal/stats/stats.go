package stats

import "sort"

// Gini returns the Gini coefficient of xs — the canonical inequality index
// used in the E1 experiment to quantify income disparity across workers.
// Values are clamped at 0 for negative inputs; the result is in [0, 1)
// where 0 is perfect equality. An empty or all-zero slice yields 0.
func Gini(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	for i, x := range xs {
		if x < 0 {
			x = 0
		}
		s[i] = x
	}
	sort.Float64s(s)
	n := float64(len(s))
	var cum, total float64
	for i, x := range s {
		cum += float64(i+1) * x
		total += x
	}
	if total == 0 {
		return 0
	}
	return (2*cum)/(n*total) - (n+1)/n
}
