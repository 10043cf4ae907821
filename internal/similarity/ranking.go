package similarity

import "math"

// DCG returns the Discounted Cumulative Gain of a ranked list given
// per-position relevance gains (Järvelin & Kekäläinen, TOIS 2002):
//
//	DCG = gain[0] + Σ_{i>=1} gain[i] / log2(i+2)
//
// using the standard log2(rank+1) discount with 1-based ranks.
func DCG(gains []float64) float64 {
	var dcg float64
	for i, g := range gains {
		dcg += g / math.Log2(float64(i)+2)
	}
	return dcg
}

// RankingSimilarity compares a submitted ranked list against a reference
// ranking using nDCG: items earn graded relevance by their position in the
// reference (top item = |ref| ... last = 1, absent = 0), so agreement at the
// top of the list dominates — the property the paper wants when judging
// whether two ranked-list contributions deserve equal pay. The result is in
// [0,1]; identical rankings score 1.
func RankingSimilarity(submitted, reference []string) float64 {
	if len(submitted) == 0 {
		if len(reference) == 0 {
			return 1
		}
		return 0 // nothing submitted against a non-empty reference
	}
	rel := make(map[string]float64, len(reference))
	for i, item := range reference {
		rel[item] = float64(len(reference) - i)
	}
	gains := make([]float64, len(submitted))
	for i, item := range submitted {
		gains[i] = rel[item]
	}
	// Normalise against the ideal ordering of the reference gains over the
	// same list length, so missing high-relevance items are penalised.
	ideal := make([]float64, 0, len(reference))
	for i := range reference {
		ideal = append(ideal, float64(len(reference)-i))
	}
	if len(ideal) > len(submitted) {
		ideal = ideal[:len(submitted)]
	}
	idcg := DCG(ideal)
	if idcg == 0 {
		return 1
	}
	s := DCG(gains) / idcg
	if s > 1 {
		s = 1
	}
	return s
}
