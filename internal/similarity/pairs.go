package similarity

import (
	"math"

	"repro/internal/model"
	"repro/internal/par"
)

// PairCount returns the number of unordered pairs over n items: n(n-1)/2.
func PairCount(n int) int {
	return n * (n - 1) / 2
}

// pairRowStart returns the linear index of pair (i, i+1): the number of
// pairs in rows 0..i-1, each row r contributing n-1-r pairs.
func pairRowStart(n, i int) int {
	return i * (2*n - i - 1) / 2
}

// PairAt maps a linear pair index k in [0, PairCount(n)) to its (i, j)
// coordinates with i < j, enumerating row by row: (0,1), (0,2), ...,
// (0,n-1), (1,2), ... The mapping is the O(1) inverse of the classic
// nested upper-triangle loop — row i solves the triangular-number
// quadratic, with a float-rounding correction — so parallel workers can
// decode any index directly and still produce results in exactly the
// serial loop's order.
func PairAt(n, k int) (i, j int) {
	d := float64(2*n-1)*float64(2*n-1) - 8*float64(k)
	i = int((float64(2*n-1) - math.Sqrt(d)) / 2)
	if i < 0 {
		i = 0
	}
	for i+1 < n-1 && pairRowStart(n, i+1) <= k {
		i++
	}
	for i > 0 && pairRowStart(n, i) > k {
		i--
	}
	return i, i + 1 + k - pairRowStart(n, i)
}

// ScorePairs evaluates score(i, j) for every unordered pair over n items,
// fanning the pair space out across a GOMAXPROCS-sized pool. The result is
// indexed by the linear pair order of PairAt, so the output is
// byte-identical to the serial nested loop no matter how the work is
// scheduled. score must be safe for concurrent calls.
func ScorePairs(n int, score func(i, j int) float64) []float64 {
	return ScorePairsInto(nil, n, score)
}

// ScorePairsInto is ScorePairs into caller-provided storage: dst is resized
// to PairCount(n) (reallocating only when capacity is short) and returned.
// It exists so per-task audit loops can recycle the pair-score buffer
// through a pool instead of allocating one per task per pass.
func ScorePairsInto(dst []float64, n int, score func(i, j int) float64) []float64 {
	m := PairCount(n)
	out := dst
	if cap(out) < m {
		out = make([]float64, m)
	} else {
		out = out[:m]
	}
	par.For(m, 0, func(k int) {
		i, j := PairAt(n, k)
		out[k] = score(i, j)
	})
	return out
}

// ContributionPairScores computes ContributionSimilarity for every
// unordered pair of contributions in parallel, building each text profile
// once (see ContributionProfiles).
func ContributionPairScores(contribs []*model.Contribution) []float64 {
	return ScorePairs(len(contribs), NewContributionProfiles(contribs).Similarity)
}
