package similarity

import (
	"fmt"
	"testing"

	"repro/internal/model"
)

func TestPairAtEnumeratesSerialOrder(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 20, 137, 1000} {
		k := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				gi, gj := PairAt(n, k)
				if gi != i || gj != j {
					t.Fatalf("n=%d: PairAt(%d) = (%d,%d), want (%d,%d)", n, k, gi, gj, i, j)
				}
				k++
			}
		}
		if k != PairCount(n) {
			t.Fatalf("n=%d: enumerated %d pairs, PairCount says %d", n, k, PairCount(n))
		}
	}
}

func TestPairAtBoundaryIndices(t *testing.T) {
	for _, n := range []int{2, 3, 5, 64, 1001} {
		i, j := PairAt(n, 0)
		if i != 0 || j != 1 {
			t.Fatalf("n=%d: PairAt(0) = (%d,%d), want (0,1)", n, i, j)
		}
		last := PairCount(n) - 1
		i, j = PairAt(n, last)
		if i != n-2 || j != n-1 {
			t.Fatalf("n=%d: PairAt(%d) = (%d,%d), want (%d,%d)", n, last, i, j, n-2, n-1)
		}
	}
}

func TestPairCountDegenerateSizes(t *testing.T) {
	for _, n := range []int{0, 1} {
		if c := PairCount(n); c != 0 {
			t.Fatalf("PairCount(%d) = %d, want 0", n, c)
		}
	}
	// pairRowStart must agree with PairCount at the row-0 boundary even for
	// degenerate sizes, since PairAt's correction loops rely on it.
	if s := pairRowStart(1, 0); s != 0 {
		t.Fatalf("pairRowStart(1, 0) = %d, want 0", s)
	}
}

func TestPairIndexInvertsPairAt(t *testing.T) {
	for _, n := range []int{2, 3, 7, 50} {
		for k := 0; k < PairCount(n); k++ {
			i, j := PairAt(n, k)
			if got := PairIndex(n, i, j); got != k {
				t.Fatalf("n=%d: PairIndex(%d,%d) = %d, want %d", n, i, j, got, k)
			}
		}
	}
}

func FuzzPairAtRoundTrip(f *testing.F) {
	f.Add(2, 0)
	f.Add(10, 44)
	f.Add(1000, 499499)
	f.Add(1<<16, 0)
	f.Fuzz(func(t *testing.T, n, k int) {
		if n < 2 || n > 1<<20 {
			return
		}
		total := PairCount(n)
		if k < 0 || k >= total {
			return
		}
		i, j := PairAt(n, k)
		if i < 0 || j <= i || j >= n {
			t.Fatalf("PairAt(%d, %d) = (%d,%d): out of range", n, k, i, j)
		}
		if got := PairIndex(n, i, j); got != k {
			t.Fatalf("PairIndex(%d, %d, %d) = %d, want %d", n, i, j, got, k)
		}
	})
}

func TestScorePairsMatchesSerialLoop(t *testing.T) {
	const n = 40
	score := func(i, j int) float64 { return float64(i*1000 + j) }
	got := ScorePairs(n, score)
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if got[k] != score(i, j) {
				t.Fatalf("pair %d (%d,%d): got %v want %v", k, i, j, got[k], score(i, j))
			}
			k++
		}
	}
}

func TestContributionPairScoresMatchesDirectCalls(t *testing.T) {
	var contribs []*model.Contribution
	for i := 0; i < 12; i++ {
		contribs = append(contribs, &model.Contribution{
			ID:   model.ContributionID(fmt.Sprintf("c%d", i)),
			Text: fmt.Sprintf("the quick brown fox number %d jumps", i%3),
		})
	}
	got := ContributionPairScores(contribs)
	k := 0
	for i := 0; i < len(contribs); i++ {
		for j := i + 1; j < len(contribs); j++ {
			want := ContributionSimilarity(contribs[i], contribs[j])
			if got[k] != want {
				t.Fatalf("pair (%d,%d): got %v want %v", i, j, got[k], want)
			}
			k++
		}
	}
}

// PairIndex is the inverse of PairAt: it maps coordinates (i, j) with
// 0 <= i < j < n back to the linear pair index k such that
// PairAt(n, k) == (i, j). It panics if the coordinates are out of range.
func PairIndex(n, i, j int) int {
	if i < 0 || j <= i || j >= n {
		panic("similarity: pair coordinates out of range")
	}
	return pairRowStart(n, i) + j - i - 1
}
