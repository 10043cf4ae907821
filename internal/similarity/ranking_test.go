package similarity

import (
	"math"
	"testing"
)

func TestDCGKnownValue(t *testing.T) {
	// DCG([3,2,1]) = 3 + 2/log2(3) + 1/2.
	want := 3 + 2/math.Log2(3) + 0.5
	if got := DCG([]float64{3, 2, 1}); math.Abs(got-want) > 1e-9 {
		t.Errorf("DCG = %v, want %v", got, want)
	}
	if DCG(nil) != 0 {
		t.Error("empty DCG should be 0")
	}
}

func TestRankingSimilarityIdentical(t *testing.T) {
	r := []string{"a", "b", "c"}
	if got := RankingSimilarity(r, r); math.Abs(got-1) > 1e-9 {
		t.Errorf("identical rankings = %v, want 1", got)
	}
}

func TestRankingSimilarityEmpty(t *testing.T) {
	if RankingSimilarity(nil, nil) != 1 {
		t.Error("two empty rankings should be 1")
	}
	if got := RankingSimilarity(nil, []string{"a"}); got != 0 {
		t.Errorf("empty submission vs non-empty reference = %v, want 0", got)
	}
}

func TestRankingSimilarityTopWeighted(t *testing.T) {
	ref := []string{"a", "b", "c", "d"}
	topSwap := RankingSimilarity([]string{"b", "a", "c", "d"}, ref)
	botSwap := RankingSimilarity([]string{"a", "b", "d", "c"}, ref)
	if topSwap >= botSwap {
		t.Errorf("top swap (%v) should hurt more than bottom swap (%v)", topSwap, botSwap)
	}
}

func TestRankingSimilarityMissingItems(t *testing.T) {
	ref := []string{"a", "b", "c"}
	got := RankingSimilarity([]string{"x", "y", "z"}, ref)
	if got != 0 {
		t.Errorf("fully-foreign ranking = %v, want 0", got)
	}
	partial := RankingSimilarity([]string{"a", "x", "y"}, ref)
	if partial <= 0 || partial >= 1 {
		t.Errorf("partial ranking = %v, want in (0,1)", partial)
	}
}
