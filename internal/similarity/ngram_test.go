package similarity

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNGramIdenticalTexts(t *testing.T) {
	if got := TextSimilarity("the quick brown fox", "the quick brown fox"); math.Abs(got-1) > 1e-9 {
		t.Errorf("identical texts = %v, want 1", got)
	}
}

func TestNGramCaseAndWhitespaceInsensitive(t *testing.T) {
	a := "The  Quick\tBrown   Fox"
	b := "the quick brown fox"
	if got := TextSimilarity(a, b); math.Abs(got-1) > 1e-9 {
		t.Errorf("normalised texts = %v, want 1", got)
	}
}

func TestNGramDisjointTexts(t *testing.T) {
	if got := TextSimilarity("aaaaaaa", "zzzzzzz"); got != 0 {
		t.Errorf("disjoint texts = %v, want 0", got)
	}
}

func TestNGramSimilarTexts(t *testing.T) {
	a := "the quick brown fox jumps over the lazy dog"
	b := "the quick brown fox jumps over the lazy cat"
	got := TextSimilarity(a, b)
	if got <= 0.7 || got >= 1 {
		t.Errorf("near-identical texts = %v, want in (0.7, 1)", got)
	}
}

func TestNGramEmptyTexts(t *testing.T) {
	if TextSimilarity("", "") != 1 {
		t.Error("two empty texts should be identical")
	}
	if TextSimilarity("", "hello") != 0 {
		t.Error("empty vs non-empty should be 0")
	}
}

func TestNGramShortText(t *testing.T) {
	// Texts shorter than n fall back to one whole-text gram.
	if TextSimilarity("ab", "ab") != 1 {
		t.Error("short identical texts should be 1")
	}
	if TextSimilarity("ab", "cd") != 0 {
		t.Error("short distinct texts should be 0")
	}
}

func TestNGramUnicode(t *testing.T) {
	if got := TextSimilarity("日本語のテキスト", "日本語のテキスト"); math.Abs(got-1) > 1e-9 {
		t.Errorf("unicode identical = %v", got)
	}
}

func TestNGramDifferentN(t *testing.T) {
	p2 := NewNGramProfile("hello world", 2)
	p3 := NewNGramProfile("hello world", 3)
	if p2.Similarity(p3) != 0 {
		t.Error("different n should compare as 0")
	}
}

func TestNGramPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("n=0 did not panic")
		}
	}()
	NewNGramProfile("x", 0)
}

func TestNGramGrams(t *testing.T) {
	p := NewNGramProfile("abcd", 3) // "abc", "bcd"
	if p.Grams() != 2 {
		t.Fatalf("grams = %d, want 2", p.Grams())
	}
}

func TestNGramProperties(t *testing.T) {
	f := func(a, b string) bool {
		// Bound input sizes to keep the property fast.
		if len(a) > 200 {
			a = a[:200]
		}
		if len(b) > 200 {
			b = b[:200]
		}
		ab := TextSimilarity(a, b)
		ba := TextSimilarity(b, a)
		if math.Abs(ab-ba) > 1e-12 {
			return false
		}
		if ab < 0 || ab > 1+1e-12 {
			return false
		}
		return math.Abs(TextSimilarity(a, a)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNGramRepetitionInsensitive(t *testing.T) {
	// Damashek profiles are frequency-weighted: heavy repetition still
	// yields high similarity to the single occurrence.
	a := "spam"
	b := strings.Repeat("spam ", 50)
	if got := TextSimilarity(a, b); got < 0.5 {
		t.Errorf("repeated text similarity = %v, want >= 0.5", got)
	}
}

// Grams returns the number of distinct n-grams in the profile.
func (p *NGramProfile) Grams() int { return len(p.counts) }
