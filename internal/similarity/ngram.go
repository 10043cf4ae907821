package similarity

import (
	"math"
	"strings"
)

// NGramProfile is a frequency vector of character n-grams of a text, the
// language-independent representation of Damashek (Science, 1995) that the
// paper recommends for comparing textual contributions under Axiom 3.
type NGramProfile struct {
	n      int
	counts map[string]float64
	norm   float64
}

// NewNGramProfile builds the n-gram profile of text. Whitespace runs are
// collapsed to single spaces and the text is lowercased, following
// Damashek's preprocessing. n must be >= 1; it panics otherwise.
func NewNGramProfile(text string, n int) *NGramProfile {
	if n < 1 {
		panic("similarity: n-gram size must be >= 1")
	}
	normalised := strings.ToLower(strings.Join(strings.Fields(text), " "))
	p := &NGramProfile{n: n, counts: make(map[string]float64)}
	runes := []rune(normalised)
	if len(runes) < n {
		if len(runes) > 0 {
			p.counts[string(runes)]++
		}
	} else {
		for i := 0; i+n <= len(runes); i++ {
			p.counts[string(runes[i:i+n])]++
		}
	}
	var sq float64
	for _, c := range p.counts {
		sq += c * c
	}
	p.norm = math.Sqrt(sq)
	return p
}

// Similarity returns the cosine similarity between two profiles, in [0,1].
// Profiles of different n compare as 0; two empty texts compare as 1.
func (p *NGramProfile) Similarity(q *NGramProfile) float64 {
	if p.n != q.n {
		return 0
	}
	if p.norm == 0 && q.norm == 0 {
		return 1
	}
	if p.norm == 0 || q.norm == 0 {
		return 0
	}
	// Iterate the smaller map.
	a, b := p, q
	if len(b.counts) < len(a.counts) {
		a, b = b, a
	}
	var dot float64
	for g, ca := range a.counts {
		if cb, ok := b.counts[g]; ok {
			dot += ca * cb
		}
	}
	return dot / (p.norm * q.norm)
}

// TextSimilarity is a convenience wrapper: the n-gram cosine similarity of
// two texts with the conventional n=3 (trigram) profile.
func TextSimilarity(a, b string) float64 {
	return TextSimilarityN(a, b, 3)
}

// TextSimilarityN computes n-gram similarity with an explicit n.
func TextSimilarityN(a, b string, n int) float64 {
	return NewNGramProfile(a, n).Similarity(NewNGramProfile(b, n))
}
