package similarity

import (
	"repro/internal/model"
	"repro/internal/par"
)

// ContributionSimilarity compares two contributions to the same task using
// the measure appropriate to their payload, per the paper's Axiom 3
// discussion: n-gram cosine similarity for text, nDCG-based similarity for
// ranked lists. Mixed payloads (one text, one ranking) compare as 0.
// When both payloads are empty the contributions are trivially identical.
func ContributionSimilarity(a, b *model.Contribution) float64 {
	if s, ok := payloadSimilarity(a, b); ok {
		return s
	}
	return TextSimilarity(a.Text, b.Text)
}

// payloadSimilarity scores the pairs whose payload kinds settle the score
// without a text profile: two rankings, a mixed pair, two empty texts. ok is
// false for two texts, which compare by n-gram profile.
func payloadSimilarity(a, b *model.Contribution) (s float64, ok bool) {
	aRanked := len(a.Ranking) > 0
	bRanked := len(b.Ranking) > 0
	switch {
	case aRanked && bRanked:
		// Symmetrise: nDCG is reference-directional, so average both ways.
		return (RankingSimilarity(a.Ranking, b.Ranking) + RankingSimilarity(b.Ranking, a.Ranking)) / 2, true
	case aRanked != bRanked:
		return 0, true
	case a.Text == "" && b.Text == "":
		return 1, true
	}
	return 0, false
}

// ContributionProfiles scores pairs of one contribution set with each text
// payload's n-gram profile built once: scoring all pairs of n contributions
// builds n profiles, where calling ContributionSimilarity per pair builds
// n(n−1). It holds no state beyond the call that built it.
type ContributionProfiles struct {
	cs    []*model.Contribution
	texts []*NGramProfile // nil for ranked payloads
}

// NewContributionProfiles builds the trigram profiles TextSimilarity
// compares, one per text payload of cs, on the bounded pool.
func NewContributionProfiles(cs []*model.Contribution) *ContributionProfiles {
	p := &ContributionProfiles{cs: cs, texts: make([]*NGramProfile, len(cs))}
	par.For(len(cs), 0, func(i int) {
		if len(cs[i].Ranking) == 0 {
			p.texts[i] = NewNGramProfile(cs[i].Text, 3)
		}
	})
	return p
}

// Similarity returns ContributionSimilarity(cs[i], cs[j]), bit for bit. Safe
// for concurrent calls.
func (p *ContributionProfiles) Similarity(i, j int) float64 {
	if s, ok := payloadSimilarity(p.cs[i], p.cs[j]); ok {
		return s
	}
	return p.texts[i].Similarity(p.texts[j])
}
