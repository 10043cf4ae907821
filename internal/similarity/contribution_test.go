package similarity

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
)

func TestContributionSimilarityText(t *testing.T) {
	a := &model.Contribution{ID: "a", Text: "the quick brown fox"}
	b := &model.Contribution{ID: "b", Text: "the quick brown fox"}
	if got := ContributionSimilarity(a, b); math.Abs(got-1) > 1e-9 {
		t.Errorf("identical text = %v, want 1", got)
	}
	c := &model.Contribution{ID: "c", Text: "zzzzzz qqqqqq"}
	if got := ContributionSimilarity(a, c); got > 0.1 {
		t.Errorf("unrelated text = %v, want ~0", got)
	}
}

func TestContributionSimilarityRanking(t *testing.T) {
	a := &model.Contribution{ID: "a", Ranking: []string{"x", "y", "z"}}
	b := &model.Contribution{ID: "b", Ranking: []string{"x", "y", "z"}}
	if got := ContributionSimilarity(a, b); math.Abs(got-1) > 1e-9 {
		t.Errorf("identical ranking = %v, want 1", got)
	}
	c := &model.Contribution{ID: "c", Ranking: []string{"z", "y", "x"}}
	mid := ContributionSimilarity(a, c)
	if mid <= 0 || mid >= 1 {
		t.Errorf("reversed ranking = %v, want in (0,1)", mid)
	}
}

func TestContributionSimilaritySymmetricRanking(t *testing.T) {
	a := &model.Contribution{ID: "a", Ranking: []string{"x", "y"}}
	b := &model.Contribution{ID: "b", Ranking: []string{"y", "x", "w"}}
	ab := ContributionSimilarity(a, b)
	ba := ContributionSimilarity(b, a)
	if math.Abs(ab-ba) > 1e-12 {
		t.Errorf("asymmetric: %v vs %v", ab, ba)
	}
}

func TestContributionSimilarityMixedPayloads(t *testing.T) {
	text := &model.Contribution{ID: "a", Text: "hello"}
	ranked := &model.Contribution{ID: "b", Ranking: []string{"x"}}
	if got := ContributionSimilarity(text, ranked); got != 0 {
		t.Errorf("mixed payloads = %v, want 0", got)
	}
}

func TestContributionSimilarityEmpty(t *testing.T) {
	a := &model.Contribution{ID: "a"}
	b := &model.Contribution{ID: "b"}
	if got := ContributionSimilarity(a, b); got != 1 {
		t.Errorf("two empty payloads = %v, want 1", got)
	}
}

// TestContributionProfilesMatchSimilarity pins the profile-once scorer to the
// per-pair kernel bit for bit, over every payload rule (text, empty,
// whitespace-only, non-ASCII, ranked, mixed) and a seeded generated batch,
// in both pair orientations and on the diagonal.
func TestContributionProfilesMatchSimilarity(t *testing.T) {
	cs := []*model.Contribution{
		{Text: "the quick brown fox"},
		{Text: "The  quick\tbrown fox!"},
		{Text: "zzzzzz qqqqqq"},
		{Text: ""},
		{Text: "   \t\n "},
		{Text: "ab"},
		{Text: "日本語のテキスト"},
		{Text: "日本語のテキストです"},
		{Text: "naïve café résumé"},
		{Ranking: []string{"x", "y", "z"}},
		{Ranking: []string{"z", "y", "x"}},
		{Ranking: []string{"y", "x", "w"}},
		{Ranking: []string{"x"}, Text: "ranked payload wins over text"},
	}
	rng := rand.New(rand.NewSource(29))
	words := []string{"fox", "dog", "Lazy", "jumps", "über", "the", "a", "ranking", "  ", "\t"}
	items := []string{"p", "q", "r", "s", "t", "u"}
	for i := 0; i < 60; i++ {
		c := &model.Contribution{}
		switch rng.Intn(5) {
		case 0:
			for k := rng.Intn(4) + 1; k > 0; k-- {
				c.Ranking = append(c.Ranking, items[rng.Intn(len(items))])
			}
		case 1:
			// empty text
		default:
			for k := rng.Intn(12); k > 0; k-- {
				c.Text += words[rng.Intn(len(words))] + " "
			}
		}
		cs = append(cs, c)
	}
	p := NewContributionProfiles(cs)
	for i := range cs {
		for j := range cs {
			got, want := p.Similarity(i, j), ContributionSimilarity(cs[i], cs[j])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Similarity(%d, %d) = %v, ContributionSimilarity = %v (%q / %v vs %q / %v)",
					i, j, got, want, cs[i].Text, cs[i].Ranking, cs[j].Text, cs[j].Ranking)
			}
		}
	}
}
