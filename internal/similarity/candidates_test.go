package similarity

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// collectPairs drains an index's Pairs enumeration into a sorted,
// canonical "a|b" key list, failing on ordering or duplicate violations.
func collectPairs(t *testing.T, ix CandidateIndex) []string {
	t.Helper()
	seen := make(map[string]bool)
	ix.Pairs(func(a, b string) {
		if a >= b {
			t.Fatalf("Pairs yielded (%q, %q): not ordered a < b", a, b)
		}
		key := a + "|" + b
		if seen[key] {
			t.Fatalf("Pairs yielded (%q, %q) twice", a, b)
		}
		seen[key] = true
	})
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// collectPartners drains Partners(id) into a sorted list, failing on
// duplicates or self-emission.
func collectPartners(t *testing.T, ix interface {
	Partners(id string, yield func(string))
}, id string) []string {
	t.Helper()
	seen := make(map[string]bool)
	ix.Partners(id, func(p string) {
		if p == id {
			t.Fatalf("Partners(%q) yielded the id itself", id)
		}
		if seen[p] {
			t.Fatalf("Partners(%q) yielded %q twice", id, p)
		}
		seen[p] = true
	})
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// randomTokenSets builds n token sets drawn from a small universe so
// overlaps are common.
func randomTokenSets(rng *rand.Rand, n, universe, maxLen int) map[string][]uint64 {
	sets := make(map[string][]uint64, n)
	for i := 0; i < n; i++ {
		ln := rng.Intn(maxLen + 1)
		toks := make([]uint64, 0, ln)
		for j := 0; j < ln; j++ {
			toks = append(toks, uint64(rng.Intn(universe)))
		}
		sets[fmt.Sprintf("e%03d", i)] = toks
	}
	return sets
}

func TestExactIndexMatchesSharedTokenOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sets := randomTokenSets(rng, 60, 12, 5)
	ix := NewExactIndex()
	for id, toks := range sets {
		ix.Upsert(id, toks)
	}
	if ix.Len() != len(sets) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(sets))
	}

	var want []string
	ids := make([]string, 0, len(sets))
	for id := range sets {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if smallestSharedToken(normaliseTokens(sets[ids[i]]), normaliseTokens(sets[ids[j]])) != emptyTokenSentinel {
				want = append(want, ids[i]+"|"+ids[j])
			}
		}
	}

	got := collectPairs(t, ix)
	if !equalStrings(got, want) {
		t.Fatalf("ExactIndex pairs = %d, oracle = %d\n got: %v\nwant: %v", len(got), len(want), got, want)
	}

	// Partners must describe exactly the same pair set as Pairs.
	for _, id := range ids {
		var want []string
		for _, other := range ids {
			if other == id {
				continue
			}
			a, b := id, other
			if a > b {
				a, b = b, a
			}
			if contains(got, a+"|"+b) {
				want = append(want, other)
			}
		}
		sort.Strings(want)
		if ps := collectPartners(t, ix, id); !equalStrings(ps, want) {
			t.Fatalf("Partners(%q) = %v, want %v", id, ps, want)
		}
	}
}

func TestExactIndexUpsertReplacesAndRemoveDeletes(t *testing.T) {
	ix := NewExactIndex()
	ix.Upsert("a", []uint64{1, 2})
	ix.Upsert("b", []uint64{1, 2})
	ix.Upsert("c", []uint64{3})
	if got := collectPairs(t, ix); !equalStrings(got, []string{"a|b"}) {
		t.Fatalf("initial pairs = %v", got)
	}
	// Re-describing a moves it away from b and next to c.
	ix.Upsert("a", []uint64{3})
	if got := collectPairs(t, ix); !equalStrings(got, []string{"a|c"}) {
		t.Fatalf("after upsert pairs = %v", got)
	}
	ix.Remove("c")
	if got := collectPairs(t, ix); len(got) != 0 {
		t.Fatalf("after remove pairs = %v, want none", got)
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ix.Len())
	}
	ix.Remove("zzz") // unknown id: no-op
}

func TestHashTokenSpreads(t *testing.T) {
	seen := make(map[uint64]string)
	for i := 0; i < 1000; i++ {
		s := fmt.Sprintf("skill-%d", i)
		h := HashToken(s)
		if prev, dup := seen[h]; dup {
			t.Fatalf("HashToken collision: %q and %q", prev, s)
		}
		seen[h] = s
	}
	if HashToken("go") != HashToken("go") {
		t.Fatal("HashToken is not deterministic")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func contains(sorted []string, s string) bool {
	i := sort.SearchStrings(sorted, s)
	return i < len(sorted) && sorted[i] == s
}
