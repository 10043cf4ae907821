package similarity

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// clusteredTokenSets builds n token sets in clusters of size: every member
// of a cluster shares its base tokens but one, which it replaces with a token
// of its own, and clusters share no token. Under the worker plan's banding
// (90 bands × 6 rows) each id's candidate partners are then its cluster mates.
func clusteredTokenSets(n, size, width int) (ids []string, sets [][]uint64) {
	ids = make([]string, n)
	sets = make([][]uint64, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("w%06d", i)
		base := uint64(i/size) * uint64(width)
		toks := make([]uint64, width)
		for t := range toks {
			toks[t] = base + uint64(t)
		}
		toks[i%size%width] = 1<<40 + uint64(i)
		sets[i] = toks
	}
	return ids, sets
}

// BenchmarkLSHPartners times one Partners walk at the audit_churn worker
// index's shape: 30k ids in clusters of 20 under 90 bands × 6 rows, about 19
// partners each.
func BenchmarkLSHPartners(b *testing.B) {
	ids, sets := clusteredTokenSets(30_000, 20, 26)
	ix := NewLSHIndex(ChooseLSHParams(0.9, 1))
	ix.BulkUpsert(ids, func(i int) []uint64 { return sets[i] })
	found := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Partners(ids[i%len(ids)], func(string) { found++ })
	}
	b.StopTimer()
	b.ReportMetric(float64(found)/float64(b.N), "partners/op")
}

// naiveBandPartners reports whether two signatures agree on all Rows slots of
// some band — LSHIndex's candidate relation restated over raw signature rows,
// with no band hash and no slots.
func naiveBandPartners(p LSHParams, a, b []uint32) bool {
	for band := 0; band < p.Bands; band++ {
		lo, hi := band*p.Rows, (band+1)*p.Rows
		if sigsEqual(a[lo:hi], b[lo:hi]) {
			return true
		}
	}
	return false
}

// TestLSHIndexMatchesNaiveBanding drives seeded storms of every mutation —
// Upsert, BulkUpsert, BulkUpsertSignatures, Remove, Reset — against a model
// that holds each live id's signature from an independent hasher, and after
// every step checks the stored signatures, Partners of every id and the full
// Pairs set against naive banding. Storms free slots and then install new
// ids into them, move ids to other signatures, and re-upsert ids unchanged.
func TestLSHIndexMatchesNaiveBanding(t *testing.T) {
	params := LSHParams{Bands: 16, Rows: 2, Seed: 23}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ix := NewLSHIndex(params)
		ref := NewMinHasher(params.K(), params.Seed)
		model := make(map[string][]uint32)
		tokens := func() []uint64 {
			toks := make([]uint64, 1+rng.Intn(4))
			for i := range toks {
				toks[i] = uint64(rng.Intn(10))
			}
			return toks
		}
		next := 0
		newID := func() string { next++; return fmt.Sprintf("n%04d", next) }
		liveIDs := func() []string {
			ids := make([]string, 0, len(model))
			for id := range model {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			return ids
		}
		// batch picks distinct ids: live ones (to move or leave unchanged)
		// and new ones, which take freed slots first.
		batch := func() []string {
			var ids []string
			for _, id := range liveIDs() {
				if rng.Intn(3) == 0 {
					ids = append(ids, id)
				}
			}
			for i := rng.Intn(6); i > 0; i-- {
				ids = append(ids, newID())
			}
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			return ids
		}
		// retoken returns id's next token set: its current one half the time
		// (an unchanged re-upsert), else a fresh draw.
		current := make(map[string][]uint64)
		retoken := func(id string) []uint64 {
			if toks, ok := current[id]; ok && rng.Intn(2) == 0 {
				return toks
			}
			current[id] = tokens()
			return current[id]
		}

		for step := 0; step < 120; step++ {
			var op string
			switch r := rng.Intn(20); {
			case r < 5:
				op = "Upsert"
				id := newID()
				if ids := liveIDs(); len(ids) > 0 && rng.Intn(2) == 0 {
					id = ids[rng.Intn(len(ids))]
				}
				toks := retoken(id)
				ix.Upsert(id, toks)
				model[id] = ref.Signature(toks)
			case r < 10:
				op = "BulkUpsert"
				ids := batch()
				sets := make([][]uint64, len(ids))
				for i, id := range ids {
					sets[i] = retoken(id)
					model[id] = ref.Signature(sets[i])
				}
				ix.BulkUpsert(ids, func(i int) []uint64 { return sets[i] })
			case r < 14:
				op = "BulkUpsertSignatures"
				ids := batch()
				sigs := make([][]uint32, len(ids))
				for i, id := range ids {
					toks := retoken(id)
					sigs[i] = ref.Signature(toks)
					model[id] = ref.Signature(toks)
				}
				ix.BulkUpsertSignatures(ids, sigs)
			case r < 19:
				op = "Remove"
				ids := liveIDs()
				for i := rng.Intn(5); i > 0 && len(ids) > 0; i-- {
					k := rng.Intn(len(ids))
					ix.Remove(ids[k])
					delete(model, ids[k])
					delete(current, ids[k])
					ids = append(ids[:k], ids[k+1:]...)
				}
				ix.Remove("never-indexed")
			default:
				op = "Reset"
				ix.Reset()
				clear(model)
				clear(current)
			}
			label := fmt.Sprintf("seed %d step %d (%s)", seed, step, op)
			requireNaiveBanding(t, label, ix, model)
		}
	}
}

// requireNaiveBanding fails unless ix holds exactly model's ids and
// signatures and its Partners and Pairs views both equal naive banding over
// them.
func requireNaiveBanding(t *testing.T, label string, ix *LSHIndex, model map[string][]uint32) {
	t.Helper()
	p := ix.Params()
	if ix.Len() != len(model) {
		t.Fatalf("%s: Len %d, want %d", label, ix.Len(), len(model))
	}
	ids := make([]string, 0, len(model))
	for id := range model {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var wantPairs []string
	for i, a := range ids {
		if !sigsEqual(ix.Signature(a), model[a]) {
			t.Fatalf("%s: Signature(%q) differs from the model's", label, a)
		}
		var want []string
		for j, b := range ids {
			if i != j && naiveBandPartners(p, model[a], model[b]) {
				want = append(want, b)
				if i < j {
					wantPairs = append(wantPairs, a+"|"+b)
				}
			}
		}
		if got := collectPartners(t, ix, a); !equalStrings(got, want) {
			t.Fatalf("%s: Partners(%q) = %v, want %v", label, a, got, want)
		}
	}
	if got := collectPairs(t, ix); !equalStrings(got, wantPairs) {
		t.Fatalf("%s: Pairs = %v, want %v", label, got, wantPairs)
	}
	if got := collectPartners(t, ix, "never-indexed"); len(got) != 0 {
		t.Fatalf("%s: Partners of an unknown id = %v", label, got)
	}
}

// A repeated id in one bulk call would be linked into its buckets twice, so
// every bulk path refuses it, whether the id is new or already indexed.
func TestLSHIndexBulkUpsertRejectsRepeatedIDs(t *testing.T) {
	params := LSHParams{Bands: 4, Rows: 2, Seed: 3}
	toks := func(int) []uint64 { return []uint64{1, 2, 3} }
	for _, tc := range []struct {
		name    string
		indexed []string
		batch   []string
		sigs    bool
	}{
		{"new id, BulkUpsert", nil, []string{"c", "c"}, false},
		{"new id, BulkUpsertSignatures", nil, []string{"c", "a", "c"}, true},
		{"indexed id, BulkUpsert", []string{"a", "c"}, []string{"a", "c", "c"}, false},
		{"indexed id, BulkUpsertSignatures", []string{"c"}, []string{"c", "c"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix := NewLSHIndex(params)
			for _, id := range tc.indexed {
				ix.Upsert(id, []uint64{9})
			}
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, `id "c" repeated`) {
					t.Fatalf("panic = %q, want one naming the repeated id", msg)
				}
			}()
			if tc.sigs {
				sigs := make([][]uint32, len(tc.batch))
				for i := range sigs {
					sigs[i] = ix.Hasher().Signature(toks(i))
				}
				ix.BulkUpsertSignatures(tc.batch, sigs)
			} else {
				ix.BulkUpsert(tc.batch, toks)
			}
		})
	}
}
