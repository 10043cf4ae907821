package similarity

import (
	"fmt"
	"math/rand"
	"slices"
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
func collectPartners(t *testing.T, ix CandidateIndex, id string) []string {
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

func TestLSHIndexIncrementalEqualsBatch(t *testing.T) {
	params := LSHParams{Bands: 8, Rows: 4, Seed: 99}
	rng := rand.New(rand.NewSource(3))
	sets := randomTokenSets(rng, 80, 30, 8)

	batch := NewLSHIndex(params)
	for id, toks := range sets {
		batch.Upsert(id, toks)
	}

	// Incremental: insert everything with garbage tokens first, churn with
	// removals, then upsert the real sets one at a time.
	inc := NewLSHIndex(params)
	for id := range sets {
		inc.Upsert(id, []uint64{^uint64(0) - 1})
	}
	ids := make([]string, 0, len(sets))
	for id := range sets {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for i, id := range ids {
		if i%3 == 0 {
			inc.Remove(id)
		}
		inc.Upsert(id, sets[id])
	}

	gb, gi := collectPairs(t, batch), collectPairs(t, inc)
	if !equalStrings(gb, gi) {
		t.Fatalf("batch build yields %d pairs, incremental %d", len(gb), len(gi))
	}

	// Same seed + same data => identical candidate sets on a fresh index.
	again := NewLSHIndex(params)
	for id, toks := range sets {
		again.Upsert(id, toks)
	}
	if ga := collectPairs(t, again); !equalStrings(ga, gb) {
		t.Fatal("identical seed and data gave different candidate sets")
	}

	// Partners view must agree with the Pairs view.
	for _, id := range ids[:20] {
		var want []string
		for _, other := range ids {
			if other == id {
				continue
			}
			a, b := id, other
			if a > b {
				a, b = b, a
			}
			if contains(gb, a+"|"+b) {
				want = append(want, other)
			}
		}
		sort.Strings(want)
		if ps := collectPartners(t, batch, id); !equalStrings(ps, want) {
			t.Fatalf("Partners(%q) = %v, want %v", id, ps, want)
		}
	}
}

func TestLSHIndexUpsertSignatureMatchesUpsert(t *testing.T) {
	params := LSHParams{Bands: 6, Rows: 4, Seed: 5}
	rng := rand.New(rand.NewSource(11))
	sets := randomTokenSets(rng, 40, 20, 6)

	direct := NewLSHIndex(params)
	viaSig := NewLSHIndex(params)
	for id, toks := range sets {
		direct.Upsert(id, toks)
		viaSig.UpsertSignature(id, viaSig.Hasher().Signature(toks))
	}
	if got, want := collectPairs(t, viaSig), collectPairs(t, direct); !equalStrings(got, want) {
		t.Fatalf("UpsertSignature pairs %d != Upsert pairs %d", len(got), len(want))
	}
	ids, rows, _ := direct.BandRows()
	sigIDs, sigRows, _ := viaSig.BandRows()
	if !slices.Equal(sigIDs, ids) || !slices.Equal(sigRows, rows) {
		t.Fatal("UpsertSignature stored other band rows than Upsert")
	}
	if !slices.Contains(ids, "e000") || len(rows) != len(ids)*params.Bands {
		t.Fatalf("BandRows: %d ids (e000 among them: %v), %d keys", len(ids), slices.Contains(ids, "e000"), len(rows))
	}
	if slices.Contains(ids, "missing") {
		t.Fatal("BandRows lists an unknown id")
	}
}

func TestLSHIndexBulkUpsertMatchesSerial(t *testing.T) {
	params := LSHParams{Bands: 6, Rows: 4, Seed: 5}
	rng := rand.New(rand.NewSource(13))
	sets := randomTokenSets(rng, 60, 20, 6)
	ids := make([]string, 0, len(sets))
	for id := range sets {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	serial := NewLSHIndex(params)
	bulk := NewLSHIndex(params)
	sigs := make([][]uint32, len(ids))
	for i, id := range ids {
		sig := serial.Hasher().Signature(sets[id])
		serial.UpsertSignature(id, sig)
		sigs[i] = sig
	}
	bulk.BulkUpsertSignatures(ids, sigs)
	if got, want := collectPairs(t, bulk), collectPairs(t, serial); !equalStrings(got, want) {
		t.Fatalf("bulk pairs %d != serial pairs %d", len(got), len(want))
	}

	// Re-upserting a mix of unchanged and replaced signatures must keep the
	// two indexes identical: the bulk path's skip/replace pre-pass has to
	// match UpsertSignature's semantics.
	for i, id := range ids {
		if i%3 == 0 {
			sigs[i] = serial.Hasher().Signature(append(append([]uint64(nil), sets[id]...), uint64(7_000+i)))
		}
		serial.UpsertSignature(id, sigs[i])
	}
	bulk.BulkUpsertSignatures(ids, sigs)
	if got, want := collectPairs(t, bulk), collectPairs(t, serial); !equalStrings(got, want) {
		t.Fatalf("after replacement: bulk pairs %d != serial pairs %d", len(got), len(want))
	}
	for _, id := range ids[:10] {
		if got, want := collectPartners(t, bulk, id), collectPartners(t, serial, id); !equalStrings(got, want) {
			t.Fatalf("Partners(%q): bulk %v != serial %v", id, got, want)
		}
	}
}

// requireSameLSH fails unless two indexes hold the same ids with the same
// band rows and describe the same candidate pairs and partners.
func requireSameLSH(t *testing.T, label string, got, want *LSHIndex) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len %d, want %d", label, got.Len(), want.Len())
	}
	wantIDs, _, _ := want.BandRows()
	for _, id := range wantIDs {
		if !slices.Equal(storedRow(got, id), storedRow(want, id)) {
			t.Fatalf("%s: band row of %q differs", label, id)
		}
		if g, w := collectPartners(t, got, id), collectPartners(t, want, id); !equalStrings(g, w) {
			t.Fatalf("%s: Partners(%q) = %v, want %v", label, id, g, w)
		}
	}
	if g, w := collectPairs(t, got), collectPairs(t, want); !equalStrings(g, w) {
		t.Fatalf("%s: %d pairs, want %d", label, len(g), len(w))
	}
}

// Bulk-replacing entries of a populated index — the delta refresh path —
// must leave it exactly as serial UpsertSignature calls in batch order do:
// each round's batch is a seeded shuffle of unchanged, changed and new ids,
// installed alternately through BulkUpsertSignatures and BulkUpsert, with
// serial removals between rounds. 16 bands reach par's inline threshold,
// so the bucket moves run band-parallel.
func TestLSHIndexBulkReplaceMatchesSerial(t *testing.T) {
	params := LSHParams{Bands: 16, Rows: 3, Seed: 17}
	rng := rand.New(rand.NewSource(19))
	sets := randomTokenSets(rng, 120, 25, 7)
	serial, bulk := NewLSHIndex(params), NewLSHIndex(params)
	install := func(round int, ids []string) {
		sigs := make([][]uint32, len(ids))
		for i, id := range ids {
			serial.UpsertSignature(id, serial.Hasher().Signature(sets[id]))
			sigs[i] = bulk.Hasher().Signature(sets[id])
		}
		if round%2 == 0 {
			bulk.BulkUpsertSignatures(ids, sigs)
		} else {
			bulk.BulkUpsert(ids, func(i int) []uint64 { return sets[ids[i]] })
		}
	}
	var ids []string
	for id := range sets {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	install(0, ids)
	requireSameLSH(t, "initial build", bulk, serial)

	for round := 1; round <= 6; round++ {
		var batch []string
		for _, id := range ids {
			switch r := rng.Intn(4); {
			case r == 0: // changed
				sets[id] = append(append([]uint64(nil), sets[id]...), uint64(1000+rng.Intn(40)))
				batch = append(batch, id)
			case r == 1: // unchanged, yet in the batch
				batch = append(batch, id)
			}
		}
		for i := 0; i < 10; i++ { // new
			id := fmt.Sprintf("n%d-%02d", round, i)
			sets[id] = []uint64{uint64(rng.Intn(25)), uint64(rng.Intn(25)), uint64(rng.Intn(25))}
			ids = append(ids, id)
			batch = append(batch, id)
		}
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		install(round, batch)
		requireSameLSH(t, fmt.Sprintf("round %d", round), bulk, serial)

		for i := 0; i < 3; i++ {
			id := ids[rng.Intn(len(ids))]
			serial.Remove(id)
			bulk.Remove(id)
		}
		requireSameLSH(t, fmt.Sprintf("round %d after removals", round), bulk, serial)
	}
}

// A steady-state refresh of the same ids recycles storage instead of
// allocating it: 50 rounds in which every id moves buckets allocate nothing
// per entity and leave the flat band-key array at its capacity.
func TestLSHIndexBulkRefreshRecyclesStorage(t *testing.T) {
	params := LSHParams{Bands: 8, Rows: 4, Seed: 21}
	const n = 240
	// Three variants, rotated per round: every id changes every round, and
	// no bucket ever empties or drops to one member, so every bucket stays
	// in its band's arena and its member list settles at its capacity.
	variants := [3][]uint64{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}}
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("e%03d", i)
	}
	ix := NewLSHIndex(params)
	round := 0
	tokens := func(i int) []uint64 { return variants[(i+round)%3] }
	refresh := func() {
		round++
		ix.BulkUpsert(ids, tokens)
	}
	for i := 0; i < 5; i++ {
		refresh()
	}
	bhCap := cap(ix.bh)
	allocs := testing.AllocsPerRun(50, refresh)
	if cap(ix.bh) != bhCap {
		t.Fatalf("50 refresh rounds moved the band-key capacity %d -> %d", bhCap, cap(ix.bh))
	}
	// What remains is per call: the batch's row array and bookkeeping
	// slices and the pool's fan-out bookkeeping (about 15).
	if allocs > n/8 {
		t.Fatalf("a refresh of %d changed entities allocated %.0f times, want <= %d", n, allocs, n/8)
	}
	t.Logf("allocs per %d-entity refresh: %.0f", n, allocs)

	ix.BulkUpsert(ids, tokens) // same round: nothing changed
	fresh := NewLSHIndex(params)
	for i, id := range ids {
		fresh.Upsert(id, tokens(i))
	}
	requireSameLSH(t, "after recycling", ix, fresh)
}

func TestMinHashDeterminismAndJaccard(t *testing.T) {
	a := NewMinHasher(128, 42)
	b := NewMinHasher(128, 42)
	toks := []uint64{1, 5, 9, 1 << 40}
	sa, sb := a.Signature(toks), b.Signature(toks)
	if !sigsEqual(sa, sb) {
		t.Fatal("same seed gave different signatures")
	}
	c := NewMinHasher(128, 43)
	if sigsEqual(sa, c.Signature(toks)) {
		t.Fatal("different seeds gave identical signatures (astronomically unlikely)")
	}
	if got := EstimateJaccard(sa, sb); got != 1 {
		t.Fatalf("identical sets: estimate = %v, want 1", got)
	}

	// Estimate should track true Jaccard within MinHash error bounds.
	x := make([]uint64, 0, 200)
	y := make([]uint64, 0, 200)
	for i := uint64(0); i < 200; i++ {
		x = append(x, i)
		y = append(y, i+100) // overlap 100..199: true J = 100/300
	}
	h := NewMinHasher(512, 7)
	est := EstimateJaccard(h.Signature(x), h.Signature(y))
	if est < 0.25 || est > 0.42 {
		t.Fatalf("estimate %v too far from true Jaccard 0.333", est)
	}

	// Empty sets collide only with each other.
	empty := h.Signature(nil)
	if EstimateJaccard(empty, h.Signature(nil)) != 1 {
		t.Fatal("two empty sets should estimate 1")
	}
	if EstimateJaccard(empty, h.Signature(x)) != 0 {
		t.Fatal("empty vs non-empty should estimate 0")
	}
}

func TestChooseLSHParams(t *testing.T) {
	p9 := ChooseLSHParams(0.9, 1)
	if p9.Rows < 3 || p9.Rows > 8 || p9.Bands < 4 || p9.Bands > 128 {
		t.Fatalf("params at 0.9 out of range: %+v", p9)
	}
	p8 := ChooseLSHParams(0.8, 1)
	if p8.Rows >= p9.Rows {
		// Higher thresholds afford sharper (more-row) bands within the
		// fixed band budget.
		t.Fatalf("lower threshold should use fewer rows: t=0.8 -> %d, t=0.9 -> %d", p8.Rows, p9.Rows)
	}
	// At the engineered margin s0 = 0.8 t², a pair must be caught with
	// probability >= 0.999 by construction.
	s0 := 0.8 * 0.9 * 0.9
	if p := p9.CandidateProbability(s0); p < 0.999 {
		t.Fatalf("candidate probability at margin = %v, want >= 0.999", p)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ChooseLSHParams(0, ...) should panic")
		}
	}()
	ChooseLSHParams(0, 1)
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

func TestLSHIndexResetBehavesLikeFresh(t *testing.T) {
	// Reset recycles band-key and bucket storage for the transient-index
	// pool; a Reset index must be observationally identical to a fresh one
	// with the same parameters, across several reuse generations.
	params := LSHParams{Bands: 8, Rows: 4, Seed: 7}
	rng := rand.New(rand.NewSource(11))
	pooled := NewLSHIndex(params)
	for gen := 0; gen < 4; gen++ {
		sets := randomTokenSets(rng, 40, 20, 6)
		fresh := NewLSHIndex(params)
		for id, toks := range sets {
			fresh.Upsert(id, toks)
			pooled.Upsert(id, toks)
		}
		if pooled.Len() != fresh.Len() {
			t.Fatalf("gen %d: Len %d vs fresh %d", gen, pooled.Len(), fresh.Len())
		}
		gp, gf := collectPairs(t, pooled), collectPairs(t, fresh)
		if !equalStrings(gp, gf) {
			t.Fatalf("gen %d: pooled index yields %d pairs, fresh %d", gen, len(gp), len(gf))
		}
		for id := range sets {
			if !slices.Equal(storedRow(pooled, id), storedRow(fresh, id)) {
				t.Fatalf("gen %d: band row mismatch for %q after reuse", gen, id)
			}
			break
		}
		pooled.Reset()
		if pooled.Len() != 0 {
			t.Fatalf("gen %d: Len %d after Reset, want 0", gen, pooled.Len())
		}
		if ps := collectPairs(t, pooled); len(ps) != 0 {
			t.Fatalf("gen %d: Reset index still yields %d pairs", gen, len(ps))
		}
	}
}
