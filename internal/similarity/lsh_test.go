package similarity

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// clusteredTokenSets builds n token sets in clusters of size: every member
// of a cluster shares its base tokens but own, which it replaces with tokens
// of its own, and clusters share no token. Under the worker plan's banding
// (90 bands × 6 rows) and own = 1, each id's candidate partners are its
// cluster mates, which also share most of its buckets; own = 3 keeps the
// partners but leaves most of each id's buckets to itself.
func clusteredTokenSets(n, size, width, own int) (ids []string, sets [][]uint64) {
	ids = make([]string, n)
	sets = make([][]uint64, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("w%06d", i)
		base := uint64(i/size) * uint64(width)
		toks := make([]uint64, width)
		for t := range toks {
			toks[t] = base + uint64(t)
		}
		for t := 0; t < own; t++ {
			toks[(i%size*own+t)%width] = 1<<40 + uint64(i*own+t)
		}
		sets[i] = toks
	}
	return ids, sets
}

// BenchmarkLSHPartners times one Partners walk at the audit_churn worker
// index's shape: 30k ids in clusters of 20 under 90 bands × 6 rows, about 19
// partners each, sharing most of an id's buckets with its cluster.
func BenchmarkLSHPartners(b *testing.B) {
	benchmarkPartners(b, 20, 1)
}

// BenchmarkLSHPartnersSparse is BenchmarkLSHPartners with clusters of 10 and
// three own tokens per id: about 9 partners each, and an id is alone in
// about three in four of its bands.
func BenchmarkLSHPartnersSparse(b *testing.B) {
	benchmarkPartners(b, 10, 3)
}

func benchmarkPartners(b *testing.B, size, own int) {
	ids, sets := clusteredTokenSets(30_000, size, 26, own)
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

// BenchmarkLSHBulkBuild times a cold install of 30k band rows into a new
// index under 90 bands × 6 rows — what a checkpoint restore does, and a
// cold build after hashing. Clusters of 10 with two own tokens per id leave
// about 86 % of the buckets with one member.
func BenchmarkLSHBulkBuild(b *testing.B) {
	ids, sets := clusteredTokenSets(30_000, 10, 26, 2)
	params := ChooseLSHParams(0.9, 1)
	built := NewLSHIndex(params)
	built.BulkUpsert(ids, func(i int) []uint64 { return sets[i] })
	ids, rows, digests := built.BandRows()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewLSHIndex(params).BulkUpsertRows(ids, rows, digests)
	}
}

// BenchmarkLSHBulkRefresh times one delta refresh at the audit_churn worker
// index's shape: 30k ids in clusters of 20 installed under 90 bands × 6
// rows, then 150 of them re-upserted in one BulkUpsert. 110 come back with
// their token sets unchanged and 40 with one token swapped, alternating
// between two sets so every iteration changes the same 40.
func BenchmarkLSHBulkRefresh(b *testing.B) {
	ids, sets := clusteredTokenSets(30_000, 20, 26, 1)
	ix := NewLSHIndex(ChooseLSHParams(0.9, 1))
	ix.BulkUpsert(ids, func(i int) []uint64 { return sets[i] })
	const refreshed, changed = 150, 40
	batch := make([]string, refreshed)
	toks := make([][2][]uint64, refreshed)
	for k := range batch {
		i := k * len(ids) / refreshed
		batch[k] = ids[i]
		toks[k] = [2][]uint64{sets[i], sets[i]}
		if k < changed {
			toks[k][1] = slices.Clone(sets[i])
			toks[k][1][0] = 1<<41 + uint64(i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		ix.BulkUpsert(batch, func(k int) []uint64 { return toks[k][(n+1)%2] })
	}
}

func sigsEqual(a, b []uint32) bool {
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

// storedRow is the band row ix keeps for id, nil when id is not indexed.
func storedRow(ix *LSHIndex, id string) []uint64 {
	if s, ok := ix.slots[id]; ok {
		return ix.row(s)
	}
	return nil
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
// every step checks the stored band rows, Partners of every id and the full
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

// requireNaiveBanding fails unless ix holds exactly model's ids, each with
// the band row of its model signature and a handle on each of its shared
// buckets (and none on an inline one), and its Partners and Pairs views
// both equal naive banding over the signatures.
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
	row := make([]uint64, p.Bands)
	for i, a := range ids {
		ix.hashBands(row, model[a])
		if !slices.Equal(storedRow(ix, a), row) {
			t.Fatalf("%s: band row of %q differs from the model's", label, a)
		}
		// Each band's handle names the bucket's arena entry exactly when
		// the bucket is shared.
		s := ix.slots[a]
		for b, h := range ix.row(s) {
			want := ix.buckets[b][h]
			if want&sharedTag == 0 {
				want = 0
			}
			if got := ix.hd[ix.at(s, b)]; got != want {
				t.Fatalf("%s: band-%d handle of %q is %#x, want %#x", label, b, a, got, want)
			}
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

// TestLSHIndexBucketTransitionsMatchNaiveBanding scripts one bucket — A's
// in band 0 — through every transition of its storage: 0→1 (inline), 1→2
// (into the arena), 2→3 (sorted insert), 3→2, 2→1 (back inline, its arena
// entry freed) and 1→0, through Upsert, BulkUpsert, BulkUpsertSignatures, a
// re-upsert to another signature and Remove. It then installs a new id into
// a freed slot while the arena entry is on the freelist, refills the entry,
// and Resets with shared buckets live. An entity p shares bands 1 and 3 with
// A but not band 0, so A's other buckets take their own paths. After every
// step, Partners and Pairs must equal naive banding.
func TestLSHIndexBucketTransitionsMatchNaiveBanding(t *testing.T) {
	params := LSHParams{Bands: 8, Rows: 2, Seed: 31}
	ix := NewLSHIndex(params)
	ref := NewMinHasher(params.K(), params.Seed)
	A, B := []uint64{1, 2, 3}, []uint64{7, 8, 9}
	sigA, sigB := ref.Signature(A), ref.Signature(B)
	sigP := ref.Signature(A)
	for i := range sigP {
		if band := i / params.Rows; band != 1 && band != 3 {
			sigP[i] ^= 0x9e37
		}
	}
	rowA := make([]uint64, params.Bands)
	ix.hashBands(rowA, sigA)
	// size reads the member count of A's band-0 bucket off the index.
	size := func() int {
		v, ok := ix.buckets[0][rowA[0]]
		switch {
		case !ok:
			return 0
		case v&sharedTag == 0:
			return 1
		}
		return len(ix.multi[0][v&^sharedTag])
	}
	model := make(map[string][]uint32)
	clone := func(sig []uint32) []uint32 { return append([]uint32(nil), sig...) }
	upsertSigs := func(ids []string, sigs ...[]uint32) {
		own := make([][]uint32, len(sigs))
		for i, id := range ids {
			model[id], own[i] = clone(sigs[i]), clone(sigs[i])
		}
		ix.BulkUpsertSignatures(ids, own)
	}
	var cSlot uint32
	arenaLen := 0
	for _, st := range []struct {
		name string
		do   func()
		want int
	}{
		{"BulkUpsertSignatures p", func() { upsertSigs([]string{"p"}, sigP) }, 0},
		{"Upsert a:A", func() { ix.Upsert("a", A); model["a"] = sigA }, 1},
		{"BulkUpsert b:A q:B", func() {
			sets := [][]uint64{A, B}
			ix.BulkUpsert([]string{"b", "q"}, func(i int) []uint64 { return sets[i] })
			model["b"], model["q"] = sigA, sigB
		}, 2},
		{"BulkUpsertSignatures c:A", func() { upsertSigs([]string{"c"}, sigA) }, 3},
		{"Upsert b:B", func() { ix.Upsert("b", B); model["b"] = sigB }, 2},
		{"BulkUpsertSignatures a:B p unchanged", func() {
			upsertSigs([]string{"p", "a"}, sigP, sigB)
			arenaLen = len(ix.multi[0])
		}, 1},
		{"Remove c", func() {
			cSlot = ix.slots["c"]
			ix.Remove("c")
			ix.Remove("never-indexed")
			delete(model, "c")
		}, 0},
		{"Upsert d:A into c's slot", func() {
			ix.Upsert("d", A)
			model["d"] = sigA
			if ix.slots["d"] != cSlot {
				t.Fatalf("d took slot %d, want c's freed slot %d", ix.slots["d"], cSlot)
			}
		}, 1},
		{"BulkUpsert e:A from the freelist", func() {
			ix.BulkUpsert([]string{"e"}, func(int) []uint64 { return A })
			model["e"] = sigA
			if len(ix.multi[0]) != arenaLen {
				t.Fatalf("band-0 arena grew %d -> %d with an entry on its freelist", arenaLen, len(ix.multi[0]))
			}
		}, 2},
		{"Reset", func() { ix.Reset(); clear(model) }, 0},
		{"BulkUpsertSignatures a b c:A p after Reset", func() {
			upsertSigs([]string{"c", "a", "p", "b"}, sigA, sigA, sigP, sigA)
		}, 3},
		{"Remove b", func() { ix.Remove("b"); delete(model, "b") }, 2},
	} {
		st.do()
		requireNaiveBanding(t, st.name, ix, model)
		if got := size(); got != st.want {
			t.Fatalf("%s: A's band-0 bucket holds %d, want %d", st.name, got, st.want)
		}
	}
}

// TestLSHIndexSkipsUnchangedTokenSets: Upsert and BulkUpsert sign a token
// set only when its digest differs from the one stored for the id, so a
// permuted list signs nothing, a changed or repeated token signs again, and
// no id keeps a digest its row was not signed from — not one that took a
// freed slot, not one last installed from a signature. After every step
// the index must equal a fresh one built from the same sets.
func TestLSHIndexSkipsUnchangedTokenSets(t *testing.T) {
	params := LSHParams{Bands: 8, Rows: 2, Seed: 37}
	T, U := []uint64{1, 2, 3, 4, 5}, []uint64{41, 42, 43}
	ix := NewLSHIndex(params)
	sets := make(map[string][]uint64)
	bulk := func(ids []string, toks ...[]uint64) {
		for i, id := range ids {
			sets[id] = toks[i]
		}
		ix.BulkUpsert(ids, func(i int) []uint64 { return toks[i] })
	}
	for _, st := range []struct {
		name string
		do   func()
		sign int
	}{
		{"BulkUpsert a:T b:U c:T", func() { bulk([]string{"a", "b", "c"}, T, U, T) }, 3},
		{"BulkUpsert a, b, c permuted", func() {
			bulk([]string{"c", "b", "a"}, []uint64{5, 4, 3, 2, 1}, []uint64{43, 41, 42}, []uint64{2, 1, 4, 3, 5})
		}, 0},
		{"Upsert a permuted", func() { ix.Upsert("a", []uint64{3, 1, 5, 2, 4}) }, 0},
		{"BulkUpsert a with one token changed, b unchanged", func() {
			bulk([]string{"b", "a"}, U, []uint64{1, 2, 3, 4, 6})
		}, 1},
		{"Upsert c with one token changed", func() { ix.Upsert("c", []uint64{1, 2, 3, 4, 7}); sets["c"] = []uint64{1, 2, 3, 4, 7} }, 1},
		{"BulkUpsert b with a token repeated", func() { bulk([]string{"b"}, []uint64{41, 42, 43, 42}) }, 1},
		{"Upsert b with a token repeated", func() { ix.Upsert("b", []uint64{41, 41, 42, 43}); sets["b"] = []uint64{41, 41, 42, 43} }, 1},
		{"Remove a, then d:U by signature into its slot", func() {
			slot := ix.slots["a"]
			ix.Remove("a")
			delete(sets, "a")
			ix.BulkUpsertSignatures([]string{"d"}, [][]uint32{ix.Hasher().Signature(U)})
			sets["d"] = U
			if ix.slots["d"] != slot {
				t.Fatalf("d took slot %d, want a's freed slot %d", ix.slots["d"], slot)
			}
		}, 0},
		{"BulkUpsert d:T, a's tokens, into the reused slot", func() { bulk([]string{"d"}, T) }, 1},
		{"UpsertSignature d:T", func() { ix.UpsertSignature("d", ix.Hasher().Signature(T)) }, 0},
		{"BulkUpsert d:T after its signature", func() { bulk([]string{"d"}, T) }, 1},
		{"BulkUpsertSignatures c:T", func() {
			ix.BulkUpsertSignatures([]string{"c"}, [][]uint32{ix.Hasher().Signature(T)})
			sets["c"] = T
		}, 0},
		{"Upsert c:T after its signature", func() { ix.Upsert("c", T) }, 1},
	} {
		before := ix.signed
		st.do()
		if got := ix.signed - before; got != st.sign {
			t.Fatalf("%s: signed %d token sets, want %d", st.name, got, st.sign)
		}
		if ix.Signed() != ix.signed {
			t.Fatalf("%s: Signed() = %d, want %d", st.name, ix.Signed(), ix.signed)
		}
		fresh := NewLSHIndex(params)
		for id, toks := range sets {
			fresh.Upsert(id, toks)
		}
		requireSameLSH(t, st.name, ix, fresh)
	}
}

// Refilling a Reset index with the same token sets — the pooled Axiom 3
// contribution index's cycle — reuses its bucket storage: the cleared maps,
// the arena entries Reset left past the arenas' length and the freelists.
// Buckets are counted from the band rows; about a third are shared.
func TestLSHIndexResetRecyclesBuckets(t *testing.T) {
	params := LSHParams{Bands: 8, Rows: 2, Seed: 29}
	ids, sets := clusteredTokenSets(240, 6, 10, 1)
	ix := NewLSHIndex(params)
	fill := func() {
		ix.Reset()
		for i, id := range ids {
			ix.Upsert(id, sets[i])
		}
	}
	fill()
	members := make(map[[2]uint64]int)
	for s := range ix.names {
		for b, h := range ix.row(uint32(s)) {
			members[[2]uint64{uint64(b), h}]++
		}
	}
	shared := 0
	for _, n := range members {
		if n > 1 {
			shared++
		}
	}
	if shared < len(members)/4 {
		t.Fatalf("%d of %d buckets shared: too few to exercise the arenas", shared, len(members))
	}
	allocs := testing.AllocsPerRun(20, fill)
	if allocs > float64(len(members))/50 {
		t.Fatalf("a Reset and refill into %d buckets (%d shared) allocated %.0f times, want <= %d",
			len(members), shared, allocs, len(members)/50)
	}
	t.Logf("allocs per Reset and refill of %d buckets (%d shared): %.0f", len(members), shared, allocs)
	fresh := NewLSHIndex(params)
	for i, id := range ids {
		fresh.Upsert(id, sets[i])
	}
	requireSameLSH(t, "after refills", ix, fresh)
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

// TestLSHBandKeysGolden pins the MinHash signature, the band row and the
// token digest of one token set under one seed at the worker plan's 90
// bands × 6 rows. Band rows and digests are on-disk format — the audit
// sidecar persists them in place of signatures — so a change to MinHasher,
// hashBands or tokenDigest fails here until the sidecar's stateFormat is
// bumped and these values with it.
func TestLSHBandKeysGolden(t *testing.T) {
	params := LSHParams{Bands: 90, Rows: 6, Seed: 1}
	toks := make([]uint64, 26)
	for i := range toks {
		toks[i] = uint64(i + 1)
	}
	digest := func(vals []uint64, width int) uint64 {
		h := fnv.New64a()
		b := make([]byte, 8)
		for _, v := range vals {
			binary.LittleEndian.PutUint64(b, v)
			h.Write(b[:width])
		}
		return h.Sum64()
	}

	sig := NewMinHasher(params.K(), params.Seed).Signature(toks)
	wide := make([]uint64, len(sig))
	for i, v := range sig {
		wide[i] = uint64(v)
	}
	if got, want := [4]uint32{sig[0], sig[1], sig[2], sig[539]}, [4]uint32{0x96d19e5, 0x230b782, 0x98dc70c, 0x713fea2}; got != want {
		t.Fatalf("signature slots 0, 1, 2, 539 = %#x, want %#x", got, want)
	}
	if got := digest(wide, 4); got != 0x2b099e6561785500 {
		t.Fatalf("signature digest %#x, want 0x2b099e6561785500", got)
	}

	ix := NewLSHIndex(params)
	ix.Upsert("w", toks)
	_, row, digests := ix.BandRows()
	if got, want := [3]uint64{row[0], row[1], row[89]}, [3]uint64{0x20b6e673bb9b88d2, 0xb8896a5911f5f9cc, 0x14af0f764c356f5f}; got != want {
		t.Fatalf("band keys 0, 1, 89 = %#x, want %#x", got, want)
	}
	if got := digest(row, 8); got != 0x744d16198fb0a821 {
		t.Fatalf("band row digest %#x, want 0x744d16198fb0a821", got)
	}
	if got := digests[0]; got != 0x6b04487496fa6d0b {
		t.Fatalf("token digest %#x, want 0x6b04487496fa6d0b", got)
	}
}
