package similarity

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/model"
)

// Pairs calls yield once for every stored pair that meets the threshold,
// ordered a < b. Each pair is produced from its lower slot; a freed slot
// posts nothing, so it produces none.
func (x *SkillJoin) Pairs(yield func(a, b string)) {
	for s, name := range x.names {
		x.partners(uint32(s), func(m uint32) {
			if m < uint32(s) {
				return
			}
			a, b := name, x.names[m]
			if b < a {
				a, b = b, a
			}
			yield(a, b)
		})
	}
}

// skillSet packs the positions on into a vector of length n.
func skillSet(n int, on ...int) model.SkillBits {
	v := model.NewSkillVector(n)
	for _, i := range on {
		v[i] = true
	}
	return v.Pack()
}

// span lists the positions [from, to).
func span(from, to int) []int {
	out := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}

// naiveJoin is the O(n²) join: every pair of live ids whose measure meets
// t, as sorted "a|b" keys.
func naiveJoin(m VectorMeasure, th float64, live map[string]model.SkillBits) []string {
	ids := make([]string, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []string
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			if m.Func(live[a], live[b]) >= th {
				out = append(out, a+"|"+b)
			}
		}
	}
	return out
}

// collectPartners drains Partners(id) into a sorted list, failing on
// duplicates or self-emission.
func collectPartners(t *testing.T, x *SkillJoin, id string) []string {
	t.Helper()
	seen := make(map[string]bool)
	x.Partners(id, func(p string) {
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

// requireJoinMatches holds Pairs and every live id's Partners to the naive
// join: each pair once, ordered, and nothing else.
func requireJoinMatches(t *testing.T, label string, x *SkillJoin, m VectorMeasure, th float64, live map[string]model.SkillBits) {
	t.Helper()
	if x.Len() != len(live) {
		t.Fatalf("%s: Len %d, want %d", label, x.Len(), len(live))
	}
	want := naiveJoin(m, th, live)
	var got []string
	seen := make(map[string]bool)
	x.Pairs(func(a, b string) {
		key := a + "|" + b
		if a >= b || seen[key] {
			t.Fatalf("%s: Pairs yielded (%q, %q) out of order or twice", label, a, b)
		}
		seen[key] = true
		got = append(got, key)
	})
	sort.Strings(got)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Pairs gave %d pairs, the naive join %d\n got: %v\nwant: %v", label, len(got), len(want), got, want)
	}
	partners := make(map[string][]string)
	for _, key := range want {
		a, b, _ := strings.Cut(key, "|")
		partners[a] = append(partners[a], b)
		partners[b] = append(partners[b], a)
	}
	for id := range live {
		w := partners[id]
		sort.Strings(w)
		if ps := collectPartners(t, x, id); !slices.Equal(ps, w) {
			t.Fatalf("%s: Partners(%s) = %v, want %v", label, id, ps, w)
		}
	}
}

// TestSkillJoinMatchesBruteForce holds the join to the naive O(n²) join
// under every bounded measure at thresholds 0.5 to 1 (and above), through
// seeded storms of Upsert, Remove and re-Upsert over clustered skill sets
// that put many pairs near each threshold, and on hand-built exact ties:
// cosine 9/√100 and 81/√8100, Jaccard 9/10, Dice 18/20, all exactly 0.9,
// and cosine 16/√400, exactly 0.8, whose prefix bound rounds the wrong way
// without its slack.
// Empty and singleton sets are in every storm, and one vector length
// differs, which the exact measure tells apart. At threshold 0 no measure
// is joinable, and neither is Hamming: those go to an all-pairs scan.
func TestSkillJoinMatchesBruteForce(t *testing.T) {
	measures := []VectorMeasure{MeasureCosine, MeasureJaccard, MeasureDice, MeasureExact}
	for _, m := range measures {
		if Joinable(m, 0) || Joinable(m, -1) {
			t.Fatalf("%s joinable at threshold <= 0", m.Name)
		}
	}
	if Joinable(MeasureHamming, 0.9) {
		t.Fatal("Hamming joinable")
	}

	const n = 40
	ties := map[string]model.SkillBits{
		"a10": skillSet(n, span(0, 10)...), "b10": skillSet(n, span(1, 11)...), // share 9 of 10
		"c09": skillSet(n, span(0, 9)...), // 9 ⊂ a10: Jaccard 9/10
	}
	// Cosine 16/√(25·16) = 0.8 exactly, where f·25 = 0.8²·25 rounds above
	// 16: the pair shares x's skills ranked 10th to 25th, so it meets only
	// if x's prefix reaches its 10th-ranked skill, which the bound without
	// its slack cuts off.
	x25 := span(0, 25)
	slices.SortFunc(x25, func(a, b int) int { return cmp.Compare(mix64(uint64(a)), mix64(uint64(b))) })
	ties["p25"], ties["q16"] = skillSet(n, x25...), skillSet(n, x25[9:]...)
	big := map[string]model.SkillBits{
		"x100": skillSet(120, span(0, 100)...), "y81": skillSet(120, span(0, 81)...), // cosine 81/90
	}
	for _, m := range measures {
		for _, th := range []float64{0.5, 0.8, 0.9, 1, 1.2} {
			label := fmt.Sprintf("%s@%v", m.Name, th)
			x := NewSkillJoin(m, th)
			for id, v := range ties {
				x.Upsert(id, v)
			}
			requireJoinMatches(t, label+" ties", x, m, th, ties)
			y := NewSkillJoin(m, th)
			for id, v := range big {
				y.Upsert(id, v)
			}
			requireJoinMatches(t, label+" nested", y, m, th, big)

			rng := rand.New(rand.NewSource(int64(len(m.Name))*101 + int64(th*10)))
			storm := NewSkillJoin(m, th)
			live := make(map[string]model.SkillBits)
			bases := make([][]int, 6)
			for c := range bases {
				bases[c] = rng.Perm(n)[:2+rng.Intn(12)]
			}
			draw := func() model.SkillBits {
				switch k := rng.Intn(20); {
				case k == 0:
					return skillSet(n)
				case k == 1:
					return skillSet(n, rng.Intn(n))
				case k == 2:
					return skillSet(n-1, rng.Intn(n-1)) // another vector length
				}
				on := append([]int(nil), bases[rng.Intn(len(bases))]...)
				for f := rng.Intn(3); f > 0; f-- {
					if i := rng.Intn(n); rng.Intn(2) == 0 {
						on = append(on, i)
					} else if len(on) > 1 {
						on = on[1:]
					}
				}
				return skillSet(n, on...)
			}
			for step := 0; step < 400; step++ {
				id := fmt.Sprintf("e%02d", rng.Intn(60))
				if rng.Intn(5) == 0 {
					storm.Remove(id)
					delete(live, id)
				} else {
					v := draw()
					storm.Upsert(id, v)
					live[id] = v
				}
				if step%50 == 49 {
					requireJoinMatches(t, fmt.Sprintf("%s storm step %d", label, step), storm, m, th, live)
				}
			}
			storm.Remove("unknown") // a no-op
			requireJoinMatches(t, label+" storm", storm, m, th, live)
		}
	}
}

// TestSignatureBoundNeverPrunesAMeetingPair holds the length and overlap
// bounds a probe reads off a posting entry (candidateFits) to the measure:
// every pair whose measure meets the threshold passes them, both ways
// round. Pairs are drawn over a 700-skill universe with set sizes 0 to 300,
// so most signatures have all 64 bits set and many skills, shared ones
// among them, hash to one bit; the second set keeps a random share of the
// first's skills and adds a few, so pairs land on both sides of every
// threshold. The exact ties of TestSkillJoinMatchesBruteForce are checked
// too. The entry tested is the one the join stores in a posting.
func TestSignatureBoundNeverPrunesAMeetingPair(t *testing.T) {
	const n = 700
	type pair struct{ a, b model.SkillBits }
	x25 := span(0, 25)
	slices.SortFunc(x25, func(a, b int) int { return cmp.Compare(mix64(uint64(a)), mix64(uint64(b))) })
	pairs := []pair{
		{skillSet(n, span(0, 10)...), skillSet(n, span(1, 11)...)},  // cosine, Dice 9/10
		{skillSet(n, span(0, 10)...), skillSet(n, span(0, 9)...)},   // Jaccard 9/10
		{skillSet(n, span(0, 100)...), skillSet(n, span(0, 81)...)}, // cosine 81/90
		{skillSet(n, x25...), skillSet(n, x25[9:]...)},              // cosine 16/20
		{skillSet(n), skillSet(n)}, {skillSet(n), skillSet(n, 3)},   // empty sets
		{skillSet(n, span(0, 300)...), skillSet(n, span(0, 300)...)}, // exact
	}
	rng := rand.New(rand.NewSource(7))
	for len(pairs) < 1500 {
		perm := rng.Perm(n)
		a := rng.Intn(301)
		if rng.Intn(2) == 0 {
			a = rng.Intn(40) // signatures far from full, where the bound prunes
		}
		keep, extra := a-rng.Intn(a/4+1), rng.Intn(a/8+2)
		if rng.Intn(2) == 0 {
			keep, extra = rng.Intn(a+1), rng.Intn(a/2+2)
		}
		b := append(slices.Clone(perm[:keep]), perm[a:a+extra]...)
		if rng.Intn(10) == 0 {
			b = perm[:a]
		}
		pairs = append(pairs, pair{skillSet(n, perm[:a]...), skillSet(n, b...)})
	}
	for _, m := range []VectorMeasure{MeasureCosine, MeasureJaccard, MeasureDice, MeasureExact} {
		for _, th := range []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1} {
			x := NewSkillJoin(m, th)
			meeting, pruned := 0, 0
			for i, p := range pairs {
				x.Upsert("a", p.a)
				x.Upsert("b", p.b)
				ea, eb := &x.sets[x.slots["a"]], &x.sets[x.slots["b"]]
				entry := func(e *joinSet) posting { return x.post[e.prefix[0].rank][e.prefix[0].at] }
				fits := x.candidateFits(ea, entry(eb))
				if fits != x.candidateFits(eb, entry(ea)) {
					t.Fatalf("%s@%v pair %d: the bounds disagree with themselves the other way round", m.Name, th, i)
				}
				if m.Func(p.a, p.b) < th {
					if !fits {
						pruned++
					}
					continue
				}
				meeting++
				if !fits {
					t.Fatalf("%s@%v pair %d: sizes %d and %d (%d shared, %v) meet the threshold, but the bounds prune them",
						m.Name, th, i, p.a.Count(), p.b.Count(), shared(p.a, p.b), m.Func(p.a, p.b))
				}
			}
			if meeting < 100 || pruned < 100 {
				t.Fatalf("%s@%v: %d pairs meet the threshold and the bounds prune %d others; too few to show anything", m.Name, th, meeting, pruned)
			}
		}
	}
}

// clusteredSkillSets builds n skill sets shaped like the audit_churn worker
// population: 100 popular and 600 niche skills, clusters of 20 sharing a
// 3-skill niche core (dealt without replacement while the niche pool
// lasts, then drawn at random), each member holding one of its cluster's
// two popular skills and, one time in four, a random niche skill.
func clusteredSkillSets(n int, rng *rand.Rand) (ids []string, sets []model.SkillBits) {
	const popular, niche = 100, 600
	ids = make([]string, n)
	sets = make([]model.SkillBits, n)
	deal := rng.Perm(niche)
	var core []int
	for i := range ids {
		c := i / 20
		if i%20 == 0 {
			core = core[:0]
			for j := 0; j < 3; j++ {
				k := rng.Intn(niche)
				if next := 3*c + j; next < niche {
					k = deal[next]
				}
				core = append(core, popular+k)
			}
		}
		on := append([]int{(2*c + rng.Intn(2)) % popular}, core...)
		if rng.Intn(4) == 0 {
			on = append(on, popular+rng.Intn(niche))
		}
		ids[i] = fmt.Sprintf("w%06d", i)
		sets[i] = skillSet(popular+niche, on...)
	}
	return ids, sets
}

// BenchmarkSkillJoinPartners times one Partners walk over a cosine 0.9
// join of 30k clustered skill sets (clusteredSkillSets), the worker join
// of an audit_churn delta pass.
func BenchmarkSkillJoinPartners(b *testing.B) {
	ids, sets := clusteredSkillSets(30_000, rand.New(rand.NewSource(1)))
	x := NewSkillJoin(MeasureCosine, 0.9)
	for i, id := range ids {
		x.Upsert(id, sets[i])
	}
	x.TakeWork()
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		x.Partners(ids[i*7919%len(ids)], func(string) { n++ })
	}
	b.ReportMetric(float64(n)/float64(b.N), "partners/op")
	b.ReportMetric(float64(x.TakeWork().Verified)/float64(b.N), "verified/op")
}

// TestJoinWorkCounts pins the work of a full probe (Partners for every id)
// of a cosine 0.9 join over 2,000 clustered skill sets (seed 1): the counts
// are a pure function of the stored sets, each pair that meets the
// threshold is yielded once from each side, so the yield is twice the
// naive O(n²) join's, and TakeWork zeroes them.
func TestJoinWorkCounts(t *testing.T) {
	ids, sets := clusteredSkillSets(2000, rand.New(rand.NewSource(1)))
	x := NewSkillJoin(MeasureCosine, 0.9)
	live := make(map[string]model.SkillBits, len(ids))
	for i, id := range ids {
		x.Upsert(id, sets[i])
		live[id] = sets[i]
	}
	if w := x.TakeWork(); w != (JoinWork{}) {
		t.Fatalf("Upsert counted work: %+v", w)
	}
	for _, id := range ids {
		x.Partners(id, func(string) {})
	}
	got := x.TakeWork()
	if want := (JoinWork{Probed: 30980, Verified: 11648, Yielded: 11202}); got != want {
		t.Fatalf("work %+v, want %+v", got, want)
	}
	if pairs := len(naiveJoin(MeasureCosine, 0.9, live)); got.Yielded != 2*uint64(pairs) {
		t.Fatalf("yielded %d partners, want twice the naive join's %d pairs", got.Yielded, pairs)
	}
	if w := x.TakeWork(); w != (JoinWork{}) {
		t.Fatalf("TakeWork left %+v", w)
	}
}

// joinPairs drains Pairs into sorted "a|b" keys.
func joinPairs(x *SkillJoin) []string {
	var out []string
	x.Pairs(func(a, b string) { out = append(out, a+"|"+b) })
	sort.Strings(out)
	return out
}

// TestLSHIndexMatchesNaiveBanding holds the lsh kind's index to its naive
// reference on the audit_churn worker shape (clusteredSkillSets). The kind
// once banded MinHash signatures and was held to naive banding; it is now
// the exact join, whose reference is the O(n²) join. Seeded storms move
// members to other clusters' skill sets, re-upsert them unchanged, and
// remove and re-add them, under cosine 0.9 (the bench's premise), Jaccard
// 0.8 and Dice 0.5.
func TestLSHIndexMatchesNaiveBanding(t *testing.T) {
	for _, c := range []struct {
		m  VectorMeasure
		th float64
	}{{MeasureCosine, 0.9}, {MeasureJaccard, 0.8}, {MeasureDice, 0.5}} {
		for seed := int64(1); seed <= 2; seed++ {
			label := fmt.Sprintf("%s@%v seed %d", c.m.Name, c.th, seed)
			rng := rand.New(rand.NewSource(seed))
			ids, sets := clusteredSkillSets(400, rng)
			x := NewSkillJoin(c.m, c.th)
			live := make(map[string]model.SkillBits, len(ids))
			for i, id := range ids {
				x.Upsert(id, sets[i])
				live[id] = sets[i]
			}
			requireJoinMatches(t, label+" install", x, c.m, c.th, live)
			for step := 0; step < 300; step++ {
				i := rng.Intn(len(ids))
				id := ids[i]
				switch rng.Intn(4) {
				case 0: // take another member's set
					v := sets[rng.Intn(len(sets))]
					x.Upsert(id, v)
					live[id] = v
				case 1: // unchanged
					if v, ok := live[id]; ok {
						x.Upsert(id, v)
					}
				case 2:
					x.Remove(id)
					delete(live, id)
				default:
					x.Upsert(id, sets[i])
					live[id] = sets[i]
				}
			}
			requireJoinMatches(t, label+" storm", x, c.m, c.th, live)
		}
	}
}

// TestLSHIndexIncrementalEqualsBatch: the lsh kind's index built one
// change at a time — every id first installed with a decoy set, a third
// of them removed, then each upserted with its real set — yields the same
// pairs and partners as one built straight from the final sets, though
// the two assign slots and order postings differently. A second batch
// build yields them again.
func TestLSHIndexIncrementalEqualsBatch(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(3))
	sets := make(map[string]model.SkillBits, 80)
	ids := make([]string, 0, 80)
	for i := 0; i < 80; i++ {
		id := fmt.Sprintf("e%02d", i)
		on := rng.Perm(8)[:rng.Intn(6)]
		if rng.Intn(3) == 0 {
			on = append(on, 8+rng.Intn(n-8))
		}
		sets[id] = skillSet(n, on...)
		ids = append(ids, id)
	}
	for _, m := range []VectorMeasure{MeasureCosine, MeasureJaccard, MeasureDice, MeasureExact} {
		for _, th := range []float64{0.5, 0.9} {
			label := fmt.Sprintf("%s@%v", m.Name, th)
			batch := NewSkillJoin(m, th)
			for _, id := range ids {
				batch.Upsert(id, sets[id])
			}
			inc := NewSkillJoin(m, th)
			for i := len(ids) - 1; i >= 0; i-- {
				inc.Upsert(ids[i], skillSet(n, span(0, n)...))
			}
			for i, id := range ids {
				if i%3 == 0 {
					inc.Remove(id)
				}
				inc.Upsert(id, sets[id])
			}
			gb, gi := joinPairs(batch), joinPairs(inc)
			if !slices.Equal(gb, gi) {
				t.Fatalf("%s: batch build yields %d pairs, incremental %d", label, len(gb), len(gi))
			}
			requireJoinMatches(t, label+" incremental", inc, m, th, sets)
			again := NewSkillJoin(m, th)
			for _, id := range ids {
				again.Upsert(id, sets[id])
			}
			if ga := joinPairs(again); !slices.Equal(ga, gb) {
				t.Fatalf("%s: identical data gave different pair sets", label)
			}
			for _, id := range ids {
				if pb, pi := collectPartners(t, batch, id), collectPartners(t, inc, id); !slices.Equal(pb, pi) {
					t.Fatalf("%s: Partners(%s) batch %v, incremental %v", label, id, pb, pi)
				}
			}
		}
	}
}

// joinImage copies x's slots, sets and postings so a later state can be
// compared with it.
type joinImage struct {
	slots map[string]uint32
	sets  []joinSet
	post  map[uint64][]posting
}

func imageOf(x *SkillJoin) joinImage {
	im := joinImage{slots: maps.Clone(x.slots), post: make(map[uint64][]posting, len(x.post))}
	for _, e := range x.sets {
		e.prefix = slices.Clone(e.prefix)
		im.sets = append(im.sets, e)
	}
	for r, list := range x.post {
		im.post[r] = slices.Clone(list)
	}
	return im
}

func (im joinImage) equal(x *SkillJoin) bool {
	if !maps.Equal(im.slots, x.slots) || len(im.sets) != len(x.sets) || len(im.post) != len(x.post) {
		return false
	}
	for i, e := range im.sets {
		o := x.sets[i]
		if e.size != o.size || e.sig != o.sig || e.bits.Len() != o.bits.Len() || !slices.Equal(e.bits.Words(), o.bits.Words()) || !slices.Equal(e.prefix, o.prefix) {
			return false
		}
	}
	for r, list := range im.post {
		if !slices.Equal(list, x.post[r]) {
			return false
		}
	}
	return true
}

// TestLSHIndexSkipsUnchangedTokenSets: re-upserting an id with a skill set
// equal to its stored one — the same vector length and packed words, even
// when packed afresh — leaves the lsh kind's index untouched (slots, sets,
// prefixes and posting order) and allocates nothing. A set with one skill
// changed, or the same skills in a vector of another length, which the
// exact measure tells apart, is re-posted. After each step the index
// yields what a fresh one built from the live sets yields.
func TestLSHIndexSkipsUnchangedTokenSets(t *testing.T) {
	const n = 40
	T, U := span(0, 5), []int{20, 21, 22}
	x := NewSkillJoin(MeasureExact, 1)
	live := make(map[string]model.SkillBits)
	put := func(id string, v model.SkillBits) {
		x.Upsert(id, v)
		live[id] = v
	}
	put("a", skillSet(n, T...))
	put("b", skillSet(n, U...))
	put("c", skillSet(n, T...))
	for _, st := range []struct {
		name string
		do   func()
		skip bool
	}{
		{"Upsert a, b, c repacked", func() {
			put("a", skillSet(n, 4, 3, 2, 1, 0))
			put("b", skillSet(n, U...))
			put("c", skillSet(n, T...))
		}, true},
		{"Upsert a with one skill changed", func() { put("a", skillSet(n, 0, 1, 2, 3, 6)) }, false},
		{"Upsert a changed again, unchanged", func() { put("a", skillSet(n, 0, 1, 2, 3, 6)) }, true},
		{"Upsert c with T in a shorter vector", func() { put("c", skillSet(n-1, T...)) }, false},
		{"Upsert b with no skills", func() { put("b", skillSet(n)) }, false},
		{"Upsert b with no skills again", func() { put("b", skillSet(n)) }, true},
		{"Remove a, then d:U into its slot", func() {
			slot := x.slots["a"]
			x.Remove("a")
			delete(live, "a")
			put("d", skillSet(n, U...))
			if x.slots["d"] != slot {
				t.Fatalf("d took slot %d, want a's freed slot %d", x.slots["d"], slot)
			}
		}, false},
		{"Upsert d:U again", func() { put("d", skillSet(n, U...)) }, true},
	} {
		before := imageOf(x)
		st.do()
		if got := before.equal(x); got != st.skip {
			t.Fatalf("%s: index unchanged = %v, want %v", st.name, got, st.skip)
		}
		fresh := NewSkillJoin(MeasureExact, 1)
		for id, v := range live {
			fresh.Upsert(id, v)
		}
		if gx, gf := joinPairs(x), joinPairs(fresh); !slices.Equal(gx, gf) {
			t.Fatalf("%s: index yields %v, a fresh one %v", st.name, gx, gf)
		}
	}
	v := skillSet(n, T...)
	x.Upsert("c", v)
	if allocs := testing.AllocsPerRun(100, func() { x.Upsert("c", v) }); allocs != 0 {
		t.Fatalf("unchanged Upsert allocates %v times, want 0", allocs)
	}
}

// TestLSHIndexResetBehavesLikeFresh: an index drained by Remove and
// refilled, generation after generation — the reuse that Reset once gave
// the pooled indexes — is observationally identical to a fresh one with
// the same sets. Drained, it holds no postings and yields nothing, and
// refilling reuses the freed slots instead of growing.
func TestLSHIndexResetBehavesLikeFresh(t *testing.T) {
	const n = 30
	rng := rand.New(rand.NewSource(11))
	reused := NewSkillJoin(MeasureCosine, 0.8)
	for gen := 0; gen < 4; gen++ {
		live := make(map[string]model.SkillBits, 40)
		for i := 0; i < 40; i++ {
			live[fmt.Sprintf("g%d-%02d", gen%2, i)] = skillSet(n, rng.Perm(10)[:rng.Intn(6)]...)
		}
		fresh := NewSkillJoin(MeasureCosine, 0.8)
		for id, v := range live {
			fresh.Upsert(id, v)
			reused.Upsert(id, v)
		}
		if len(reused.names) != len(live) {
			t.Fatalf("gen %d: %d slots for %d sets", gen, len(reused.names), len(live))
		}
		if gr, gf := joinPairs(reused), joinPairs(fresh); !slices.Equal(gr, gf) {
			t.Fatalf("gen %d: reused index yields %d pairs, fresh %d", gen, len(gr), len(gf))
		}
		requireJoinMatches(t, fmt.Sprintf("gen %d", gen), reused, MeasureCosine, 0.8, live)
		for id := range live {
			reused.Remove(id)
		}
		if reused.Len() != 0 || len(reused.post) != 0 {
			t.Fatalf("gen %d: drained index holds %d sets, %d postings", gen, reused.Len(), len(reused.post))
		}
		if ps := joinPairs(reused); len(ps) != 0 {
			t.Fatalf("gen %d: drained index still yields %d pairs", gen, len(ps))
		}
	}
}
