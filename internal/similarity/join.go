package similarity

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/model"
)

// SkillJoin is an exact similarity join over packed skill sets: Partners
// and Pairs yield exactly the pairs whose measure(a, b) >= threshold, the
// skill premise of Axioms 1 and 2. It finds them by prefix filtering with
// verification (Bayardo, Ma & Srikant, WWW 2007; Xiao et al., WWW 2008):
//
//   - Every skill has a fixed rank, mix64 of its position (a bijection, so
//     no two skills tie), and a set's tokens are its skills in rank order;
//     an empty set is the one token emptySkills, which pairs it with other
//     empty sets only.
//   - The measure fixes a factor f in (0, 1] (cosine t², Jaccard t, Dice
//     t/(2−t), exact 1) such that two sets of sizes a and b can only meet
//     the threshold when they share at least ⌈f·a⌉ tokens, so also when
//     f·a <= b <= a/f (the length bound).
//   - A set posts its prefix, its first a − ⌈f·a⌉ + 1 tokens: two sets that
//     share that many tokens share a prefix token, in the order every set
//     uses.
//   - A probe walks the postings of its own prefix only, drops partners
//     that fail the length bound or that an earlier prefix token already
//     produced, and verifies the rest by calling the measure itself on the
//     packed words, so no pair is yielded that the checker would reject.
//
// The bounds are computed with a relative slack of joinSlack, so rounding
// in f or in the measure can only lengthen a prefix or widen the length
// bound: a candidate too many costs one verification, and a pair is never
// lost. The result is a pure function of the stored sets: slot numbers and
// posting order depend on install order, Partners' order is unspecified and
// Pairs orders each pair by id.
//
// A SkillJoin keeps each set's packed words as given (model.SkillBits is
// immutable once packed) and is not safe for concurrent mutation; Partners
// and Pairs may run concurrently with each other.
type SkillJoin struct {
	measure VectorMeasure
	t, f    float64
	// slots maps an id to its slot and names maps it back; freed holds
	// released slots, whose names entry is "".
	slots map[string]uint32
	names []string
	freed []uint32
	sets  []joinSet
	// post maps a token's rank to the slots whose prefix holds it.
	post map[uint64][]uint32
}

// joinSet is one slot's skill set: its packed words, its token count and
// its prefix in rank order, each token with its position in post[rank].
type joinSet struct {
	bits   model.SkillBits
	size   int
	prefix []prefixToken
}

type prefixToken struct {
	rank uint64
	at   uint32
}

// emptySkills is the one token of an empty skill set (no skill position is
// this large).
const emptySkills = math.MaxUint64

// joinSlack is the relative slack of the prefix and length bounds.
const joinSlack = 1e-9

// joinFactor is the factor f of the measure m at threshold t (see
// SkillJoin), or ok=false when m has no such bound: Hamming, whose
// agreement counts the skills both sets lack, any measure not built in, and
// every measure at t <= 0, which every pair meets.
func joinFactor(m VectorMeasure, t float64) (f float64, ok bool) {
	if t <= 0 {
		return 0, false
	}
	switch m.Name {
	case MeasureCosine.Name:
		return t * t, true
	case MeasureJaccard.Name:
		return t, true
	case MeasureDice.Name:
		return t / (2 - t), true
	case MeasureExact.Name:
		return 1, true
	}
	return 0, false
}

// Joinable reports whether pairs meeting measure m at threshold t share a
// skill (or are both empty), so a SkillJoin finds all of them. When it is
// false, every pair has to be examined.
func Joinable(m VectorMeasure, t float64) bool {
	_, ok := joinFactor(m, t)
	return ok
}

// NewSkillJoin returns an empty join for measure m at threshold t. It
// panics unless Joinable(m, t).
func NewSkillJoin(m VectorMeasure, t float64) *SkillJoin {
	f, ok := joinFactor(m, t)
	if !ok {
		panic("similarity: no prefix bound for measure " + m.Name)
	}
	return &SkillJoin{
		measure: m, t: t, f: f,
		slots: make(map[string]uint32),
		post:  make(map[uint64][]uint32),
	}
}

// Len returns the number of stored sets.
func (x *SkillJoin) Len() int { return len(x.slots) }

// Upsert stores id's skill set, replacing any earlier one. A set equal to
// the stored one (same length and words) changes nothing.
func (x *SkillJoin) Upsert(id string, v model.SkillBits) {
	s, ok := x.slots[id]
	if ok {
		old := &x.sets[s]
		if old.bits.Len() == v.Len() && slices.Equal(old.bits.Words(), v.Words()) {
			return
		}
		x.unpost(s)
	} else {
		s = x.claim(id)
	}
	e := &x.sets[s]
	e.bits = v
	var buf [64]uint64
	ranks := appendRanks(buf[:0], v)
	e.size = len(ranks)
	n := x.prefixLen(e.size)
	e.prefix = slices.Grow(e.prefix[:0], n)[:n]
	for i, r := range ranks[:n] {
		e.prefix[i] = prefixToken{rank: r, at: uint32(len(x.post[r]))}
		x.post[r] = append(x.post[r], s)
	}
}

// Remove deletes id's set (a no-op for unknown ids).
func (x *SkillJoin) Remove(id string) {
	s, ok := x.slots[id]
	if !ok {
		return
	}
	x.unpost(s)
	x.sets[s].bits = model.SkillBits{}
	x.names[s] = ""
	delete(x.slots, id)
	x.freed = append(x.freed, s)
}

// claim gives a new id a slot, reusing a freed one if any.
func (x *SkillJoin) claim(id string) uint32 {
	var s uint32
	if n := len(x.freed); n > 0 {
		s = x.freed[n-1]
		x.freed = x.freed[:n-1]
		x.names[s] = id
	} else {
		s = uint32(len(x.names))
		x.names = append(x.names, id)
		x.sets = append(x.sets, joinSet{})
	}
	x.slots[id] = s
	return s
}

// unpost takes slot s out of the postings of its prefix. Each removal
// moves the posting's last slot into the hole and updates that slot's
// recorded position, so it costs O(1) per token however long the posting.
func (x *SkillJoin) unpost(s uint32) {
	for _, p := range x.sets[s].prefix {
		list := x.post[p.rank]
		last := len(list) - 1
		if moved := list[last]; int(p.at) != last {
			list[p.at] = moved
			for i := range x.sets[moved].prefix {
				if q := &x.sets[moved].prefix[i]; q.rank == p.rank {
					q.at = p.at
					break
				}
			}
		}
		if last == 0 {
			delete(x.post, p.rank)
		} else {
			x.post[p.rank] = list[:last]
		}
	}
	x.sets[s].prefix = x.sets[s].prefix[:0]
}

// appendRanks appends the ranks of v's tokens in ascending order.
func appendRanks(dst []uint64, v model.SkillBits) []uint64 {
	if v.Count() == 0 {
		return append(dst, mix64(emptySkills))
	}
	for i, w := range v.Words() {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, mix64(uint64(i*64+bits.TrailingZeros64(w))))
		}
	}
	slices.Sort(dst)
	return dst
}

// mix64 is the splitmix64 finalizer: an invertible avalanche mix whose
// output behaves as a uniform hash of its input, so it ranks skills in an
// order unrelated to their positions.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// prefixLen is the prefix length of a set of size n: n − ⌈f·n⌉ + 1, with
// ⌈f·n⌉ taken on the low side by the slack, and none when f·n exceeds n
// (a threshold above 1, which no pair meets).
func (x *SkillJoin) prefixLen(n int) int {
	need := math.Ceil(x.f*float64(n) - joinSlack*float64(n))
	return max(0, min(n, n-int(need)+1))
}

// sizesFit is the length bound: sets of sizes a and b can meet the
// threshold only when f·max(a, b) <= min(a, b), up to the slack.
func (x *SkillJoin) sizesFit(a, b int) bool {
	lo, hi := float64(min(a, b)), float64(max(a, b))
	return x.f*hi-lo <= joinSlack*hi
}

// Partners calls yield once for every stored set that meets the threshold
// with id's (never id itself); a no-op for unknown ids.
func (x *SkillJoin) Partners(id string, yield func(partner string)) {
	s, ok := x.slots[id]
	if !ok {
		return
	}
	x.partners(s, func(m uint32) { yield(x.names[m]) })
}

// partners walks slot s's prefix postings. A partner met at prefix token i
// is skipped when its prefix also holds one of s's tokens before i: it was
// met there first. Both prefixes are in rank order, so that is a merge of
// two short lists.
func (x *SkillJoin) partners(s uint32, yield func(m uint32)) {
	e := &x.sets[s]
	for i, p := range e.prefix {
		for _, m := range x.post[p.rank] {
			if m == s {
				continue
			}
			o := &x.sets[m]
			if !x.sizesFit(e.size, o.size) || sharesBefore(e.prefix[:i], o.prefix, p.rank) {
				continue
			}
			if x.measure.Func(e.bits, o.bits) >= x.t {
				yield(m)
			}
		}
	}
}

// sharesBefore reports whether a and b, both in rank order, share a token
// ranked below r.
func sharesBefore(a, b []prefixToken, r uint64) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) && b[j].rank < r {
		switch {
		case a[i].rank == b[j].rank:
			return true
		case a[i].rank < b[j].rank:
			i++
		default:
			j++
		}
	}
	return false
}

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
