package similarity

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/model"
)

// SkillJoin is an exact similarity join over packed skill sets: Partners
// yields exactly the partners whose measure(a, b) >= threshold, the
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
//   - Every posting entry carries its set's size and a 64-bit signature,
//     bit rank%64 set for each of the set's tokens (the rank is mix64 of
//     the skill, so the bit is a hash of it). Each signature bit of one
//     set that the other's lacks marks a token of the first set the second
//     does not hold, and distinct bits mark distinct tokens, so two sets of
//     sizes a and b with signatures sa and sb share at most
//     min(a − popcount(sa &^ sb), b − popcount(sb &^ sa)) tokens (the
//     overlap bound). The measure fixes the least overlap that can meet
//     the threshold: cosine t·√(ab), Jaccard t(a+b)/(1+t), Dice t(a+b)/2,
//     exact a (= b).
//   - A probe walks the postings of its own prefix only, drops partners
//     that fail the length bound or the overlap bound, both read off the
//     posting entry, or that an earlier prefix token already produced, and
//     verifies the rest by calling the measure itself on the packed words,
//     so no pair is yielded that the checker would reject.
//
// The bounds are computed with a relative slack of joinSlack, so rounding
// in f, g or the measure can only lengthen a prefix or widen the length
// and overlap bounds: a candidate too many costs one verification, and a
// pair is never lost. The result is a pure function of the stored sets:
// slot numbers and posting order depend on install order, and Partners'
// order is unspecified.
//
// A SkillJoin keeps each set's packed words as given (model.SkillBits is
// immutable once packed) and is not safe for concurrent mutation; Partners
// calls may run concurrently with each other. It counts the work its
// Partners calls do (see TakeWork).
type SkillJoin struct {
	measure VectorMeasure
	t, f    float64
	// g is the least overlap per token of a+b (Jaccard, Dice, exact); 0
	// for cosine, whose least overlap is √(f·ab).
	g float64
	// slots maps an id to its slot and names maps it back; freed holds
	// released slots, whose names entry is "".
	slots map[string]uint32
	names []string
	freed []uint32
	sets  []joinSet
	// post maps a token's rank to the entries of the sets whose prefix
	// holds it.
	post map[uint64][]posting
	// probed, verified and yielded count the Partners walks' posting
	// entries, measure calls and partners.
	probed, verified, yielded atomic.Uint64
}

// joinSet is one slot's skill set: its packed words, its token count, its
// signature and its prefix in rank order, each token with its position in
// post[rank].
type joinSet struct {
	bits   model.SkillBits
	size   int
	sig    uint64
	prefix []prefixToken
}

// posting is one set's entry in the posting of a prefix token: its slot,
// and the size and signature the length and overlap bounds read, so a
// candidate those reject is never loaded.
type posting struct {
	slot uint32
	size uint32
	sig  uint64
}

type prefixToken struct {
	rank uint64
	at   uint32
}

// emptySkills is the one token of an empty skill set (no skill position is
// this large).
const emptySkills = math.MaxUint64

// joinSlack is the relative slack of the prefix, length and overlap
// bounds.
const joinSlack = 1e-9

// joinFactor is the factor f of the measure m at threshold t and its
// least overlap per token of a+b, g (0 for cosine; see SkillJoin), or
// ok=false when m has no such bound: Hamming, whose agreement counts the
// skills both sets lack, any measure not built in, and every measure at
// t <= 0, which every pair meets.
func joinFactor(m VectorMeasure, t float64) (f, g float64, ok bool) {
	if t <= 0 {
		return 0, 0, false
	}
	switch m.Name {
	case MeasureCosine.Name:
		return t * t, 0, true
	case MeasureJaccard.Name:
		return t, t / (1 + t), true
	case MeasureDice.Name:
		return t / (2 - t), t / 2, true
	case MeasureExact.Name:
		return 1, 0.5, true
	}
	return 0, 0, false
}

// Joinable reports whether pairs meeting measure m at threshold t share a
// skill (or are both empty), so a SkillJoin finds all of them. When it is
// false, every pair has to be examined.
func Joinable(m VectorMeasure, t float64) bool {
	_, _, ok := joinFactor(m, t)
	return ok
}

// NewSkillJoin returns an empty join for measure m at threshold t. It
// panics unless Joinable(m, t).
func NewSkillJoin(m VectorMeasure, t float64) *SkillJoin {
	f, g, ok := joinFactor(m, t)
	if !ok {
		panic("similarity: no prefix bound for measure " + m.Name)
	}
	return &SkillJoin{
		measure: m, t: t, f: f, g: g,
		slots: make(map[string]uint32),
		post:  make(map[uint64][]posting),
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
	e.sig = 0
	for _, r := range ranks {
		e.sig |= 1 << (r % 64)
	}
	n := x.prefixLen(e.size)
	e.prefix = slices.Grow(e.prefix[:0], n)[:n]
	entry := posting{slot: s, size: uint32(e.size), sig: e.sig}
	for i, r := range ranks[:n] {
		e.prefix[i] = prefixToken{rank: r, at: uint32(len(x.post[r]))}
		x.post[r] = append(x.post[r], entry)
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
			for i := range x.sets[moved.slot].prefix {
				if q := &x.sets[moved.slot].prefix[i]; q.rank == p.rank {
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

// candidateFits reports whether the set behind posting entry q passes the
// length and overlap bounds against set e. The overlap bound holds when
// the most tokens the signatures let the sets share reaches the measure's
// least overlap, up to the slack; cosine compares squares, so neither
// bound takes a square root or divides.
func (x *SkillJoin) candidateFits(e *joinSet, q posting) bool {
	a, b := e.size, int(q.size)
	if !x.sizesFit(a, b) {
		return false
	}
	o := float64(min(a-bits.OnesCount64(e.sig&^q.sig), b-bits.OnesCount64(q.sig&^e.sig)))
	if x.g == 0 {
		need := x.f * float64(a) * float64(b)
		return need-o*o <= joinSlack*need
	}
	need := x.g * float64(a+b)
	return need-o <= joinSlack*need
}

// JoinWork counts a SkillJoin's work: the posting entries its Partners
// walks probed (never the probing set's own), the candidates that passed
// every bound and were verified by the measure, and the partners yielded.
// Each pair that meets the threshold is yielded once from each side.
type JoinWork struct {
	Probed, Verified, Yielded uint64
}

// TakeWork returns the work of the Partners calls since the last TakeWork
// and zeroes the counts. It must not run concurrently with Partners.
func (x *SkillJoin) TakeWork() JoinWork {
	return JoinWork{Probed: x.probed.Swap(0), Verified: x.verified.Swap(0), Yielded: x.yielded.Swap(0)}
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
// two short lists. It reads a candidate's set only once the length and
// overlap bounds have passed on its posting entry, and adds its work to
// the counts once per call.
func (x *SkillJoin) partners(s uint32, yield func(m uint32)) {
	e := &x.sets[s]
	var probed, verified, yielded uint64
	for i, p := range e.prefix {
		list := x.post[p.rank]
		probed += uint64(len(list) - 1) // every posting of s's prefix holds s
		for _, q := range list {
			if q.slot == s || !x.candidateFits(e, q) {
				continue
			}
			c := &x.sets[q.slot]
			if sharesBefore(e.prefix[:i], c.prefix, p.rank) {
				continue
			}
			verified++
			if x.measure.Func(e.bits, c.bits) >= x.t {
				yielded++
				yield(q.slot)
			}
		}
	}
	x.probed.Add(probed)
	x.verified.Add(verified)
	x.yielded.Add(yielded)
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
