package similarity

import "sort"

// CandidateIndex generates the candidate pairs a similarity audit examines,
// replacing the O(n²) all-pairs scan. An index holds one entry per entity
// id, described by a token set (the caller chooses the tokenisation), and
// answers two queries: every candidate pair currently in scope (Pairs, the
// full-scan path) and the candidate partners of one entity (Partners, the
// delta path). Both views describe the same pair set, which is what lets
// an incremental auditor's candidate-pair census stay equal to a full
// scan's. ExactIndex implements it; SkillJoin answers the same two
// queries over packed skill sets, its Upsert taking a model.SkillBits.
//
// Upsert is incremental: re-describing an entity re-indexes only that
// entity. The candidate pair SET is a pure function of the current
// entries, but enumeration ORDER is unspecified; consumers must not depend
// on it. Indexes are not safe for concurrent mutation; the audit engine
// serialises access behind its own lock.
type CandidateIndex interface {
	// Upsert adds or re-describes an entity. The previous token set, if
	// any, is fully replaced.
	Upsert(id string, tokens []uint64)
	// Remove deletes an entity (a no-op for unknown ids).
	Remove(id string)
	// Len returns the number of indexed entities.
	Len() int
	// Pairs calls yield exactly once for every candidate pair, with a < b.
	Pairs(yield func(a, b string))
	// Partners calls yield exactly once for every candidate partner of id
	// (never id itself); a no-op for unknown ids.
	Partners(id string, yield func(partner string))
}

// ExactIndex is the inverted-token-index CandidateIndex: a pair is a
// candidate iff the two entities share at least one token. With skill
// positions as tokens (and one sentinel token for an empty skill set) it
// is the exact candidate kind's skill-sharing index. It finds every pair
// that is similar under a measure that needs a shared skill — cosine,
// Jaccard, Dice and exact, at a threshold above 0 — but not every pair
// Hamming rates similar, since Hamming counts the skills both lack as
// agreement (see Joinable).
type ExactIndex struct {
	// tokens holds each id's sorted, deduplicated token set.
	tokens map[string][]uint64
	// buckets is the inverted index: token -> member ids.
	buckets map[uint64]map[string]bool
}

// NewExactIndex returns an empty exact index.
func NewExactIndex() *ExactIndex {
	return &ExactIndex{
		tokens:  make(map[string][]uint64),
		buckets: make(map[uint64]map[string]bool),
	}
}

// Len implements CandidateIndex.
func (x *ExactIndex) Len() int { return len(x.tokens) }

// Upsert implements CandidateIndex.
func (x *ExactIndex) Upsert(id string, tokens []uint64) {
	ts := normaliseTokens(tokens)
	if old, ok := x.tokens[id]; ok {
		if tokensEqual(old, ts) {
			return
		}
		x.dropFromBuckets(id, old)
	}
	x.tokens[id] = ts
	for _, t := range ts {
		b := x.buckets[t]
		if b == nil {
			b = make(map[string]bool)
			x.buckets[t] = b
		}
		b[id] = true
	}
}

// Remove implements CandidateIndex.
func (x *ExactIndex) Remove(id string) {
	old, ok := x.tokens[id]
	if !ok {
		return
	}
	x.dropFromBuckets(id, old)
	delete(x.tokens, id)
}

func (x *ExactIndex) dropFromBuckets(id string, tokens []uint64) {
	for _, t := range tokens {
		if b := x.buckets[t]; b != nil {
			delete(b, id)
			if len(b) == 0 {
				delete(x.buckets, t)
			}
		}
	}
}

// Pairs implements CandidateIndex. Each bucket contributes its member
// pairs, and the pair is emitted only from the bucket of the smallest
// token the two ids share, so no pair is yielded twice and no cross-bucket
// dedup set is ever materialised — enumeration streams in O(1) extra
// memory no matter how many candidate pairs exist.
func (x *ExactIndex) Pairs(yield func(a, b string)) {
	for t, b := range x.buckets {
		if len(b) < 2 {
			continue
		}
		members := make([]string, 0, len(b))
		for id := range b {
			members = append(members, id)
		}
		sort.Strings(members)
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				if smallestSharedToken(x.tokens[members[i]], x.tokens[members[j]]) == t {
					yield(members[i], members[j])
				}
			}
		}
	}
}

// Partners implements CandidateIndex.
func (x *ExactIndex) Partners(id string, yield func(partner string)) {
	ts, ok := x.tokens[id]
	if !ok {
		return
	}
	seen := getSeen(id)
	defer putSeen(seen)
	for _, t := range ts {
		for p := range x.buckets[t] {
			if !seen[p] {
				seen[p] = true
				yield(p)
			}
		}
	}
}

// smallestSharedToken merges two sorted token sets and returns their
// smallest common token (both sets are known to share at least one when
// called from Pairs).
func smallestSharedToken(a, b []uint64) uint64 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return a[i]
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return emptyTokenSentinel
}

// emptyTokenSentinel is returned by smallestSharedToken for disjoint sets;
// it is never a bucket key for a shared pair because normaliseTokens keeps
// real tokens as-is.
const emptyTokenSentinel = ^uint64(0)

// normaliseTokens returns a sorted, deduplicated copy of tokens.
func normaliseTokens(tokens []uint64) []uint64 {
	out := append([]uint64(nil), tokens...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 0
	for i, t := range out {
		if i == 0 || t != out[w-1] {
			out[w] = t
			w++
		}
	}
	return out[:w]
}

func tokensEqual(a, b []uint64) bool {
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

// mix64 is the splitmix64 finalizer: an invertible avalanche mix whose
// output behaves as a uniform hash of its input.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashToken maps an arbitrary string to a uint64 token (FNV-1a folded
// through mix64, so short strings still spread over the full word).
func HashToken(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}
