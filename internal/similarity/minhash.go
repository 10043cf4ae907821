package similarity

import "math"

// MinHash signatures over uint64 token sets, the candidate-pruning kernel
// behind LSHIndex. A MinHasher is a seed-deterministic family of k hash
// functions h_i(t) = (aᵢ·mix64(t) + bᵢ) >> 32 — one strong base hash per
// token, then a 2-universal multiply-add-shift per slot (Dietzfelbinger's
// scheme, the shape MinHash libraries conventionally use), which keeps
// signature cost at one multiply-add per slot instead of a full avalanche
// mix. The signature of a token set is the per-function minimum. Two sets'
// signatures agree at position i with probability (approximately) equal to
// their Jaccard similarity, which is what the banded index exploits — and
// what the recall-bound test pins empirically. The same seed always yields
// the same family, so signatures — and therefore candidate sets and audit
// reports — are byte-identical run to run.

// emptySlot is the signature value of a position no token ever hashed to
// (only possible for an empty token set).
const emptySlot = uint32(math.MaxUint32)

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

// Mix64 exposes the mixer for callers composing their own token hashes
// (e.g. combining a field-name hash with a bucketed value).
func Mix64(x uint64) uint64 { return mix64(x) }

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

// MinHasher is a fixed family of k seed-derived hash functions. Safe for
// concurrent use (it is immutable after construction).
type MinHasher struct {
	a []uint64 // odd multipliers
	b []uint64 // offsets
}

// NewMinHasher derives a k-function family from seed. The multiplier and
// offset streams follow the splitmix64 sequence (multipliers forced odd,
// as multiply-add-shift requires), so distinct seeds give independent
// families and the same seed always gives the same one. k must be >= 1;
// it panics otherwise.
func NewMinHasher(k int, seed uint64) *MinHasher {
	if k < 1 {
		panic("similarity: minhash family size must be >= 1")
	}
	m := &MinHasher{a: make([]uint64, k), b: make([]uint64, k)}
	s := seed
	for i := range m.a {
		s += 0x9e3779b97f4a7c15
		m.a[i] = mix64(s) | 1
		s += 0x9e3779b97f4a7c15
		m.b[i] = mix64(s)
	}
	return m
}

// K returns the family size (the signature length).
func (m *MinHasher) K() int { return len(m.a) }

// Signature computes the k-slot MinHash signature of a token set.
// Duplicate tokens are harmless (min is idempotent); an empty set yields
// the all-emptySlot signature, which collides only with other empty sets.
func (m *MinHasher) Signature(tokens []uint64) []uint32 {
	return m.AppendSignature(nil, tokens)
}

// AppendSignature is Signature into caller-provided storage: dst is resized
// (reallocating only when capacity is short) and returned. It lets index
// code hash into a stack buffer instead of allocating one slice per hashed
// entity.
//
// The loop is slot-major: each token is mixed once into a buffer (on the
// stack up to 64 tokens), then every slot's minimum is kept in a register
// across all tokens, four slots at a time, so the signature is written once
// instead of read and written per token. Min is order-free, so the result
// is bit-identical to a token-major loop.
func (m *MinHasher) AppendSignature(dst []uint32, tokens []uint64) []uint32 {
	k := len(m.a)
	sig := dst
	if cap(sig) < k {
		sig = make([]uint32, k)
	} else {
		sig = sig[:k]
	}
	var buf [64]uint64
	hs := buf[:0]
	if len(tokens) > len(buf) {
		hs = make([]uint64, 0, len(tokens))
	}
	for _, t := range tokens {
		hs = append(hs, mix64(t))
	}
	a, b := m.a, m.b[:k]
	i := 0
	for ; i+4 <= k; i += 4 {
		m0, m1, m2, m3 := emptySlot, emptySlot, emptySlot, emptySlot
		a0, a1, a2, a3 := a[i], a[i+1], a[i+2], a[i+3]
		b0, b1, b2, b3 := b[i], b[i+1], b[i+2], b[i+3]
		for _, h := range hs {
			m0 = min(m0, uint32((a0*h+b0)>>32))
			m1 = min(m1, uint32((a1*h+b1)>>32))
			m2 = min(m2, uint32((a2*h+b2)>>32))
			m3 = min(m3, uint32((a3*h+b3)>>32))
		}
		sig[i], sig[i+1], sig[i+2], sig[i+3] = m0, m1, m2, m3
	}
	for ; i < k; i++ {
		mi := emptySlot
		for _, h := range hs {
			mi = min(mi, uint32((a[i]*h+b[i])>>32))
		}
		sig[i] = mi
	}
	return sig
}

// EstimateJaccard estimates the Jaccard similarity of the two token sets a
// pair of equal-length signatures was computed from: the fraction of
// agreeing slots. It panics on length mismatch (signatures from different
// families are not comparable).
func EstimateJaccard(a, b []uint32) float64 {
	if len(a) != len(b) {
		panic("similarity: signatures of different minhash families")
	}
	if len(a) == 0 {
		return 1
	}
	agree := 0
	for i := range a {
		if a[i] == b[i] {
			agree++
		}
	}
	return float64(agree) / float64(len(a))
}
