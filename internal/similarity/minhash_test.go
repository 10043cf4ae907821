package similarity

import (
	"math/rand"
	"testing"
)

// referenceSignature is the token-major MinHash loop AppendSignature
// replaced: for every token, one pass over all k slots reading and writing
// the signature. It is the oracle the slot-major kernel must match bit for
// bit.
func referenceSignature(m *MinHasher, tokens []uint64) []uint32 {
	sig := make([]uint32, len(m.a))
	for i := range sig {
		sig[i] = emptySlot
	}
	for _, t := range tokens {
		h := mix64(t)
		for i := range m.a {
			if v := uint32((m.a[i]*h + m.b[i]) >> 32); v < sig[i] {
				sig[i] = v
			}
		}
	}
	return sig
}

func TestAppendSignatureMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	randomTokens := func(n int) []uint64 {
		toks := make([]uint64, n)
		for i := range toks {
			toks[i] = rng.Uint64()
		}
		return toks
	}
	// The empty set, one token, duplicates, the last stack-buffered length
	// (64), the first heap-buffered ones, and a long set.
	sets := [][]uint64{nil, {}, {42}, {7, 7, 7}, {3, 9, 3, 1, 9}}
	for _, n := range []int{2, 26, 63, 64, 65, 66, 200} {
		sets = append(sets, randomTokens(n))
	}
	dup := randomTokens(40)
	sets = append(sets, append(dup, dup...)) // 80 tokens, each twice
	for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 13, 128, 539, 540, 541} {
		m := NewMinHasher(k, uint64(k)*977)
		for si, toks := range sets {
			want := referenceSignature(m, toks)
			if got := m.Signature(toks); !sigsEqual(got, want) {
				t.Fatalf("k=%d set %d (%d tokens): slot-major signature differs from token-major reference", k, si, len(toks))
			}
			// Into recycled storage: a dirty buffer of spare capacity must
			// be fully overwritten, and reused rather than reallocated.
			dst := make([]uint32, k+3)
			for i := range dst {
				dst[i] = uint32(rng.Int63())
			}
			got := m.AppendSignature(dst[:1], toks)
			if !sigsEqual(got, want) {
				t.Fatalf("k=%d set %d: signature into a recycled buffer differs from reference", k, si)
			}
			if &got[0] != &dst[0] {
				t.Fatalf("k=%d set %d: AppendSignature reallocated despite sufficient capacity", k, si)
			}
		}
	}
}

// BenchmarkAppendSignature times one signature at the worker plan's width
// (K = 540: 6 rows × 90 bands at the default 0.9 skill threshold) over a
// typical worker token set (26 tokens: weighted skills plus bucketed
// attributes), into a recycled buffer as the index hashes it.
func BenchmarkAppendSignature(b *testing.B) {
	p := ChooseLSHParams(0.9, 1)
	m := NewMinHasher(p.K(), p.Seed)
	rng := rand.New(rand.NewSource(1))
	toks := make([]uint64, 26)
	for i := range toks {
		toks[i] = rng.Uint64()
	}
	sig := make([]uint32, p.K())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig = m.AppendSignature(sig, toks)
	}
}
