package similarity

import (
	"math"
	"sort"

	"repro/internal/par"
)

// LSHParams fixes the shape of a banded MinHash index: Bands × Rows hash
// functions, signature sliced into Bands bands of Rows slots each, and a
// pair becomes a candidate iff some band hashes identically for both
// entities. The candidate probability for Jaccard similarity j is
// 1 − (1 − j^Rows)^Bands. Seed derives the hash family; all three fields
// must match for two indexes to generate the same candidate sets.
type LSHParams struct {
	Bands int
	Rows  int
	Seed  uint64
}

// K returns the signature length Bands × Rows.
func (p LSHParams) K() int { return p.Bands * p.Rows }

// CandidateProbability returns the probability that a pair with Jaccard
// similarity j lands in at least one shared band.
func (p LSHParams) CandidateProbability(j float64) float64 {
	return 1 - math.Pow(1-math.Pow(j, float64(p.Rows)), float64(p.Bands))
}

// ChooseLSHParams picks band/row parameters from a cosine similarity
// threshold t in (0, 1]. The worst-case Jaccard of a pair at cosine t over
// token sets is t² (attained by nested sets), so the parameters are sized
// to catch Jaccard s₀ = 0.8·t² — a safety margin below the worst case —
// with miss probability ≤ 0.1% per pair:
//
//	bands = ceil(ln(0.001) / ln(1 − s₀^rows))
//
// Rows are chosen adaptively: the largest row count in [3, 8] whose band
// requirement fits the 128-band budget. More rows per band sharpen the
// S-curve — dissimilar pairs fall off as J^rows — so high thresholds,
// which can afford them, generate far fewer spurious candidates on
// populations where many entities share a single common token (t = 0.9 →
// 6 rows × 90 bands; t = 0.8 → 4 rows × 98 bands).
func ChooseLSHParams(threshold float64, seed uint64) LSHParams {
	if threshold <= 0 || threshold > 1 {
		panic("similarity: LSH threshold must be in (0, 1]")
	}
	s0 := 0.8 * threshold * threshold
	bandsFor := func(rows int) int {
		return int(math.Ceil(math.Log(0.001) / math.Log(1-math.Pow(s0, float64(rows)))))
	}
	rows := 3
	for r := 8; r > 3; r-- {
		if bandsFor(r) <= 128 {
			rows = r
			break
		}
	}
	bands := bandsFor(rows)
	if bands < 4 {
		bands = 4
	}
	if bands > 128 {
		bands = 128
	}
	return LSHParams{Bands: bands, Rows: rows, Seed: seed}
}

// LSHIndex is the banded-MinHash CandidateIndex. Each entity's token set is
// reduced to a signature once on Upsert; candidate generation then touches
// only bucket maps, never token sets, so an entity update re-hashes exactly
// one entity and full-pass enumeration is linear in the number of occupied
// buckets plus emitted pairs.
type LSHIndex struct {
	params LSHParams
	hasher *MinHasher
	// sigs holds each id's full signature (kept for EstimateJaccard-style
	// introspection and for serialization).
	sigs map[string][]uint32
	// bandHashes caches each id's per-band bucket keys so Remove and the
	// first-shared-band dedup never recompute them.
	bandHashes map[string][]uint64
	// buckets[b] maps a band-b hash to the ids currently in that bucket,
	// kept sorted. Slices instead of member maps keep index construction
	// allocation-light (one growing slice per occupied bucket rather than
	// millions of small maps) and give Pairs pre-sorted members for free;
	// buckets stay small under any reasonable banding, so the O(len)
	// sorted insert and delete are cheaper than map bookkeeping.
	buckets []map[uint64][]string
	// sigFree/bhFree recycle the signature and band-hash storage of
	// removed, replaced, or Reset entries, so a pooled transient index
	// (fairness.ContribCandidates builds one per dirty task) re-upserts,
	// and a long-lived one bulk-refreshes, without allocating per entity.
	// Consequence of recycling: a slice returned by Signature/Signatures is
	// valid only until its entity is re-upserted or removed.
	sigFree [][]uint32
	bhFree  [][]uint64
}

// NewLSHIndex returns an empty index with the given parameters.
func NewLSHIndex(params LSHParams) *LSHIndex {
	if params.Bands < 1 || params.Rows < 1 {
		panic("similarity: LSH bands and rows must be >= 1")
	}
	ix := &LSHIndex{
		params:     params,
		hasher:     NewMinHasher(params.K(), params.Seed),
		sigs:       make(map[string][]uint32),
		bandHashes: make(map[string][]uint64),
		buckets:    make([]map[uint64][]string, params.Bands),
	}
	for b := range ix.buckets {
		ix.buckets[b] = make(map[uint64][]string)
	}
	return ix
}

// Params returns the index's parameters.
func (x *LSHIndex) Params() LSHParams { return x.params }

// Name implements CandidateIndex.
func (x *LSHIndex) Name() string { return "lsh" }

// Len implements CandidateIndex.
func (x *LSHIndex) Len() int { return len(x.sigs) }

// Upsert implements CandidateIndex.
func (x *LSHIndex) Upsert(id string, tokens []uint64) {
	x.UpsertSignature(id, x.hasher.AppendSignature(take(&x.sigFree), tokens))
}

// take pops a recycled buffer off a freelist (nil when it is empty; the
// Append* helpers then allocate).
func take[T any](free *[][]T) []T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	buf := (*free)[n-1]
	*free = (*free)[:n-1]
	return buf
}

// UpsertSignature installs one precomputed signature (as produced by this
// index's Hasher); BulkUpsertSignatures is the batch form. It panics on
// signature length mismatch.
func (x *LSHIndex) UpsertSignature(id string, sig []uint32) {
	if len(sig) != x.params.K() {
		panic("similarity: signature length does not match LSH params")
	}
	if old, ok := x.sigs[id]; ok {
		if sigsEqual(old, sig) {
			return
		}
		x.dropFromBuckets(id)
		x.sigFree = append(x.sigFree, old)
		x.bhFree = append(x.bhFree, x.bandHashes[id])
	}
	bh := x.appendBandHashes(take(&x.bhFree), sig)
	x.sigs[id] = sig
	x.bandHashes[id] = bh
	for b, h := range bh {
		x.link(b, h, id)
	}
}

// BulkUpsertSignatures installs many precomputed signatures at once — the
// one install path behind cold builds, checkpoint restores and delta
// refreshes (builds and refreshes through BulkUpsert). It is equivalent to
// calling UpsertSignature(ids[i], sigs[i]) in order: a serial pre-pass skips
// unchanged entries, band hashing fans out per entity on the parallel pool,
// and then one goroutine per band unlinks each replaced entry from its old
// bucket and links it into its new one. Buckets are kept sorted, so the
// result is identical to the serial build's. Band-hash storage comes from
// the freelist, and replaced storage goes back to it. ids must be distinct;
// it panics on a length mismatch between ids and sigs or between a
// signature and the index parameters.
func (x *LSHIndex) BulkUpsertSignatures(ids []string, sigs [][]uint32) {
	x.bulkInstall(ids, sigs, false)
}

// BulkUpsert is BulkUpsertSignatures over token sets: signatures are
// computed on the parallel pool into buffers taken from the index's
// freelist, and the buffers of entries found unchanged go back to it, so
// refreshing the same ids round after round neither allocates signature
// storage nor grows the freelists.
func (x *LSHIndex) BulkUpsert(ids []string, tokens func(i int) []uint64) {
	sigs := make([][]uint32, len(ids))
	for i := range sigs {
		sigs[i] = take(&x.sigFree)
	}
	par.For(len(ids), 0, func(i int) {
		sigs[i] = x.hasher.AppendSignature(sigs[i], tokens(i))
	})
	x.bulkInstall(ids, sigs, true)
}

// bulkInstall is BulkUpsertSignatures; owned says the index may recycle the
// signatures it skips as unchanged (BulkUpsert took them from its freelist).
func (x *LSHIndex) bulkInstall(ids []string, sigs [][]uint32, owned bool) {
	if len(ids) != len(sigs) {
		panic("similarity: ids/sigs length mismatch")
	}
	// Serial pre-pass: validate, skip unchanged entries, take band-hash
	// storage, and keep each replaced entry's old band hashes (nil for a new
	// id) for the band pass.
	keep := make([]int, 0, len(ids))
	olds := make([][]uint64, 0, len(ids))
	bhs := make([][]uint64, 0, len(ids))
	for i, id := range ids {
		if len(sigs[i]) != x.params.K() {
			panic("similarity: signature length does not match LSH params")
		}
		old, ok := x.sigs[id]
		if ok && sigsEqual(old, sigs[i]) {
			if owned {
				x.sigFree = append(x.sigFree, sigs[i])
			}
			continue
		}
		if ok {
			x.sigFree = append(x.sigFree, old)
		}
		keep = append(keep, i)
		olds = append(olds, x.bandHashes[id])
		bhs = append(bhs, take(&x.bhFree))
	}
	par.For(len(keep), 0, func(k int) {
		bhs[k] = x.appendBandHashes(bhs[k], sigs[keep[k]])
	})
	for k, i := range keep {
		x.sigs[ids[i]] = sigs[i]
		x.bandHashes[ids[i]] = bhs[k]
	}
	par.For(x.params.Bands, 0, func(b int) {
		for k, i := range keep {
			h := bhs[k][b]
			if old := olds[k]; old != nil {
				if old[b] == h {
					continue // this band of the signature did not move
				}
				x.unlink(b, old[b], ids[i])
			}
			x.link(b, h, ids[i])
		}
	})
	for _, bh := range olds {
		if bh != nil {
			x.bhFree = append(x.bhFree, bh)
		}
	}
}

// Hasher exposes the index's hash family so callers can compute signatures
// in parallel and feed them to UpsertSignature.
func (x *LSHIndex) Hasher() *MinHasher { return x.hasher }

// Signature returns the stored signature for id (nil if absent). The
// returned slice is the index's own storage; callers must not mutate it,
// and it is valid only until the entity is re-upserted or removed (its
// backing array is then recycled).
func (x *LSHIndex) Signature(id string) []uint32 { return x.sigs[id] }

// Signatures calls yield for every indexed (id, signature) pair, in
// unspecified order — the export hook for serialising the index. The
// yielded slices are the index's own storage; callers must not mutate or
// retain them across mutations.
func (x *LSHIndex) Signatures(yield func(id string, sig []uint32)) {
	for id, sig := range x.sigs {
		yield(id, sig)
	}
}

// Remove implements CandidateIndex.
func (x *LSHIndex) Remove(id string) {
	sig, ok := x.sigs[id]
	if !ok {
		return
	}
	x.dropFromBuckets(id)
	x.sigFree = append(x.sigFree, sig)
	x.bhFree = append(x.bhFree, x.bandHashes[id])
	delete(x.sigs, id)
	delete(x.bandHashes, id)
}

// Reset empties the index in place, keeping its parameters, hasher, bucket
// maps, and recycled signature storage. A Reset index is observationally
// identical to a fresh NewLSHIndex with the same parameters; it exists so
// transient per-task contribution indexes can be pooled instead of
// reallocating ~Bands bucket maps and a hash family per audit.
func (x *LSHIndex) Reset() {
	for _, sig := range x.sigs {
		x.sigFree = append(x.sigFree, sig)
	}
	for _, bh := range x.bandHashes {
		x.bhFree = append(x.bhFree, bh)
	}
	clear(x.sigs)
	clear(x.bandHashes)
	for b := range x.buckets {
		clear(x.buckets[b])
	}
}

func (x *LSHIndex) dropFromBuckets(id string) {
	for b, h := range x.bandHashes[id] {
		x.unlink(b, h, id)
	}
}

// link inserts id into band b's bucket h, keeping the bucket sorted. It
// touches only band b's map, so distinct bands may be linked concurrently.
func (x *LSHIndex) link(b int, h uint64, id string) {
	bucket := x.buckets[b][h]
	i := sort.SearchStrings(bucket, id)
	bucket = append(bucket, "")
	copy(bucket[i+1:], bucket[i:])
	bucket[i] = id
	x.buckets[b][h] = bucket
}

// unlink removes id from band b's bucket h, deleting the bucket once empty.
func (x *LSHIndex) unlink(b int, h uint64, id string) {
	bucket := x.buckets[b][h]
	i := sort.SearchStrings(bucket, id)
	if i >= len(bucket) || bucket[i] != id {
		return
	}
	if len(bucket) == 1 {
		delete(x.buckets[b], h)
		return
	}
	x.buckets[b][h] = append(bucket[:i], bucket[i+1:]...)
}

// appendBandHashes collapses each band of a signature to one uint64 bucket
// key via a running mix (band index seeds the chain so identical row values
// in different bands hash apart), into caller-provided storage.
func (x *LSHIndex) appendBandHashes(dst []uint64, sig []uint32) []uint64 {
	bh := dst
	if cap(bh) < x.params.Bands {
		bh = make([]uint64, x.params.Bands)
	} else {
		bh = bh[:x.params.Bands]
	}
	for b := 0; b < x.params.Bands; b++ {
		h := mix64(uint64(b) + 0x51_7c_c1_b7_27_22_0a_95)
		for r := 0; r < x.params.Rows; r++ {
			h = mix64(h ^ uint64(sig[b*x.params.Rows+r]))
		}
		bh[b] = h
	}
	return bh
}

// Pairs implements CandidateIndex. A pair sharing several bands is emitted
// only from the first band it shares, so enumeration needs no cross-bucket
// dedup set — per-pair dedup is an O(Bands) scan of the two cached
// band-hash vectors. Buckets are maintained sorted, so members enumerate
// in order with no per-bucket sort.
func (x *LSHIndex) Pairs(yield func(a, b string)) {
	for b, bandBuckets := range x.buckets {
		for _, members := range bandBuckets {
			for i := 0; i < len(members); i++ {
				bhI := x.bandHashes[members[i]]
				for j := i + 1; j < len(members); j++ {
					if firstSharedBand(bhI, x.bandHashes[members[j]]) == b {
						yield(members[i], members[j])
					}
				}
			}
		}
	}
}

// Partners implements CandidateIndex.
func (x *LSHIndex) Partners(id string, yield func(partner string)) {
	bh, ok := x.bandHashes[id]
	if !ok {
		return
	}
	seen := getSeen(id)
	defer putSeen(seen)
	for b, h := range bh {
		for _, p := range x.buckets[b][h] {
			if !seen[p] {
				seen[p] = true
				yield(p)
			}
		}
	}
}

// firstSharedBand returns the lowest band index at which the two band-hash
// vectors agree, or -1 if none.
func firstSharedBand(a, b []uint64) int {
	for i := range a {
		if a[i] == b[i] {
			return i
		}
	}
	return -1
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
