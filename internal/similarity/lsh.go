package similarity

import (
	"fmt"
	"math"
	"slices"

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
// only band hashes and buckets, never token sets, so an entity update
// re-hashes exactly one entity and full-pass enumeration is linear in the
// number of shared buckets plus emitted pairs.
//
// Entities live in dense uint32 slots. A private id table maps each id to
// its slot and back; Remove frees the slot for the next new id, and Reset
// rewinds the table. Signatures are stored per slot, band hashes in one
// flat array at slot*Bands, and buckets hold slots, so Partners and Pairs
// read arrays and turn a slot back into its id only to yield it. Slot
// numbers depend on install order, so nothing observable depends on them:
// Pairs orders each pair by id, and Partners' order is unspecified.
//
// Under any useful banding most buckets hold one entity, so a bucket map
// stores a lone member's slot inline and only a shared bucket gets a
// member list, in its band's arena. The maps hold no pointers and a
// singleton bucket allocates nothing.
type LSHIndex struct {
	params LSHParams
	hasher *MinHasher
	// slots maps an id to its slot and names maps it back; freed holds
	// released slots, whose names entry is "" and sigs entry nil.
	slots map[string]uint32
	names []string
	freed []uint32
	// sigs[s] is slot s's full signature (kept for the unchanged-upsert
	// check and for serialization).
	sigs [][]uint32
	// bh[s*Bands+b] is slot s's band-b bucket key, cached so Remove and the
	// first-shared-band dedup never recompute it. Freed slots keep stale
	// rows that no bucket references.
	bh []uint64
	// buckets[b] maps a band-b hash to its bucket. A value without the
	// sharedTag bit is the slot of the bucket's one member; a tagged value
	// v is a bucket of two or more, whose members are multi[b][v&^sharedTag],
	// kept sorted by slot. A bucket that shrinks to one member goes back
	// inline and its arena entry, emptied but keeping its capacity, onto
	// multiFree[b]; Reset truncates both and keeps their storage. Everything
	// of band b is touched only by whoever links band b, so bands may be
	// linked concurrently.
	buckets   []map[uint64]uint32
	multi     [][][]uint32
	multiFree [][]uint32
	// sigFree recycles the signature storage of removed, replaced, or Reset
	// entries, so a pooled transient index (fairness.ContribCandidates
	// builds one per dirty task) re-upserts, and a long-lived one
	// bulk-refreshes, without allocating per entity. Consequence of
	// recycling: a slice returned by Signature/Signatures is valid only
	// until its entity is re-upserted or removed.
	sigFree [][]uint32
}

// sharedTag marks a bucket map value as an arena index rather than a slot;
// claim keeps every slot below it.
const sharedTag = 1 << 31

// NewLSHIndex returns an empty index with the given parameters.
func NewLSHIndex(params LSHParams) *LSHIndex {
	if params.Bands < 1 || params.Rows < 1 {
		panic("similarity: LSH bands and rows must be >= 1")
	}
	ix := &LSHIndex{
		params:    params,
		hasher:    NewMinHasher(params.K(), params.Seed),
		slots:     make(map[string]uint32),
		buckets:   make([]map[uint64]uint32, params.Bands),
		multi:     make([][][]uint32, params.Bands),
		multiFree: make([][]uint32, params.Bands),
	}
	for b := range ix.buckets {
		ix.buckets[b] = make(map[uint64]uint32)
	}
	return ix
}

// Params returns the index's parameters.
func (x *LSHIndex) Params() LSHParams { return x.params }

// Name implements CandidateIndex.
func (x *LSHIndex) Name() string { return "lsh" }

// Len implements CandidateIndex.
func (x *LSHIndex) Len() int { return len(x.slots) }

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

// claim gives a new id a slot, reusing a freed one if any. The caller
// stores its signature and, after grow, its band row. It panics rather than
// hand out a slot that would read as sharedTag.
func (x *LSHIndex) claim(id string) uint32 {
	var s uint32
	if n := len(x.freed); n > 0 {
		s = x.freed[n-1]
		x.freed = x.freed[:n-1]
		x.names[s] = id
	} else {
		if uint64(len(x.names)) >= sharedTag {
			panic("similarity: LSH index is full")
		}
		s = uint32(len(x.names))
		x.names = append(x.names, id)
		x.sigs = append(x.sigs, nil)
	}
	x.slots[id] = s
	return s
}

// grow extends the band-hash array to cover every slot, in one step however
// many slots were claimed since the last call. The new rows are not zeroed:
// every caller hashes a claimed slot's row before reading it.
func (x *LSHIndex) grow() {
	if need := len(x.names) * x.params.Bands; need > len(x.bh) {
		x.bh = slices.Grow(x.bh, need-len(x.bh))[:need]
	}
}

// row is slot s's band-hash row.
func (x *LSHIndex) row(s uint32) []uint64 {
	i := int(s) * x.params.Bands
	return x.bh[i : i+x.params.Bands : i+x.params.Bands]
}

// UpsertSignature installs one precomputed signature (as produced by this
// index's Hasher); BulkUpsertSignatures is the batch form. It panics on
// signature length mismatch.
func (x *LSHIndex) UpsertSignature(id string, sig []uint32) {
	if len(sig) != x.params.K() {
		panic("similarity: signature length does not match LSH params")
	}
	s, ok := x.slots[id]
	if ok {
		old := x.sigs[s]
		if sigsEqual(old, sig) {
			return
		}
		x.unlinkRow(s)
		x.sigFree = append(x.sigFree, old)
	} else {
		s = x.claim(id)
		x.grow()
	}
	x.sigs[s] = sig
	row := x.row(s)
	x.hashBands(row, sig)
	for b, h := range row {
		x.link(b, h, s)
	}
}

// BulkUpsertSignatures installs many precomputed signatures at once — the
// one install path behind cold builds, checkpoint restores and delta
// refreshes (builds and refreshes through BulkUpsert). It is equivalent to
// calling UpsertSignature(ids[i], sigs[i]) in order: a serial pre-pass
// gives new ids slots and skips unchanged entries, the band-hash array grows
// once, band hashing fans out per entity on the parallel pool, and then one
// goroutine per band unlinks each replaced entry from its old bucket and
// links it into its new one. Buckets are kept sorted, so the result is
// identical to the serial build's. It panics on a repeated id, on a length
// mismatch between ids and sigs, or between a signature and the index
// parameters; the index is unusable after such a panic.
func (x *LSHIndex) BulkUpsertSignatures(ids []string, sigs [][]uint32) {
	x.bulkInstall(ids, sigs, false)
}

// BulkUpsert is BulkUpsertSignatures over token sets: signatures are
// computed on the parallel pool into buffers taken from the index's
// freelist, and the buffers of entries found unchanged go back to it, so
// refreshing the same ids round after round neither allocates signature
// storage nor grows the freelist.
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
	// Serial pre-pass: validate, give new ids slots, skip unchanged
	// entries, and copy each replaced entry's old band row (the band pass
	// unlinks it; the row itself is about to be overwritten). in[k].old is
	// that copy's row in olds, or -1 for an id new to the index. Every slot
	// the batch touches is below len(names) + len(ids), so one bit per slot
	// catches a repeated id.
	type install struct {
		slot uint32
		old  int
	}
	bands := x.params.Bands
	in := make([]install, 0, len(ids))
	var olds []uint64
	seen := make([]uint64, (len(x.names)+len(ids)+63)/64)
	for i, id := range ids {
		if len(sigs[i]) != x.params.K() {
			panic("similarity: signature length does not match LSH params")
		}
		s, ok := x.slots[id]
		if !ok {
			s = x.claim(id)
		}
		if seen[s/64]&(1<<(s%64)) != 0 {
			panic(fmt.Sprintf("similarity: id %q repeated in one bulk upsert", id))
		}
		seen[s/64] |= 1 << (s % 64)
		old := x.sigs[s]
		if sigsEqual(old, sigs[i]) {
			if owned {
				x.sigFree = append(x.sigFree, sigs[i])
			}
			continue
		}
		at := -1
		if old != nil {
			x.sigFree = append(x.sigFree, old)
			at = len(olds) / bands
			olds = append(olds, x.row(s)...)
		}
		x.sigs[s] = sigs[i]
		in = append(in, install{s, at})
	}
	x.grow()
	par.For(len(in), 0, func(k int) {
		s := in[k].slot
		x.hashBands(x.row(s), x.sigs[s])
	})
	par.For(bands, 0, func(b int) {
		if len(x.buckets[b]) == 0 {
			// A cold build or restore: size the band's map for the batch
			// once instead of growing it through every doubling.
			x.buckets[b] = make(map[uint64]uint32, len(in))
		}
		for _, e := range in {
			h := x.bh[int(e.slot)*bands+b]
			if e.old >= 0 {
				o := olds[e.old*bands+b]
				if o == h {
					continue // this band of the signature did not move
				}
				x.unlink(b, o, e.slot)
			}
			x.link(b, h, e.slot)
		}
	})
}

// Hasher exposes the index's hash family so callers can compute signatures
// in parallel and feed them to UpsertSignature.
func (x *LSHIndex) Hasher() *MinHasher { return x.hasher }

// Signature returns the stored signature for id (nil if absent). The
// returned slice is the index's own storage; callers must not mutate it,
// and it is valid only until the entity is re-upserted or removed (its
// backing array is then recycled).
func (x *LSHIndex) Signature(id string) []uint32 {
	if s, ok := x.slots[id]; ok {
		return x.sigs[s]
	}
	return nil
}

// Signatures calls yield for every indexed (id, signature) pair, in
// unspecified order — the export hook for serialising the index. The
// yielded slices are the index's own storage; callers must not mutate or
// retain them across mutations.
func (x *LSHIndex) Signatures(yield func(id string, sig []uint32)) {
	for s, sig := range x.sigs {
		if sig != nil {
			yield(x.names[s], sig)
		}
	}
}

// Remove implements CandidateIndex.
func (x *LSHIndex) Remove(id string) {
	s, ok := x.slots[id]
	if !ok {
		return
	}
	x.unlinkRow(s)
	x.sigFree = append(x.sigFree, x.sigs[s])
	x.sigs[s], x.names[s] = nil, ""
	delete(x.slots, id)
	x.freed = append(x.freed, s)
}

// Reset empties the index in place, keeping its parameters, hasher, bucket
// maps, arenas and recycled storage, and rewinds the slot table. A Reset
// index is observationally identical to a fresh NewLSHIndex with the same
// parameters; it exists so transient per-task contribution indexes can be
// pooled instead of reallocating ~Bands bucket maps and a hash family per
// audit, and refilled without allocating bucket storage.
func (x *LSHIndex) Reset() {
	for _, sig := range x.sigs {
		if sig != nil {
			x.sigFree = append(x.sigFree, sig)
		}
	}
	clear(x.slots)
	clear(x.names)
	x.names, x.sigs, x.freed, x.bh = x.names[:0], x.sigs[:0], x.freed[:0], x.bh[:0]
	for b := range x.buckets {
		clear(x.buckets[b])
		x.multi[b], x.multiFree[b] = x.multi[b][:0], x.multiFree[b][:0]
	}
}

// unlinkRow removes slot s from the bucket of each of its bands.
func (x *LSHIndex) unlinkRow(s uint32) {
	for b, h := range x.row(s) {
		x.unlink(b, h, s)
	}
}

// link inserts slot s into band b's bucket h, keeping the bucket sorted. It
// touches only band b's state, so distinct bands may be linked concurrently.
func (x *LSHIndex) link(b int, h uint64, s uint32) {
	v, ok := x.buckets[b][h]
	switch {
	case !ok:
		x.buckets[b][h] = s
	case v&sharedTag == 0:
		i := x.newShared(b)
		x.multi[b][i] = append(x.multi[b][i][:0], min(v, s), max(v, s))
		x.buckets[b][h] = sharedTag | i
	default:
		members := x.multi[b][v&^sharedTag]
		i, _ := slices.BinarySearch(members, s)
		x.multi[b][v&^sharedTag] = slices.Insert(members, i, s)
	}
}

// newShared returns a free index into band b's arena: one a shrunk bucket
// gave back, else the next one, whose slice Reset may have left behind.
func (x *LSHIndex) newShared(b int) uint32 {
	if n := len(x.multiFree[b]); n > 0 {
		i := x.multiFree[b][n-1]
		x.multiFree[b] = x.multiFree[b][:n-1]
		return i
	}
	i := len(x.multi[b])
	if i < cap(x.multi[b]) {
		x.multi[b] = x.multi[b][:i+1]
	} else {
		x.multi[b] = append(x.multi[b], nil)
	}
	return uint32(i)
}

// unlink removes slot s from band b's bucket h, which holds it, deleting
// the bucket once empty and moving it back inline once it holds one member.
func (x *LSHIndex) unlink(b int, h uint64, s uint32) {
	v := x.buckets[b][h]
	if v&sharedTag == 0 {
		delete(x.buckets[b], h) // s was its one member
		return
	}
	a := v &^ sharedTag
	members := x.multi[b][a]
	i, ok := slices.BinarySearch(members, s)
	if !ok {
		return
	}
	members = slices.Delete(members, i, i+1)
	if len(members) > 1 {
		x.multi[b][a] = members
		return
	}
	x.buckets[b][h] = members[0]
	x.multi[b][a] = members[:0]
	x.multiFree[b] = append(x.multiFree[b], a)
}

// hashBands collapses each band of a signature to one uint64 bucket key via
// a running mix (band index seeds the chain so identical row values in
// different bands hash apart), into a slot's band row.
func (x *LSHIndex) hashBands(row []uint64, sig []uint32) {
	for b := range row {
		h := mix64(uint64(b) + 0x51_7c_c1_b7_27_22_0a_95)
		for r := 0; r < x.params.Rows; r++ {
			h = mix64(h ^ uint64(sig[b*x.params.Rows+r]))
		}
		row[b] = h
	}
}

// sharedBefore reports whether slots s and m agree on some band below b. A
// pair sharing several bands is emitted only from the first band it shares,
// so Pairs and Partners need no dedup set — this O(b) compare of two band
// rows is the whole dedup.
func (x *LSHIndex) sharedBefore(s, m uint32, b int) bool {
	rs := x.bh[int(s)*x.params.Bands:][:b]
	rm := x.bh[int(m)*x.params.Bands:][:b]
	for i := range rs {
		if rs[i] == rm[i] {
			return true
		}
	}
	return false
}

// Pairs implements CandidateIndex. Each pair comes from the first band it
// shares (see sharedBefore) and is ordered by id. Only shared buckets hold
// pairs, so it walks the arenas alone; a freed arena entry is empty.
func (x *LSHIndex) Pairs(yield func(a, b string)) {
	for b, arena := range x.multi {
		for _, members := range arena {
			for i, s := range members {
				for _, m := range members[i+1:] {
					if x.sharedBefore(s, m, b) {
						continue
					}
					p, q := x.names[s], x.names[m]
					if q < p {
						p, q = q, p
					}
					yield(p, q)
				}
			}
		}
	}
}

// Partners implements CandidateIndex. Each partner comes from the first band
// it shares with id (see sharedBefore). An inline bucket of id's can hold
// only id itself.
func (x *LSHIndex) Partners(id string, yield func(partner string)) {
	s, ok := x.slots[id]
	if !ok {
		return
	}
	for b, h := range x.row(s) {
		v := x.buckets[b][h]
		if v&sharedTag == 0 {
			continue
		}
		for _, m := range x.multi[b][v&^sharedTag] {
			if m != s && !x.sharedBefore(s, m, b) {
				yield(x.names[m])
			}
		}
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
