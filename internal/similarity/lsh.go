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

// LSHIndex is the banded-MinHash CandidateIndex. Upsert reduces each
// entity's token set to a row of Bands bucket keys, one per band of its
// MinHash signature, and keeps only that row: the signature lives in a
// buffer of the call that hashes it. Candidate generation then touches only
// band keys and buckets, never token sets, so an entity update re-hashes
// exactly one entity and full-pass enumeration is linear in the number of
// shared buckets plus emitted pairs. An upsert whose row equals the stored
// one is a no-op, which is exactly when no bucket would move. BandRows
// exports the rows and BulkUpsertRows installs them, so a checkpoint keeps
// rows and a restore hashes nothing.
//
// Each row also keeps the token digest of the set it was signed from (see
// tokenDigest), so Upsert and BulkUpsert sign only token sets that changed:
// a re-upsert whose digest matches the stored one keeps the stored row.
// BandRows exports the digests beside the rows, so an index restored from
// a checkpoint skips unchanged entities as well.
//
// Entities live in dense uint32 slots. A private id table maps each id to
// its slot and back; Remove frees the slot for the next new id, and Reset
// rewinds the table. Band keys sit in one flat array at slot*Bands, and
// buckets hold slots, so Partners and Pairs read arrays and turn a slot
// back into its id only to yield it. Slot numbers depend on install order,
// so nothing observable depends on them: Pairs orders each pair by id, and
// Partners' order is unspecified.
//
// Under any useful banding most buckets hold one entity, so a bucket map
// stores a lone member's slot inline and only a shared bucket gets a
// member list, in its band's arena. The maps hold no pointers and a
// singleton bucket allocates nothing. Each slot keeps a row of bucket
// handles beside its band keys, naming the arena entries of its shared
// buckets, so Partners reads arrays and probes no map.
type LSHIndex struct {
	params LSHParams
	hasher *MinHasher
	// slots maps an id to its slot and names maps it back; freed holds
	// released slots, whose names entry is "".
	slots map[string]uint32
	names []string
	freed []uint32
	// bh[s*Bands+b] is slot s's band-b bucket key. Freed slots keep stale
	// rows that no bucket references.
	bh []uint64
	// hd[s*Bands+b] is slot s's handle on its band-b bucket: 0 while s is
	// the bucket's one member, else the tagged arena index buckets[b] maps
	// bh[s*Bands+b] to. Only link and unlink write it, and only column b, so
	// bands may still be linked concurrently. A freed slot's row is all 0.
	hd []uint32
	// dig[s] is the token digest of the set slot s's row was signed from,
	// or 0 when the row came from a signature. Every install writes the
	// digest of each slot it touches, so a reused slot never inherits one.
	dig []uint64
	// signed counts the token sets Upsert and BulkUpsert have signed.
	signed int
	// spare is the row Upsert and UpsertSignature hash into before
	// comparing it with the stored one.
	spare []uint64
	// buckets[b] maps a band-b key to its bucket. A value without the
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
}

// sharedTag marks a bucket map value as an arena index rather than a slot;
// claim keeps every slot below it.
const sharedTag = 1 << 31

// maxStackK is the longest signature hashTokens keeps on the stack.
// ChooseLSHParams never exceeds 128 × 8; longer signatures, which explicit
// LSHParams may ask for, go to the heap.
const maxStackK = 1024

// NewLSHIndex returns an empty index with the given parameters.
func NewLSHIndex(params LSHParams) *LSHIndex {
	if params.Bands < 1 || params.Rows < 1 {
		panic("similarity: LSH bands and rows must be >= 1")
	}
	ix := &LSHIndex{
		params:    params,
		hasher:    NewMinHasher(params.K(), params.Seed),
		slots:     make(map[string]uint32),
		spare:     make([]uint64, params.Bands),
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

// Upsert implements CandidateIndex. A re-upsert of a token set whose digest
// matches the stored one signs nothing.
func (x *LSHIndex) Upsert(id string, tokens []uint64) {
	d := tokenDigest(tokens)
	if s, ok := x.slots[id]; ok && x.dig[s] == d {
		return
	}
	x.hashTokens(x.spare, tokens)
	x.signed++
	x.upsertRow(id, x.spare, d)
}

// Signed returns how many token sets Upsert and BulkUpsert have MinHash-
// signed since the index was made; a re-upsert skipped for an unchanged
// token digest is not counted, and Reset does not rewind the count.
func (x *LSHIndex) Signed() int { return x.signed }

// digestSalt keys tokenDigest's mix, so a digest is not the sum of the
// tokens' MinHash base hashes.
const digestSalt = 0x2545_f491_4f6c_dd1d

// tokenDigest fingerprints a token list as the wrapping sum of
// mix64(t ^ digestSalt) over its tokens, 0 reserved for "unknown" (a sum of
// 0 reads 1). The sum ignores token order, so lists built by ranging over a
// map digest alike, and it needs no sort and no allocation. A repeated
// token changes the digest, which only costs a needless re-sign. Two
// different lists share a digest with probability about 2⁻⁶⁴ per re-upsert;
// such a re-upsert would keep the stale row. Digests are on-disk format
// beside the band keys (see hashBands).
func tokenDigest(tokens []uint64) uint64 {
	var d uint64
	for _, t := range tokens {
		d += mix64(t ^ digestSalt)
	}
	if d == 0 {
		d = 1
	}
	return d
}

// hashTokens hashes a token set's signature into a band row. The signature
// lives only in this call's buffer: on the stack up to maxStackK slots,
// else on the heap.
func (x *LSHIndex) hashTokens(row []uint64, tokens []uint64) {
	var buf [maxStackK]uint32
	sig := buf[:0]
	if x.params.K() > maxStackK {
		sig = nil // AppendSignature allocates
	}
	x.hashBands(row, x.hasher.AppendSignature(sig, tokens))
}

// claim gives a new id a slot, reusing a freed one if any. The caller
// stores its band row after grow. It panics rather than hand out a slot
// that would read as sharedTag.
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
	}
	x.slots[id] = s
	return s
}

// grow extends the band-key, handle and digest arrays to cover every slot,
// in one step however many slots were claimed since the last call. New key
// rows and digests are not zeroed: every caller writes a claimed slot's
// before reading them. New handles are, because link writes only shared
// buckets' and a Reset leaves stale words behind the truncated length.
func (x *LSHIndex) grow() {
	if need := len(x.names) * x.params.Bands; need > len(x.bh) {
		x.bh = slices.Grow(x.bh, need-len(x.bh))[:need]
		old := len(x.hd)
		x.hd = slices.Grow(x.hd, need-old)[:need]
		clear(x.hd[old:])
	}
	if n := len(x.names); n > len(x.dig) {
		x.dig = slices.Grow(x.dig, n-len(x.dig))[:n]
	}
}

// row is slot s's band-key row.
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
	x.hashBands(x.spare, sig)
	x.upsertRow(id, x.spare, 0)
}

// upsertRow gives id the band row row and the token digest digest, moving
// it between buckets only when the row differs from the stored one.
func (x *LSHIndex) upsertRow(id string, row []uint64, digest uint64) {
	s, ok := x.slots[id]
	if !ok {
		s = x.claim(id)
		x.grow()
	}
	x.dig[s] = digest
	if ok {
		if slices.Equal(x.row(s), row) {
			return
		}
		x.unlinkRow(s)
	}
	copy(x.row(s), row)
	for b, h := range row {
		x.link(b, h, s)
	}
}

// BulkUpsertRows installs many band rows at once — the one install path
// behind cold builds and delta refreshes (through BulkUpsert) and
// checkpoint restores, which install the rows BandRows exported and hash
// nothing. ids[i]'s row is rows[i*Bands:(i+1)*Bands] and its token digest
// digests[i]; nil digests record every entry's as unknown. It is equivalent
// to upserting each row in order: a serial pre-pass gives new ids slots and
// skips entries whose row is unchanged, the band-key array grows once and
// takes the new rows, and then one goroutine per band unlinks each
// replaced entry from its old bucket and links it into its new one.
// Buckets are kept sorted, so the result is identical to the serial
// build's. It panics on a repeated id, when len(rows) != len(ids)*Bands or
// when digests is neither nil nor len(ids) long; the index is unusable
// after such a panic.
func (x *LSHIndex) BulkUpsertRows(ids []string, rows, digests []uint64) {
	bands := x.params.Bands
	if len(rows) != len(ids)*bands || digests != nil && len(digests) != len(ids) {
		panic("similarity: band rows do not match ids and LSH params")
	}
	if digests == nil {
		digests = make([]uint64, len(ids))
	}
	// Serial pre-pass: give new ids slots, skip unchanged entries, and copy
	// each replaced entry's old band row (the band pass unlinks it; the row
	// itself is about to be overwritten). in[k].old is that copy's row in
	// olds, or -1 for an id new to the index. Every slot the batch touches
	// is below len(names) + len(ids), so one bit per slot catches a
	// repeated id.
	type install struct {
		slot uint32
		row  int // the entry's row in rows
		old  int
	}
	in := make([]install, 0, len(ids))
	var olds []uint64
	seen := make([]uint64, (len(x.names)+len(ids)+63)/64)
	for i, id := range ids {
		s, ok := x.slots[id]
		if !ok {
			s = x.claim(id)
		}
		if seen[s/64]&(1<<(s%64)) != 0 {
			panic(fmt.Sprintf("similarity: id %q repeated in one bulk upsert", id))
		}
		seen[s/64] |= 1 << (s % 64)
		at := -1
		if ok {
			if slices.Equal(x.row(s), rows[i*bands:(i+1)*bands]) {
				x.dig[s] = digests[i]
				continue
			}
			at = len(olds) / bands
			olds = append(olds, x.row(s)...)
		}
		in = append(in, install{s, i, at})
	}
	x.grow()
	for _, e := range in {
		copy(x.row(e.slot), rows[e.row*bands:(e.row+1)*bands])
		x.dig[e.slot] = digests[e.row]
	}
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

// BulkUpsertSignatures installs many precomputed signatures at once: band
// hashing fans out per entity on the parallel pool into a transient row
// array, which BulkUpsertRows installs with unknown token digests. It
// panics on a length mismatch between ids and sigs or between a signature
// and the index parameters, and on a repeated id.
func (x *LSHIndex) BulkUpsertSignatures(ids []string, sigs [][]uint32) {
	if len(ids) != len(sigs) {
		panic("similarity: ids/sigs length mismatch")
	}
	for _, sig := range sigs {
		if len(sig) != x.params.K() {
			panic("similarity: signature length does not match LSH params")
		}
	}
	bands := x.params.Bands
	rows := make([]uint64, len(ids)*bands)
	par.For(len(ids), 0, func(i int) {
		x.hashBands(rows[i*bands:(i+1)*bands], sigs[i])
	})
	x.BulkUpsertRows(ids, rows, nil)
}

// BulkUpsert is BulkUpsertSignatures over token sets: each entity's tokens
// are digested, and signed and band-hashed (see hashTokens) on the parallel
// pool into a transient row array, which BulkUpsertRows installs with the
// digests. An indexed entity whose digest matches its stored one is not
// signed: its stored row is copied instead, and the install's pre-pass
// drops it as unchanged.
func (x *LSHIndex) BulkUpsert(ids []string, tokens func(i int) []uint64) {
	bands := x.params.Bands
	rows := make([]uint64, len(ids)*bands)
	digests := make([]uint64, len(ids))
	signed := make([]bool, len(ids))
	par.For(len(ids), 0, func(i int) {
		toks := tokens(i)
		digests[i] = tokenDigest(toks)
		row := rows[i*bands : (i+1)*bands]
		if s, ok := x.slots[ids[i]]; ok && x.dig[s] == digests[i] {
			copy(row, x.row(s))
			return
		}
		x.hashTokens(row, toks)
		signed[i] = true
	})
	for _, ok := range signed {
		if ok {
			x.signed++
		}
	}
	x.BulkUpsertRows(ids, rows, digests)
}

// Hasher exposes the index's hash family so callers can compute signatures
// in parallel and feed them to UpsertSignature.
func (x *LSHIndex) Hasher() *MinHasher { return x.hasher }

// BandRows returns every indexed id in ascending order with its band row
// and token digest: ids[i]'s row is rows[i*Bands:(i+1)*Bands] and its
// digest digests[i] (0 when unknown). All three are copies. Handed to
// BulkUpsertRows of a fresh index with the same parameters, they rebuild
// this index's buckets and digests.
func (x *LSHIndex) BandRows() (ids []string, rows, digests []uint64) {
	ids = make([]string, 0, len(x.slots))
	for id := range x.slots {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	rows = make([]uint64, 0, len(ids)*x.params.Bands)
	digests = make([]uint64, 0, len(ids))
	for _, id := range ids {
		s := x.slots[id]
		rows = append(rows, x.row(s)...)
		digests = append(digests, x.dig[s])
	}
	return ids, rows, digests
}

// Remove implements CandidateIndex.
func (x *LSHIndex) Remove(id string) {
	s, ok := x.slots[id]
	if !ok {
		return
	}
	x.unlinkRow(s)
	x.names[s] = ""
	delete(x.slots, id)
	x.freed = append(x.freed, s)
}

// Reset empties the index in place, keeping its parameters, hasher, bucket
// maps, arenas and band-key storage, and rewinds the slot table. A Reset
// index is observationally identical to a fresh NewLSHIndex with the same
// parameters; it exists so transient per-task contribution indexes can be
// pooled instead of reallocating ~Bands bucket maps and a hash family per
// audit, and refilled without allocating bucket storage.
func (x *LSHIndex) Reset() {
	clear(x.slots)
	clear(x.names)
	x.names, x.freed = x.names[:0], x.freed[:0]
	x.bh, x.hd, x.dig = x.bh[:0], x.hd[:0], x.dig[:0]
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

// link inserts slot s into band b's bucket h, keeping the bucket sorted and
// the members' band-b handles current. It touches only band b's state, so
// distinct bands may be linked concurrently.
func (x *LSHIndex) link(b int, h uint64, s uint32) {
	v, ok := x.buckets[b][h]
	switch {
	case !ok:
		x.buckets[b][h] = s
	case v&sharedTag == 0:
		i := x.newShared(b)
		x.multi[b][i] = append(x.multi[b][i][:0], min(v, s), max(v, s))
		x.buckets[b][h] = sharedTag | i
		x.hd[x.at(v, b)] = sharedTag | i
		x.hd[x.at(s, b)] = sharedTag | i
	default:
		members := x.multi[b][v&^sharedTag]
		i, _ := slices.BinarySearch(members, s)
		x.multi[b][v&^sharedTag] = slices.Insert(members, i, s)
		x.hd[x.at(s, b)] = v
	}
}

// at is the position of slot s's band-b key in bh and handle in hd.
func (x *LSHIndex) at(s uint32, b int) int { return int(s)*x.params.Bands + b }

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
	x.hd[x.at(s, b)] = 0
	if len(members) > 1 {
		x.multi[b][a] = members
		return
	}
	x.buckets[b][h] = members[0]
	x.hd[x.at(members[0], b)] = 0
	x.multi[b][a] = members[:0]
	x.multiFree[b] = append(x.multiFree[b], a)
}

// hashBands collapses each band of a signature to one uint64 bucket key via
// a running mix (band index seeds the chain so identical row values in
// different bands hash apart), into a band row. The keys are on-disk
// format: the audit sidecar persists rows, not signatures, and their token
// digests, so a change here, in MinHasher or in tokenDigest must bump the
// sidecar's stateFormat (internal/audit); TestLSHBandKeysGolden fails until
// it is.
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
// it shares with id (see sharedBefore). It walks id's handle row, so it
// reads only the arena entries of id's shared buckets: an inline bucket
// can hold only id itself.
func (x *LSHIndex) Partners(id string, yield func(partner string)) {
	s, ok := x.slots[id]
	if !ok {
		return
	}
	i := x.at(s, 0)
	for b, v := range x.hd[i : i+x.params.Bands] {
		if v == 0 {
			continue
		}
		for _, m := range x.multi[b][v&^sharedTag] {
			if m != s && !x.sharedBefore(s, m, b) {
				yield(x.names[m])
			}
		}
	}
}
