package fairness

import (
	"math"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/model"
	"repro/internal/similarity"
)

// Candidate-index kinds accepted by Config.CandidateIndex.
const (
	// CandidateExact is the inverted-token-index backend: full recall,
	// byte-identical to the pre-index inline scans — the escape hatch and
	// the determinism oracle LSH is validated against.
	CandidateExact = "exact"
	// CandidateLSH is the MinHash/LSH banding backend: sub-quadratic
	// candidate generation with recall ≥ ~0.98 at the configured
	// thresholds (band/row parameters are derived from them).
	CandidateLSH = "lsh"
)

// CandidateKind normalises Config.CandidateIndex: the empty string means
// CandidateExact. It panics on an unknown kind — a configuration error, not
// a runtime condition.
func (c *Config) CandidateKind() string {
	switch c.CandidateIndex {
	case "", CandidateExact:
		return CandidateExact
	case CandidateLSH:
		return CandidateLSH
	default:
		panic("fairness: unknown candidate index kind " + c.CandidateIndex)
	}
}

// CandidateProvider supplies pruned candidate pairs to the Axiom 1–3
// checkers. A pair's membership must depend only on its two endpoints'
// current contents and be symmetric (b is a partner of a exactly when a is
// one of b): that is what lets a pass over any scope of ids (see walkPairs)
// find the same pairs a full scan does, and delta audits agree with full
// ones. internal/audit injects an incrementally maintained provider; when
// Config.Candidates is nil the checkers build a transient one per call from
// the store snapshot.
type CandidateProvider interface {
	// WorkerPartners yields every candidate partner of one worker, each
	// once, never the worker itself.
	WorkerPartners(id model.WorkerID, yield func(p model.WorkerID))
	// TaskPartners yields every candidate partner of one task, likewise.
	TaskPartners(id model.TaskID, yield func(p model.TaskID))
	// ContribPairs returns the candidate pairs among one task's
	// contributions as ascending linear pair indices (similarity.PairAt
	// order over len(contribs)). pruned=false means "every pair is a
	// candidate" and ks is meaningless — the exact backend's answer, which
	// keeps Axiom 3's all-pairs kernel path intact.
	ContribPairs(tid model.TaskID, contribs []*model.Contribution) (ks []int, pruned bool)
}

// IndexPlan is the concrete index recipe a Config implies: which backend,
// which seeds and band/row parameters, and how each entity kind is
// tokenised. It is the shared vocabulary between the transient providers
// built by the checkers and the long-lived, incrementally maintained
// indexes owned by internal/audit — both construct indexes from the same
// plan, which is why their candidate sets (and therefore reports) agree.
type IndexPlan struct {
	// Kind is CandidateExact or CandidateLSH.
	Kind string
	// Seed is the root LSH seed (meaningful only for CandidateLSH).
	Seed uint64
	// Worker, Task and Contrib are the per-entity-kind LSH parameters
	// (zero-valued for CandidateExact).
	Worker  similarity.LSHParams
	Task    similarity.LSHParams
	Contrib similarity.LSHParams

	policy similarity.AttrPolicy
	ngramN int
}

// Plan derives the index recipe from the config's kind, seed and
// thresholds. Worker and task indexes are parameterised by SkillThreshold,
// contribution indexes by ContributionThreshold.
func (c *Config) Plan() IndexPlan {
	p := IndexPlan{
		Kind:   c.CandidateKind(),
		Seed:   c.LSHSeed,
		policy: c.attrPolicy(),
		ngramN: 3,
	}
	if p.Kind == CandidateLSH {
		skillThr := orDefault(c.SkillThreshold, 0.9)
		contribThr := orDefault(c.ContributionThreshold, 0.8)
		p.Worker = similarity.ChooseLSHParams(skillThr, deriveSeed(c.LSHSeed, "worker"))
		p.Task = similarity.ChooseLSHParams(skillThr, deriveSeed(c.LSHSeed, "task"))
		p.Contrib = similarity.ChooseLSHParams(contribThr, deriveSeed(c.LSHSeed, "contrib"))
	}
	return p
}

// deriveSeed gives each entity kind an independent hash family from one
// root seed.
func deriveSeed(seed uint64, scope string) uint64 {
	return similarity.Mix64(seed ^ similarity.HashToken("lsh:"+scope))
}

// NewWorkerIndex returns an empty index for worker candidates.
func (p IndexPlan) NewWorkerIndex() similarity.CandidateIndex {
	if p.Kind == CandidateLSH {
		return similarity.NewLSHIndex(p.Worker)
	}
	return similarity.NewExactIndex()
}

// NewTaskIndex returns an empty index for task candidates.
func (p IndexPlan) NewTaskIndex() similarity.CandidateIndex {
	if p.Kind == CandidateLSH {
		return similarity.NewLSHIndex(p.Task)
	}
	return similarity.NewExactIndex()
}

// Sentinel tokens. Entities the similarity measures treat as trivially
// similar when "empty" (skill-less workers/tasks, empty-text contributions)
// must still share a token, or the index would never pair them; a dedicated
// sentinel pairs them with each other and nothing else — exactly the
// semantics of the old explicit skill-less comparison loops.
var (
	skilllessToken = similarity.HashToken("fairness:no-skills")
	emptyTextToken = similarity.HashToken("fairness:empty-contribution")
)

// lshSkillWeight is how many salted copies of each skill token the LSH
// worker tokenisation emits. Skill similarity is the most selective of
// Axiom 1's three conditions, but a worker has few attribute fields and
// coarse attribute buckets are shared by large population fractions —
// unweighted, the handful of near-universal attribute tokens would
// dominate the Jaccard estimate and pull every pair's signature agreement
// toward the bucket-sharing rate, flooding the index with dissimilar
// candidates. Replicating each skill token keeps set overlap dominated by
// the skill dimension while the attribute tokens still contribute
// (attribute-dissimilar pairs rank strictly lower).
const lshSkillWeight = 4

var lshSkillSalts = [lshSkillWeight]uint64{
	similarity.HashToken("fairness:skill-copy-0"),
	similarity.HashToken("fairness:skill-copy-1"),
	similarity.HashToken("fairness:skill-copy-2"),
	similarity.HashToken("fairness:skill-copy-3"),
}

// WorkerTokens tokenises a worker for its candidate index: skill indices
// (or the skill-less sentinel), plus — for LSH only — bucketed declared and
// computed attributes, with skill tokens weighted by replication so the
// signature reflects every similarity dimension Axiom 1 thresholds without
// letting the few coarse attribute tokens drown the skill overlap. The
// exact backend indexes plain skills alone, reproducing the store's
// skill-sharing candidate generation byte-for-byte.
func (p IndexPlan) WorkerTokens(w *model.Worker) []uint64 {
	toks := skillTokens(w.SkillBits())
	if p.Kind == CandidateLSH {
		weighted := make([]uint64, 0, lshSkillWeight*len(toks)+8)
		for _, t := range toks {
			for _, salt := range &lshSkillSalts {
				weighted = append(weighted, similarity.Mix64(t^salt))
			}
		}
		toks = p.appendAttrTokens(weighted, "d:", w.Declared)
		toks = p.appendAttrTokens(toks, "c:", w.Computed)
	}
	return toks
}

// TaskTokens tokenises a task: its required-skill indices (or the
// skill-less sentinel). Rewards are not tokenised — reward comparability is
// a cheap filter the Axiom 2 checker applies per candidate.
func (p IndexPlan) TaskTokens(t *model.Task) []uint64 {
	return skillTokens(t.SkillBits())
}

// ContribTokens tokenises a contribution: hashed ranking items for ranked
// payloads, hashed character n-grams for text (the same preprocessing as
// the n-gram similarity the checker scores with), and the empty-text
// sentinel otherwise so trivially identical empty contributions still pair.
func (p IndexPlan) ContribTokens(c *model.Contribution) []uint64 {
	if len(c.Ranking) > 0 {
		out := make([]uint64, len(c.Ranking))
		for i, item := range c.Ranking {
			out[i] = similarity.HashToken("rank:" + item)
		}
		return out
	}
	toks := similarity.TextNGramTokens(c.Text, p.ngramN)
	if len(toks) == 0 {
		return []uint64{emptyTextToken}
	}
	return toks
}

// skillTokens lists the set skill positions, ascending, walking the packed
// words one set bit at a time.
func skillTokens(v model.SkillBits) []uint64 {
	if v.Count() == 0 {
		return []uint64{skilllessToken}
	}
	out := make([]uint64, 0, v.Count())
	for i, w := range v.Words() {
		for ; w != 0; w &= w - 1 {
			out = append(out, uint64(i*64+bits.TrailingZeros64(w)))
		}
	}
	return out
}

// appendAttrTokens emits tokens for one attribute set. Categorical values
// token on (field, value). Numeric values are bucketed at width 2×tolerance
// and emit both their bucket and its right neighbour: any pair with
// per-field similarity > 0 (|a−b| < 2·tol) lands within one bucket of each
// other and therefore shares a token, so bucketing never hides a pair the
// attribute threshold could accept. Zero tolerance tokens on exact bits.
func (p IndexPlan) appendAttrTokens(out []uint64, side string, attrs model.Attributes) []uint64 {
	for name, v := range attrs {
		if p.policy.IgnoreFields[name] {
			continue
		}
		field := similarity.HashToken(side + name)
		if v.Kind == model.AttrStr {
			out = append(out, similarity.Mix64(field^similarity.HashToken(v.Str)))
			continue
		}
		tol := p.policy.NumTolerance
		if t, ok := p.policy.FieldTolerance[name]; ok {
			tol = t
		}
		if tol <= 0 {
			out = append(out, similarity.Mix64(field^math.Float64bits(v.Num)))
			continue
		}
		b := uint64(int64(math.Floor(v.Num / (2 * tol))))
		out = append(out, similarity.Mix64(field^b), similarity.Mix64(field^(b+1)))
	}
	return out
}

// PopulateIndex upserts n entities into an index — the one install path for
// a cold build, a snapshot provider's build and a delta pass's refresh of
// the entities it found changed. For LSH indexes, tokens, signatures and
// band keys are computed on the parallel pool (signature hashing dominates
// LSH cost), then bulk-installed: bucket unlinks and inserts fan out per
// band (see LSHIndex.BulkUpsert). For
// exact indexes it upserts directly. The result is identical to n
// sequential Upserts; ids must be distinct (the LSH path panics on a
// repeat).
func PopulateIndex(ix similarity.CandidateIndex, n int, id func(int) string, tokens func(int) []uint64) {
	if lsh, ok := ix.(*similarity.LSHIndex); ok {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = id(i)
		}
		lsh.BulkUpsert(ids, tokens)
		return
	}
	for i := 0; i < n; i++ {
		ix.Upsert(id(i), tokens(i))
	}
}

// contribIxPool recycles transient contribution LSH indexes, one pool per
// parameter set (parameters are derived from the config, so a process
// typically cycles through one or two). Recycled indexes keep their bucket
// maps, arenas and band-key storage warm, so the per-task rebuild in
// ContribCandidates allocates almost nothing in steady state. sync.Pool is
// concurrency-safe, which matters now that CheckAxiom3Tasks fans tasks out.
var contribIxPool sync.Map // similarity.LSHParams → *sync.Pool of *LSHIndex

func getContribIndex(p similarity.LSHParams) *similarity.LSHIndex {
	v, ok := contribIxPool.Load(p)
	if !ok {
		v, _ = contribIxPool.LoadOrStore(p, &sync.Pool{})
	}
	if ix, ok := v.(*sync.Pool).Get().(*similarity.LSHIndex); ok {
		return ix
	}
	return similarity.NewLSHIndex(p)
}

func putContribIndex(p similarity.LSHParams, ix *similarity.LSHIndex) {
	ix.Reset()
	if v, ok := contribIxPool.Load(p); ok {
		v.(*sync.Pool).Put(ix)
	}
}

// posPool recycles the contribution-ID position maps ContribCandidates
// builds per task.
var posPool = sync.Pool{New: func() any { return make(map[string]int, 32) }}

// ContribCandidates prunes one task's contribution pairs: it builds a
// transient LSH index over the contributions and returns the candidate
// pairs as ascending linear pair indices. For the exact backend it reports
// pruned=false — Axiom 3 keeps its all-pairs scoring kernel. The index is
// transient by design: contributions are only ever compared within one
// task, and a dirty task is always re-audited against its current
// contribution set, so there is no cross-pass state to maintain — but its
// storage is pooled, and upserting serially into a recycled index hashes
// each signature in a stack buffer (tasks themselves are already fanned out
// by CheckAxiom3Tasks, so intra-task parallel hashing would only fight the
// outer shards for the same pool).
func (p IndexPlan) ContribCandidates(contribs []*model.Contribution) (ks []int, pruned bool) {
	if p.Kind != CandidateLSH {
		return nil, false
	}
	n := len(contribs)
	if n < 2 {
		return []int{}, true
	}
	ix := getContribIndex(p.Contrib)
	defer putContribIndex(p.Contrib, ix)
	for i := 0; i < n; i++ {
		ix.Upsert(string(contribs[i].ID), p.ContribTokens(contribs[i]))
	}
	pos := posPool.Get().(map[string]int)
	defer func() {
		clear(pos)
		posPool.Put(pos)
	}()
	for i, c := range contribs {
		pos[string(c.ID)] = i
	}
	ks = make([]int, 0, n)
	ix.Pairs(func(a, b string) {
		i, j := pos[a], pos[b]
		if j < i {
			i, j = j, i
		}
		ks = append(ks, similarity.PairIndex(n, i, j))
	})
	sort.Ints(ks)
	return ks, true
}

// provider resolves the candidate source for one checker pass: every pair
// under Exhaustive, else the injected provider if any, else a transient
// snapshot-built one.
func (c *Config) provider(src snapshotSource) CandidateProvider {
	switch {
	case c.Exhaustive:
		return allPairs{workers: sync.OnceValue(src.Workers), tasks: sync.OnceValue(src.Tasks)}
	case c.Candidates != nil:
		return c.Candidates
	}
	plan := c.Plan()
	return snapshotProvider{
		plan: plan,
		workers: sync.OnceValue(func() similarity.CandidateIndex {
			ws := src.Workers()
			ix := plan.NewWorkerIndex()
			PopulateIndex(ix, len(ws), func(i int) string { return string(ws[i].ID) },
				func(i int) []uint64 { return plan.WorkerTokens(ws[i]) })
			return ix
		}),
		tasks: sync.OnceValue(func() similarity.CandidateIndex {
			ts := src.Tasks()
			ix := plan.NewTaskIndex()
			PopulateIndex(ix, len(ts), func(i int) string { return string(ts[i].ID) },
				func(i int) []uint64 { return plan.TaskTokens(ts[i]) })
			return ix
		}),
	}
}

// snapshotSource is the slice of the store API the transient providers
// need (satisfied by *store.Store).
type snapshotSource interface {
	Workers() []*model.Worker
	Tasks() []*model.Task
}

// snapshotProvider builds indexes on demand from the current store
// snapshot — the candidate source for one-shot checker calls (CheckAll and
// friends). Each index is built at most once per pass, on first use; the
// once-guards make the lazy builds safe under the checkers' sharded
// Partners calls, which may race to trigger the first build.
type snapshotProvider struct {
	plan           IndexPlan
	workers, tasks func() similarity.CandidateIndex
}

// WorkerPartners implements CandidateProvider.
func (sp snapshotProvider) WorkerPartners(id model.WorkerID, yield func(p model.WorkerID)) {
	sp.workers().Partners(string(id), func(p string) { yield(model.WorkerID(p)) })
}

// TaskPartners implements CandidateProvider.
func (sp snapshotProvider) TaskPartners(id model.TaskID, yield func(p model.TaskID)) {
	sp.tasks().Partners(string(id), func(p string) { yield(model.TaskID(p)) })
}

// ContribPairs implements CandidateProvider.
func (sp snapshotProvider) ContribPairs(_ model.TaskID, contribs []*model.Contribution) ([]int, bool) {
	return sp.plan.ContribCandidates(contribs)
}

// allPairs is Config.Exhaustive's candidate source, the O(n²) scan of the
// E7 ablation: every other entity is a partner and every contribution pair
// a candidate. Partners are streamed from one snapshot taken on first use,
// never materialised per id.
type allPairs struct {
	workers func() []*model.Worker
	tasks   func() []*model.Task
}

// WorkerPartners implements CandidateProvider.
func (ap allPairs) WorkerPartners(id model.WorkerID, yield func(p model.WorkerID)) {
	for _, w := range ap.workers() {
		if w.ID != id {
			yield(w.ID)
		}
	}
}

// TaskPartners implements CandidateProvider.
func (ap allPairs) TaskPartners(id model.TaskID, yield func(p model.TaskID)) {
	for _, t := range ap.tasks() {
		if t.ID != id {
			yield(t.ID)
		}
	}
}

// ContribPairs implements CandidateProvider.
func (allPairs) ContribPairs(model.TaskID, []*model.Contribution) ([]int, bool) { return nil, false }
