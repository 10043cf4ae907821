package fairness

import (
	"math/bits"
	"sync"

	"repro/internal/model"
	"repro/internal/similarity"
)

// Candidate-index kinds accepted by Config.CandidateIndex. Both find every
// pair that meets the skill premise of Axioms 1 and 2, so both report the
// same violations; they differ in how many pairs the checkers examine.
const (
	// CandidateExact is the inverted skill index (similarity.ExactIndex):
	// every pair that shares a skill is a candidate, which the checkers
	// then judge in full.
	CandidateExact = "exact"
	// CandidateLSH is the exact skill join (similarity.SkillJoin): a
	// candidate is a pair whose skills meet the configured measure at
	// SkillThreshold, found by prefix filtering and verified, so the
	// checkers examine no pair they would reject on skills. The kind keeps
	// the name of the MinHash/LSH index it replaced, because configurations
	// select it by that name.
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

// CandidateProvider supplies candidate pairs to the Axiom 1–2 checkers. A
// pair's membership must depend only on its two endpoints' current
// contents and be symmetric (b is a partner of a exactly when a is one of
// b): that is what lets a pass over any scope of ids (see walkPairs) find
// the same pairs a full scan does, and delta audits agree with full ones.
// internal/audit injects an incrementally maintained provider; when
// Config.Candidates is nil the checkers build a transient one per call from
// the store snapshot.
type CandidateProvider interface {
	// WorkerPartners yields every candidate partner of one worker, each
	// once, never the worker itself.
	WorkerPartners(id model.WorkerID, yield func(p model.WorkerID))
	// TaskPartners yields every candidate partner of one task, likewise.
	TaskPartners(id model.TaskID, yield func(p model.TaskID))
}

// SkillIndex is a candidate index over entities' packed skills, the source
// of one entity kind's partners: *similarity.SkillJoin, or the exact kind's
// skill-sharing index.
type SkillIndex interface {
	// Upsert stores id's skills, replacing any earlier ones.
	Upsert(id string, skills model.SkillBits)
	// Remove deletes id (a no-op for unknown ids).
	Remove(id string)
	// Partners yields every candidate partner of id, each once.
	Partners(id string, yield func(partner string))
}

// IndexPlan is the candidate recipe a Config implies: the backend, and the
// skill measure and threshold whose premise it serves. It is the shared
// vocabulary between the transient providers built by the checkers and the
// long-lived, incrementally maintained indexes owned by internal/audit —
// both build indexes from the same plan, which is why their candidate sets
// (and therefore reports) agree.
type IndexPlan struct {
	kind      string // CandidateExact or CandidateLSH
	measure   similarity.VectorMeasure
	threshold float64
}

// Plan derives the index recipe from the config's kind, skill measure and
// SkillThreshold. Worker and task indexes share it.
func (c *Config) Plan() IndexPlan {
	return IndexPlan{kind: c.CandidateKind(), measure: c.skillMeasure(), threshold: orDefault(c.SkillThreshold, 0.9)}
}

// Indexed reports whether the plan draws partners from an index. It does
// only when every pair that meets the skill premise shares a skill (see
// similarity.Joinable): not under Hamming, whose agreement counts the
// skills both lack, a measure that is not built in, or a threshold <= 0.
// Otherwise every pair is a candidate under either kind.
func (p IndexPlan) Indexed() bool { return similarity.Joinable(p.measure, p.threshold) }

// NewIndex returns an empty worker or task index for the plan's kind, or
// nil when the plan is not Indexed.
func (p IndexPlan) NewIndex() SkillIndex {
	switch {
	case !p.Indexed():
		return nil
	case p.kind == CandidateLSH:
		return similarity.NewSkillJoin(p.measure, p.threshold)
	}
	return sharedSkills{similarity.NewExactIndex()}
}

// sharedSkills is the exact kind's SkillIndex: skill positions (or the
// skill-less sentinel) as ExactIndex tokens, so a pair is a candidate iff
// it shares a skill or both have none.
type sharedSkills struct{ *similarity.ExactIndex }

// Upsert implements SkillIndex.
func (s sharedSkills) Upsert(id string, v model.SkillBits) { s.ExactIndex.Upsert(id, skillTokens(v)) }

// skilllessToken pairs entities without skills with each other and nothing
// else: the similarity measures treat two empty vectors as identical.
var skilllessToken = similarity.HashToken("fairness:no-skills")

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

// PopulateIndex upserts the skills of every id peek finds, read in place
// (no entity is cloned), and removes every id it does not: the one install
// path of a cold build, a snapshot provider's build and a delta pass's
// refresh of the entities it found changed.
func PopulateIndex[ID ~string, E any](ix SkillIndex, ids []ID, peek func(ID) *E, skills func(*E) model.SkillBits) {
	for _, id := range ids {
		if e := peek(id); e != nil {
			ix.Upsert(string(id), skills(e))
		} else {
			ix.Remove(string(id))
		}
	}
}

// provider resolves the candidate source for one checker pass: every pair
// under Exhaustive or a plan that is not Indexed, else the injected
// provider if any, else a transient snapshot-built one.
func (c *Config) provider(src snapshotSource) CandidateProvider {
	plan := c.Plan()
	switch {
	case c.Exhaustive || !plan.Indexed():
		return allPairs{workers: sync.OnceValue(src.WorkerIDs), tasks: sync.OnceValue(src.TaskIDs)}
	case c.Candidates != nil:
		return c.Candidates
	}
	return snapshotProvider{
		workers: sync.OnceValue(func() SkillIndex {
			ix := plan.NewIndex()
			PopulateIndex(ix, src.WorkerIDs(), src.PeekWorker, (*model.Worker).SkillBits)
			return ix
		}),
		tasks: sync.OnceValue(func() SkillIndex {
			ix := plan.NewIndex()
			PopulateIndex(ix, src.TaskIDs(), src.PeekTask, (*model.Task).SkillBits)
			return ix
		}),
	}
}

// snapshotSource is the slice of the store API the transient providers
// need (satisfied by *store.Store).
type snapshotSource interface {
	WorkerIDs() []model.WorkerID
	PeekWorker(model.WorkerID) *model.Worker
	TaskIDs() []model.TaskID
	PeekTask(model.TaskID) *model.Task
}

// snapshotProvider builds indexes on demand from the current store
// snapshot — the candidate source for one-shot checker calls (CheckAll and
// friends). Each index is built at most once per pass, on first use; the
// once-guards make the lazy builds safe under the checkers' sharded
// Partners calls, which may race to trigger the first build.
type snapshotProvider struct {
	workers, tasks func() SkillIndex
}

// WorkerPartners implements CandidateProvider.
func (sp snapshotProvider) WorkerPartners(id model.WorkerID, yield func(p model.WorkerID)) {
	sp.workers().Partners(string(id), func(p string) { yield(model.WorkerID(p)) })
}

// TaskPartners implements CandidateProvider.
func (sp snapshotProvider) TaskPartners(id model.TaskID, yield func(p model.TaskID)) {
	sp.tasks().Partners(string(id), func(p string) { yield(model.TaskID(p)) })
}

// allPairs is the all-pairs candidate source: Config.Exhaustive's O(n²)
// scan of the E7 ablation, and every plan that is not Indexed. Every other
// entity is a partner, streamed from one id list taken on first use.
type allPairs struct {
	workers func() []model.WorkerID
	tasks   func() []model.TaskID
}

// WorkerPartners implements CandidateProvider.
func (ap allPairs) WorkerPartners(id model.WorkerID, yield func(p model.WorkerID)) {
	for _, w := range ap.workers() {
		if w != id {
			yield(w)
		}
	}
}

// TaskPartners implements CandidateProvider.
func (ap allPairs) TaskPartners(id model.TaskID, yield func(p model.TaskID)) {
	for _, t := range ap.tasks() {
		if t != id {
			yield(t)
		}
	}
}
