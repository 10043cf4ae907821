package fairness

import (
	"sync"

	"repro/internal/model"
	"repro/internal/similarity"
)

// CandidateLSH is ignored, like the Config.CandidateIndex value it names:
// every plan draws Axiom 1–2 partners from the skill join (see IndexPlan).
// It remains because the crowdbench harness (bench/) sets it.
const CandidateLSH = "lsh"

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

// IndexPlan is the candidate recipe a Config implies: the skill measure
// and threshold whose premise the skill join serves. It is the shared
// vocabulary between the transient providers built by the checkers and the
// long-lived, incrementally maintained joins owned by internal/audit —
// both build joins from the same plan, which is why their candidate sets
// (and therefore reports) agree.
type IndexPlan struct {
	measure   similarity.VectorMeasure
	threshold float64
}

// Plan derives the index recipe from the config's skill measure and
// SkillThreshold. Worker and task joins share it.
func (c *Config) Plan() IndexPlan {
	return IndexPlan{measure: c.skillMeasure(), threshold: orDefault(c.SkillThreshold, 0.9)}
}

// Indexed reports whether the plan draws partners from a skill join. It
// does only when every pair that meets the skill premise shares a skill
// (see similarity.Joinable): not under Hamming, whose agreement counts the
// skills both lack, a measure that is not built in, or a threshold <= 0.
// Otherwise every pair is a candidate.
func (p IndexPlan) Indexed() bool { return similarity.Joinable(p.measure, p.threshold) }

// NewIndex returns an empty worker or task skill join for the plan, or nil
// when the plan is not Indexed.
func (p IndexPlan) NewIndex() *similarity.SkillJoin {
	if !p.Indexed() {
		return nil
	}
	return similarity.NewSkillJoin(p.measure, p.threshold)
}

// PopulateIndex upserts the skills of every id peek finds, read in place
// (no entity is cloned), and removes every id it does not: the one install
// path of a cold build, a snapshot provider's build and a delta pass's
// refresh of the entities it found changed.
func PopulateIndex[ID ~string, E any](ix *similarity.SkillJoin, ids []ID, peek func(ID) *E, skills func(*E) model.SkillBits) {
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
		workers: sync.OnceValue(func() *similarity.SkillJoin {
			ix := plan.NewIndex()
			PopulateIndex(ix, src.WorkerIDs(), src.PeekWorker, (*model.Worker).SkillBits)
			return ix
		}),
		tasks: sync.OnceValue(func() *similarity.SkillJoin {
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
// once-guards make the lazy builds safe under the checkers' parallel
// Partners calls, which may race to trigger the first build.
type snapshotProvider struct {
	workers, tasks func() *similarity.SkillJoin
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
