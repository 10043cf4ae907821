// Package fairness implements the paper's central contribution as
// executable code: checkers for fairness Axioms 1–5 (§3.2.1) that audit a
// platform trace (a store.Store state plus an eventlog.Log history) and
// report every violation, together with the aggregate fairness indices the
// experiments report.
//
// Each axiom is a parameterised predicate — the paper makes the similarity
// notions explicitly platform-dependent — so every checker takes a Config
// carrying thresholds and measures, with defaults chosen per the paper's
// own suggestions (cosine similarity for skills, n-grams/DCG for
// contributions, threshold similarity for attributes).
package fairness

import (
	"fmt"
	"sort"

	"repro/internal/eventlog"
	"repro/internal/model"
	"repro/internal/similarity"
	"repro/internal/store"
)

// Axiom identifies one of the paper's fairness axioms.
type Axiom int

// The five fairness axioms of §3.2.1.
const (
	Axiom1WorkerAssignment    Axiom = 1 // worker fairness in task assignment
	Axiom2RequesterAssignment Axiom = 2 // requester fairness in task assignment
	Axiom3Compensation        Axiom = 3 // fairness in worker compensation
	Axiom4MaliciousDetection  Axiom = 4 // requester fairness in task completion
	Axiom5NoInterruption      Axiom = 5 // worker fairness in task completion
)

// String renders the axiom name.
func (a Axiom) String() string {
	switch a {
	case Axiom1WorkerAssignment:
		return "Axiom 1 (worker fairness in task assignment)"
	case Axiom2RequesterAssignment:
		return "Axiom 2 (requester fairness in task assignment)"
	case Axiom3Compensation:
		return "Axiom 3 (fairness in worker compensation)"
	case Axiom4MaliciousDetection:
		return "Axiom 4 (requester fairness in task completion)"
	case Axiom5NoInterruption:
		return "Axiom 5 (worker fairness in task completion)"
	default:
		return fmt.Sprintf("Axiom %d", int(a))
	}
}

// Violation is one audited failure of an axiom.
type Violation struct {
	Axiom Axiom
	// Subjects are the entity ids involved (two workers for Axiom 1, two
	// tasks for Axiom 2, two contributions for Axiom 3, one worker for
	// Axioms 4/5).
	Subjects []string
	// Detail is a human-readable explanation with the measured quantities.
	Detail string
	// Severity in (0,1] scales with how blatant the violation is (e.g. the
	// pay gap between similar contributions, or the access-overlap deficit).
	Severity float64
}

// String renders the violation for reports.
func (v Violation) String() string {
	return fmt.Sprintf("%s: %v: %s (severity %.2f)", v.Axiom, v.Subjects, v.Detail, v.Severity)
}

// Config parameterises all checkers.
//
// Zero-value defaulting: every float threshold/tolerance field treats 0 as
// "use the documented default". An explicit zero is expressed with any
// negative value — e.g. AccessThreshold: -1 demands no overlap at all and
// PayTolerance: -1 demands exactly equal pay — so callers are never
// silently upgraded from a deliberate 0 to the default.
type Config struct {
	// SkillMeasure compares skill vectors (Axioms 1 and 2).
	// Default: cosine.
	SkillMeasure similarity.VectorMeasure
	// SkillThreshold is the similarity at/above which two skill vectors
	// are "similar" (default 0.9).
	SkillThreshold float64
	// AttrPolicy compares declared/computed attribute sets (Axiom 1).
	// Default: numeric tolerance 0.1.
	AttrPolicy *similarity.AttrPolicy
	// AttrThreshold is the attribute-set similarity at/above which two
	// workers are "similar" (default 0.9).
	AttrThreshold float64
	// AccessThreshold is the minimum Jaccard overlap of two similar
	// workers' offer sets (Axiom 1) or two similar tasks' audiences
	// (Axiom 2) before a violation is reported (default 1.0: identical
	// access, the paper's literal reading).
	AccessThreshold float64
	// RewardTolerance is the relative reward difference within which two
	// tasks "offer comparable rewards" (Axiom 2; default 0.1).
	RewardTolerance float64
	// ContributionThreshold is the similarity at/above which two
	// contributions are "similar" (Axiom 3; default 0.8).
	ContributionThreshold float64
	// PayTolerance is the relative pay difference tolerated between
	// similar contributions (Axiom 3; default 0.01).
	PayTolerance float64
	// Exhaustive forces the O(n²) pair scan instead of the skill join's
	// candidates (the E7 ablation switch). It overrides Candidates.
	Exhaustive bool
	// CandidateIndex is ignored. Axiom 1–2 candidates come from the exact
	// skill join (similarity.SkillJoin): exactly the pairs whose skills meet
	// SkillMeasure at SkillThreshold. Under Hamming, a measure that is not
	// built in, or a threshold <= 0, similar pairs need not share a skill,
	// and every pair is examined. The field remains because the crowdbench
	// harness (bench/) sets it.
	CandidateIndex string
	// LSHSeed is ignored: no candidate source is randomised. It remains
	// because the crowdbench harness (bench/) sets it.
	LSHSeed uint64
	// Candidates, when non-nil, supplies candidate pairs directly instead
	// of a transient per-call index build — internal/audit injects its
	// incrementally maintained provider here. The provider must be built
	// from this config's Plan() so its candidate sets match what the
	// checkers would build themselves.
	Candidates CandidateProvider
	// RecordCheckedPairs makes the Axiom 1/2 checkers list every candidate
	// pair they examine in Report.CheckedPairs. Incremental auditors
	// (internal/audit) use the lists to maintain an exact candidate-pair
	// census across delta passes, so their reported Checked counts stay
	// equal to a full scan's: a pair's candidacy depends only on its two
	// endpoints, so pairs of two unchanged endpoints keep their status.
	RecordCheckedPairs bool
}

// DefaultConfig returns the configuration used throughout the experiments.
func DefaultConfig() Config {
	ap := similarity.TolerantAttrPolicy(0.1)
	return Config{
		SkillMeasure:          similarity.MeasureCosine,
		SkillThreshold:        0.9,
		AttrPolicy:            &ap,
		AttrThreshold:         0.9,
		AccessThreshold:       1.0,
		RewardTolerance:       0.1,
		ContributionThreshold: 0.8,
		PayTolerance:          0.01,
	}
}

func (c *Config) skillMeasure() similarity.VectorMeasure {
	if c.SkillMeasure.Func == nil {
		return similarity.MeasureCosine
	}
	return c.SkillMeasure
}

func (c *Config) attrPolicy() similarity.AttrPolicy {
	if c.AttrPolicy == nil {
		return similarity.TolerantAttrPolicy(0.1)
	}
	return *c.AttrPolicy
}

// orDefault maps the zero value to the documented default and any negative
// value to an explicit zero (see the Config doc), so a deliberate 0 is
// expressible without colliding with Go's zero-value defaulting.
func orDefault(v, def float64) float64 {
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0
	}
	return v
}

// Report is the outcome of auditing one axiom over a trace.
type Report struct {
	Axiom Axiom
	// Checked is the number of candidate units examined (pairs for Axioms
	// 1–3, workers/starts for 4–5). For Axioms 1–2 it counts the pairs the
	// axiom quantifies over: the pairs that meet the skill premise, or every
	// pair under Exhaustive or a plan that is not indexed (see
	// IndexPlan.Indexed). Axiom 3 counts every pair of contributions by
	// distinct workers to one task.
	Checked int
	// Violations lists every failure found, deterministically ordered.
	Violations []Violation
	// CheckedPairs lists the subject-id pair of every candidate examined,
	// in examination order. Populated by the Axiom 1/2 checkers only when
	// Config.RecordCheckedPairs is set; nil otherwise.
	CheckedPairs [][2]string
}

// ViolationRate returns violations per checked unit (0 if nothing checked).
func (r *Report) ViolationRate() float64 {
	if r.Checked == 0 {
		return 0
	}
	return float64(len(r.Violations)) / float64(r.Checked)
}

// Satisfied reports whether the axiom held over the whole trace.
func (r *Report) Satisfied() bool { return len(r.Violations) == 0 }

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("%s: checked=%d violations=%d rate=%.4f",
		r.Axiom, r.Checked, len(r.Violations), r.ViolationRate())
}

// idSet is a precomputed id set with an order-independent fingerprint, so
// the checkers can compare many offer sets pairwise without rebuilding maps
// per pair and can shortcut the (common) identical-sets case.
type idSet[T ~string] struct {
	set  map[T]bool
	hash uint64
}

// add inserts id, reporting whether the set changed. The XOR-combined
// per-element FNV-1a fingerprint is order- and duplicate-independent, so
// incremental insertion and batch construction agree.
func (s *idSet[T]) add(id T) bool {
	if s.set == nil {
		s.set = make(map[T]bool)
	}
	if s.set[id] {
		return false
	}
	s.set[id] = true
	s.hash ^= fnv64a(string(id))
	return true
}

// size returns the number of distinct ids in the set.
func (s idSet[T]) size() int { return len(s.set) }

func fnv64a(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func newIDSet[T ~string](ids []T) idSet[T] {
	s := idSet[T]{set: make(map[T]bool, len(ids))}
	for _, id := range ids {
		s.add(id)
	}
	return s
}

// jaccard computes the overlap of two precomputed sets with an equality
// fast path.
func (a idSet[T]) jaccard(b idSet[T]) float64 {
	if len(a.set) == 0 && len(b.set) == 0 {
		return 1
	}
	if a.hash == b.hash && len(a.set) == len(b.set) {
		return 1 // identical with overwhelming probability; severity-free path
	}
	small, big := a.set, b.set
	if len(big) < len(small) {
		small, big = big, small
	}
	shared := 0
	for id := range small {
		if big[id] {
			shared++
		}
	}
	union := len(a.set) + len(b.set) - shared
	if union == 0 {
		return 1
	}
	return float64(shared) / float64(union)
}

// AccessIndex is the offer/audience evidence Axioms 1 and 2 audit: for
// every worker the set of tasks made visible to them, and for every task
// the set of workers it was shown to. The index is maintained incrementally
// — Observe folds one trace event in — so a long-lived audit engine never
// replays the whole log, and repeated offers of the same task to the same
// worker are deduplicated exactly like the Jaccard computation requires.
type AccessIndex struct {
	offers   map[model.WorkerID]*idSet[model.TaskID]
	audience map[model.TaskID]*idSet[model.WorkerID]
}

// NewAccessIndex returns an empty index.
func NewAccessIndex() *AccessIndex {
	return &AccessIndex{
		offers:   make(map[model.WorkerID]*idSet[model.TaskID]),
		audience: make(map[model.TaskID]*idSet[model.WorkerID]),
	}
}

// AccessIndexFromLog builds the index from a complete trace.
func AccessIndexFromLog(log *eventlog.Log) *AccessIndex {
	ix := NewAccessIndex()
	for _, e := range log.ByType(eventlog.TaskOffered) {
		ix.Observe(e)
	}
	return ix
}

// Observe folds one event into the index. It reports whether the event
// changed any access set — false for non-offer events and for repeated
// offers of a task already visible to the worker — which is exactly the
// signal an incremental auditor needs to mark the endpoints dirty.
func (ix *AccessIndex) Observe(e eventlog.Event) bool {
	if e.Type != eventlog.TaskOffered {
		return false
	}
	o := ix.offers[e.Worker]
	if o == nil {
		o = &idSet[model.TaskID]{}
		ix.offers[e.Worker] = o
	}
	if !o.add(e.Task) {
		return false
	}
	a := ix.audience[e.Task]
	if a == nil {
		a = &idSet[model.WorkerID]{}
		ix.audience[e.Task] = a
	}
	a.add(e.Worker)
	return true
}

// Offers exports the deduplicated offer sets — each worker's visible task
// ids, sorted — for checkpoint serialisation. RestoreOffer rebuilds an
// equal index (including the per-set fingerprints) from the lists.
func (ix *AccessIndex) Offers() map[model.WorkerID][]model.TaskID {
	out := make(map[model.WorkerID][]model.TaskID, len(ix.offers))
	for w, s := range ix.offers {
		ids := make([]model.TaskID, 0, len(s.set))
		for t := range s.set {
			ids = append(ids, t)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		out[w] = ids
	}
	return out
}

// RestoreOffer re-inserts one (worker, task) visibility edge — the inverse
// of Offers. Equivalent to observing a TaskOffered event.
func (ix *AccessIndex) RestoreOffer(w model.WorkerID, t model.TaskID) {
	ix.Observe(eventlog.Event{Type: eventlog.TaskOffered, Worker: w, Task: t})
}

// offerSet returns the worker's deduplicated offer set (zero set if none).
func (ix *AccessIndex) offerSet(id model.WorkerID) idSet[model.TaskID] {
	if s, ok := ix.offers[id]; ok {
		return *s
	}
	return idSet[model.TaskID]{}
}

// audienceSet returns the task's deduplicated audience (zero set if none).
func (ix *AccessIndex) audienceSet(id model.TaskID) idSet[model.WorkerID] {
	if s, ok := ix.audience[id]; ok {
		return *s
	}
	return idSet[model.WorkerID]{}
}

// SortViolations orders violations by their subject ids — the deterministic
// report order every checker uses. Exposed for consumers (internal/audit)
// that merge incrementally maintained violation sets into reports.
func SortViolations(vs []Violation) { sortViolations(vs) }

// ViolationLess is the strict ordering SortViolations applies, exposed so
// incremental consumers can merge already-sorted violation runs without
// re-sorting.
func ViolationLess(a, b Violation) bool {
	for k := 0; k < len(a.Subjects) && k < len(b.Subjects); k++ {
		if a.Subjects[k] != b.Subjects[k] {
			return a.Subjects[k] < b.Subjects[k]
		}
	}
	return len(a.Subjects) < len(b.Subjects)
}

func sortViolations(vs []Violation) {
	sort.Slice(vs, func(i, j int) bool { return ViolationLess(vs[i], vs[j]) })
}

// CheckAll runs every axiom checker over the trace and returns the reports
// in axiom order. The detection component of Axiom 4 is taken as satisfied
// when the log shows WorkerFlagged events for workers the caller knows to
// be malicious; see CheckAxiom4 for the contract.
func CheckAll(st *store.Store, log *eventlog.Log, cfg Config) []*Report {
	return []*Report{
		CheckAxiom1(st, log, cfg),
		CheckAxiom2(st, log, cfg),
		CheckAxiom3(st, cfg),
		CheckAxiom4(st, log),
		CheckAxiom5(log),
	}
}
