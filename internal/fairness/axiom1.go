package fairness

import (
	"fmt"

	"repro/internal/eventlog"
	"repro/internal/model"
	"repro/internal/store"
)

// CheckAxiom1 audits worker fairness in task assignment:
//
//	"Given two different workers wi and wj, if Awi is similar to Awj and
//	 Cwi is similar to Cwj, and Swi is similar to Swj, then wi and wj
//	 should have access to the same tasks."
//
// Access is reconstructed from TaskOffered events in the log. For every
// pair of similar workers (all three similarity conditions at their
// thresholds), the checker compares offer sets by Jaccard overlap and
// reports a violation when the overlap falls below cfg.AccessThreshold.
// Offer sets are deduplicated: repeating the same offer neither changes the
// overlap nor the reported set sizes.
//
// Candidate pairs come from the skill join (the workers whose skills meet
// the skill premise), or from every pair when cfg.Exhaustive forces the
// O(n²) scan or the skill measure has no prefix bound (see
// IndexPlan.Indexed). Workers
// with empty skill vectors pair with each other (they are trivially
// skill-similar) and nothing else.
func CheckAxiom1(st *store.Store, log *eventlog.Log, cfg Config) (rep *Report) {
	log.ReadLedger(func(d *eventlog.Ledger) { rep = Axiom1Pairs(st, d, cfg, st.WorkerIDs()) })
	return rep
}

// Axiom1Pairs audits, under CheckAxiom1's predicates and over the offer
// sets of the trace's ledger, every candidate pair with at least one
// endpoint in ids (sorted ascending, deduplicated). Every worker id is the
// full scan. An incremental auditor (internal/audit) passes the workers whose
// attributes, skills or offer sets changed since its last pass: re-checking
// their pairs, and dropping the standing violations that touch them,
// reproduces the full scan, because pairs of two unchanged workers cannot
// have changed status. Report.Checked counts the pairs examined.
func Axiom1Pairs(st *store.Store, d *eventlog.Ledger, cfg Config, ids []model.WorkerID) *Report {
	similar := cfg.similarWorkers()
	accessThr := orDefault(cfg.AccessThreshold, 1.0)
	return walkPairs(Axiom1WorkerAssignment, ids, cfg.provider(st).WorkerPartners, st.PeekWorker, cfg.RecordCheckedPairs,
		func(a, b *model.Worker) (bool, Violation) {
			if !similar(a, b) {
				return true, Violation{}
			}
			aSet, bSet := d.Offers(a.ID), d.Offers(b.ID)
			overlap := jaccard(aSet, bSet)
			if overlap >= accessThr {
				return true, Violation{}
			}
			return true, Violation{
				Axiom:    Axiom1WorkerAssignment,
				Subjects: []string{string(a.ID), string(b.ID)},
				Detail: fmt.Sprintf("similar workers saw different tasks: offer overlap %.2f < %.2f (|offers| %d vs %d)",
					overlap, accessThr, len(aSet), len(bSet)),
				Severity: accessThr - overlap,
			}
		})
}

// similarWorkers is Axiom 1's premise at cfg's thresholds: the two workers'
// skills, declared attributes and computed attributes are each similar.
// RepairAxiom1 groups workers by the same predicate.
func (c *Config) similarWorkers() func(a, b *model.Worker) bool {
	skillThr := orDefault(c.SkillThreshold, 0.9)
	attrThr := orDefault(c.AttrThreshold, 0.9)
	measure := c.skillMeasure()
	policy := c.attrPolicy()
	return func(a, b *model.Worker) bool {
		return measure.Func(a.SkillBits(), b.SkillBits()) >= skillThr &&
			policy.Similarity(a.Declared, b.Declared) >= attrThr &&
			policy.Similarity(a.Computed, b.Computed) >= attrThr
	}
}

// Axiom1FromOffers is a convenience entry point for auditing an assignment
// result directly (before any simulation): it audits a trace that offers
// the store's workers their tasks in offers.
func Axiom1FromOffers(st *store.Store, offers map[model.WorkerID][]model.TaskID, cfg Config) *Report {
	var events []eventlog.Event
	for _, w := range st.WorkerIDs() {
		for _, t := range offers[w] {
			events = append(events, eventlog.Event{Type: eventlog.TaskOffered, Worker: w, Task: t})
		}
	}
	log := eventlog.New()
	if err := log.AppendBatch(events); err != nil {
		panic(err) // an in-memory log refuses only events out of time order
	}
	return CheckAxiom1(st, log, cfg)
}
