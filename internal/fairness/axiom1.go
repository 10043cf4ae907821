package fairness

import (
	"fmt"

	"repro/internal/eventlog"
	"repro/internal/model"
	"repro/internal/par"
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
// Candidate pairs come from the config's candidate index (an exact
// inverted token index by default, MinHash/LSH pruning when
// cfg.CandidateIndex selects it) unless cfg.Exhaustive forces the O(n²)
// scan. Workers with empty skill vectors carry a sentinel token, so they
// pair with each other (they are trivially skill-similar) and nothing
// else.
func CheckAxiom1(st *store.Store, log *eventlog.Log, cfg Config) *Report {
	return checkAxiom1(st, AccessIndexFromLog(log), cfg, nil, true)
}

// CheckAxiom1Delta audits only the candidate pairs with at least one
// endpoint in dirty, under exactly the same similarity and access
// predicates as CheckAxiom1. It is the incremental entry point: given the
// set of workers whose attributes, skills, or offer sets changed since the
// last audit, re-checking these pairs (and dropping previously recorded
// violations that touch a dirty worker) reproduces the full audit's
// violation set — pairs of two clean workers cannot have changed status.
// Report.Checked counts only the pairs this delta pass examined.
func CheckAxiom1Delta(st *store.Store, log *eventlog.Log, cfg Config, dirty map[model.WorkerID]bool) *Report {
	return checkAxiom1(st, AccessIndexFromLog(log), cfg, sortedIDList(dirty), false)
}

// CheckAxiom1DeltaIndexed is CheckAxiom1Delta over a caller-maintained
// AccessIndex, so long-lived auditors (internal/audit) never replay the
// whole event log per pass. dirty must be sorted ascending and
// deduplicated — the slice form lets per-pass auditors reuse one scratch
// buffer instead of allocating id sets, and gives the checker O(log n)
// membership via binary search.
func CheckAxiom1DeltaIndexed(st *store.Store, ix *AccessIndex, cfg Config, dirty []model.WorkerID) *Report {
	return checkAxiom1(st, ix, cfg, dirty, false)
}

// CheckAxiom1Indexed is the full scan over a caller-maintained AccessIndex
// — the incremental engine's cold-start path.
func CheckAxiom1Indexed(st *store.Store, ix *AccessIndex, cfg Config) *Report {
	return checkAxiom1(st, ix, cfg, nil, true)
}

// checkAxiom1 is the shared core. full selects the complete pair scan;
// otherwise only pairs touching dirty (sorted ascending, deduplicated) are
// examined. Every path shards the pair space by outer index into disjoint
// pairSlots and folds them in order, so parallel runs are byte-identical
// to serial ones (see parallel.go).
func checkAxiom1(st *store.Store, ix *AccessIndex, cfg Config, dirty []model.WorkerID, full bool) *Report {
	rep := &Report{Axiom: Axiom1WorkerAssignment}
	skillThr := orDefault(cfg.SkillThreshold, 0.9)
	attrThr := orDefault(cfg.AttrThreshold, 0.9)
	accessThr := orDefault(cfg.AccessThreshold, 1.0)
	measure := cfg.skillMeasure()
	policy := cfg.attrPolicy()

	// check examines one pair into the calling shard's slot; callers pass
	// a.ID < b.ID so memo keys and violation subjects are canonical. The
	// memo (when present) is concurrency-safe by contract.
	check := func(sl *pairSlot, a, b *model.Worker) {
		sl.checked++
		if cfg.RecordCheckedPairs {
			sl.pairs = append(sl.pairs, [2]string{string(a.ID), string(b.ID)})
		}
		var sc WorkerPairScores
		if cfg.Memo != nil {
			sc = cfg.Memo.WorkerPair(a.ID, b.ID, func() WorkerPairScores {
				return WorkerPairScores{
					Skill:    measure.Func(a.Skills, b.Skills),
					Declared: policy.Similarity(a.Declared, b.Declared),
					Computed: policy.Similarity(a.Computed, b.Computed),
				}
			})
			if sc.Skill < skillThr || sc.Declared < attrThr || sc.Computed < attrThr {
				return
			}
		} else {
			if measure.Func(a.Skills, b.Skills) < skillThr {
				return
			}
			if policy.Similarity(a.Declared, b.Declared) < attrThr {
				return
			}
			if policy.Similarity(a.Computed, b.Computed) < attrThr {
				return
			}
		}
		aSet, bSet := ix.offerSet(a.ID), ix.offerSet(b.ID)
		overlap := aSet.jaccard(bSet)
		if overlap >= accessThr {
			return
		}
		sl.viols = append(sl.viols, Violation{
			Axiom:    Axiom1WorkerAssignment,
			Subjects: []string{string(a.ID), string(b.ID)},
			Detail: fmt.Sprintf("similar workers saw different tasks: offer overlap %.2f < %.2f (|offers| %d vs %d)",
				overlap, accessThr, aSet.size(), bSet.size()),
			Severity: accessThr - overlap,
		})
	}

	switch {
	case full || cfg.Exhaustive:
		// Full and exhaustive passes touch (nearly) every worker, so one
		// bulk snapshot is the cheap shape. Shard by outer worker: slot i
		// owns every pair whose smaller endpoint is workers[i].
		workers := st.Workers()
		slots := make([]pairSlot, len(workers))
		switch {
		case cfg.Exhaustive && full:
			par.For(len(workers), 0, func(i int) {
				sl := &slots[i]
				for j := i + 1; j < len(workers); j++ {
					check(sl, workers[i], workers[j])
				}
			})
		case cfg.Exhaustive:
			par.For(len(workers), 0, func(i int) {
				sl := &slots[i]
				iDirty := containsSorted(dirty, workers[i].ID)
				for j := i + 1; j < len(workers); j++ {
					if iDirty || containsSorted(dirty, workers[j].ID) {
						check(sl, workers[i], workers[j])
					}
				}
			})
		default:
			byID := make(map[model.WorkerID]*model.Worker, len(workers))
			for _, w := range workers {
				byID[w.ID] = w
			}
			prov := cfg.provider(st)
			// Pairs and Partners describe the same pair set, so owning each
			// pair at its smaller endpoint enumerates every index pair
			// exactly once — but sharded, where the Pairs stream is not.
			par.For(len(workers), 0, func(i int) {
				sl := &slots[i]
				a := workers[i]
				prov.WorkerPartners(a.ID, func(pid model.WorkerID) {
					if pid <= a.ID {
						return // the pair's smaller endpoint owns it
					}
					b := byID[pid]
					if b == nil {
						// The index saw a worker the snapshot lacks (audit
						// racing mutation); the insert is still pending for
						// the next pass.
						return
					}
					check(sl, a, b)
				})
			})
		}
		mergeSlots(rep, slots)
	default:
		// Delta passes touch only dirty workers and their candidate
		// partners — a bulk snapshot here would cost O(n) per pass and
		// dominate small deltas at large populations. Three phases:
		// enumerate candidate partners per dirty id (sharded, disjoint
		// writes), look the named entities up in place, then check each
		// dirty id's pairs into its own slot (sharded likewise).
		prov := cfg.provider(st)
		ds := workerDeltaPool.Get().(*deltaScratch[model.WorkerID, model.Worker])
		defer workerDeltaPool.Put(ds)
		ds.reset(len(dirty))
		par.For(len(dirty), 0, func(k int) {
			prov.WorkerPartners(dirty[k], func(pid model.WorkerID) {
				ds.partners[k] = append(ds.partners[k], pid)
			})
		})
		table := ds.fetch(dirty, st.PeekWorker)
		if cfg.RecordCheckedPairs {
			ds.carvePairs()
		}
		par.For(len(dirty), 0, func(k int) {
			did := dirty[k]
			d := table[did]
			if d == nil {
				return // deleted, or indexed ahead of this pass
			}
			sl := &ds.slots[k]
			for _, pid := range ds.partners[k] {
				p := table[pid]
				if p == nil {
					continue
				}
				if pid < did && containsSorted(dirty, pid) {
					continue // the partner's own shard owns this pair
				}
				a, b := d, p
				if b.ID < a.ID {
					a, b = b, a
				}
				check(sl, a, b)
			}
		})
		mergeSlots(rep, ds.slots)
	}
	sortViolations(rep.Violations)
	return rep
}

// Axiom1FromOffers is a convenience entry point for auditing an assignment
// result directly (before any simulation): it synthesises the TaskOffered
// view from an offers map instead of an event log.
func Axiom1FromOffers(st *store.Store, offers map[model.WorkerID][]model.TaskID, cfg Config) *Report {
	log := eventlog.New()
	for _, w := range st.Workers() {
		for _, t := range offers[w.ID] {
			log.MustAppend(eventlog.Event{Type: eventlog.TaskOffered, Worker: w.ID, Task: t})
		}
	}
	return CheckAxiom1(st, log, cfg)
}
