package fairness

import (
	"fmt"
	"math"

	"repro/internal/eventlog"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/store"
)

// CheckAxiom2 audits requester fairness in task assignment:
//
//	"Given two tasks ti and tj posted by different requesters, if the
//	 required skills Sti and Stj are similar, and the two tasks offer
//	 comparable rewards, then ti and tj should be shown to the same set
//	 of workers."
//
// Audiences are reconstructed from TaskOffered events. Skill similarity
// uses cfg.SkillMeasure (the paper suggests cosine); rewards are comparable
// when their relative difference is within cfg.RewardTolerance. A pair of
// comparable tasks whose audiences overlap (Jaccard) below
// cfg.AccessThreshold is a violation.
func CheckAxiom2(st *store.Store, log *eventlog.Log, cfg Config) *Report {
	return checkAxiom2(st, AccessIndexFromLog(log), cfg, nil, true)
}

// CheckAxiom2Delta audits only cross-requester candidate pairs with at
// least one endpoint in dirty — the tasks whose audiences changed or that
// were newly posted since the last audit. Same predicates as CheckAxiom2;
// Report.Checked counts only the pairs this delta pass examined.
func CheckAxiom2Delta(st *store.Store, log *eventlog.Log, cfg Config, dirty map[model.TaskID]bool) *Report {
	return checkAxiom2(st, AccessIndexFromLog(log), cfg, sortedIDList(dirty), false)
}

// CheckAxiom2DeltaIndexed is CheckAxiom2Delta over a caller-maintained
// AccessIndex. dirty must be sorted ascending and deduplicated (see
// CheckAxiom1DeltaIndexed).
func CheckAxiom2DeltaIndexed(st *store.Store, ix *AccessIndex, cfg Config, dirty []model.TaskID) *Report {
	return checkAxiom2(st, ix, cfg, dirty, false)
}

// CheckAxiom2Indexed is the full scan over a caller-maintained AccessIndex
// — the incremental engine's cold-start path.
func CheckAxiom2Indexed(st *store.Store, ix *AccessIndex, cfg Config) *Report {
	return checkAxiom2(st, ix, cfg, nil, true)
}

// checkAxiom2 is the shared core, sharded exactly like checkAxiom1: every
// path writes into disjoint per-index pairSlots merged in order, so
// parallel runs stay byte-identical to serial ones. dirty must be sorted
// ascending and deduplicated.
func checkAxiom2(st *store.Store, ix *AccessIndex, cfg Config, dirty []model.TaskID, full bool) *Report {
	rep := &Report{Axiom: Axiom2RequesterAssignment}
	skillThr := orDefault(cfg.SkillThreshold, 0.9)
	rewardTol := orDefault(cfg.RewardTolerance, 0.1)
	accessThr := orDefault(cfg.AccessThreshold, 1.0)
	measure := cfg.skillMeasure()

	// check examines one pair into the calling shard's slot; callers pass
	// a.ID < b.ID and distinct requesters.
	check := func(sl *pairSlot, a, b *model.Task) {
		sl.checked++
		if cfg.RecordCheckedPairs {
			sl.pairs = append(sl.pairs, [2]string{string(a.ID), string(b.ID)})
		}
		if measure.Func(a.Skills, b.Skills) < skillThr {
			return
		}
		if !comparableRewards(a.Reward, b.Reward, rewardTol) {
			return
		}
		overlap := ix.audienceSet(a.ID).jaccard(ix.audienceSet(b.ID))
		if overlap >= accessThr {
			return
		}
		sl.viols = append(sl.viols, Violation{
			Axiom:    Axiom2RequesterAssignment,
			Subjects: []string{string(a.ID), string(b.ID)},
			Detail: fmt.Sprintf("comparable tasks (rewards %.2f vs %.2f) reached different audiences: overlap %.2f < %.2f",
				a.Reward, b.Reward, overlap, accessThr),
			Severity: accessThr - overlap,
		})
	}

	switch {
	case full || cfg.Exhaustive:
		// Full and exhaustive passes touch (nearly) every task, so one bulk
		// snapshot is the cheap shape. Shard by outer task.
		tasks := st.Tasks()
		slots := make([]pairSlot, len(tasks))
		switch {
		case cfg.Exhaustive && full:
			par.For(len(tasks), 0, func(i int) {
				sl := &slots[i]
				for j := i + 1; j < len(tasks); j++ {
					if tasks[i].Requester == tasks[j].Requester {
						continue
					}
					check(sl, tasks[i], tasks[j])
				}
			})
		case cfg.Exhaustive:
			par.For(len(tasks), 0, func(i int) {
				sl := &slots[i]
				iDirty := containsSorted(dirty, tasks[i].ID)
				for j := i + 1; j < len(tasks); j++ {
					if tasks[i].Requester == tasks[j].Requester {
						continue
					}
					if iDirty || containsSorted(dirty, tasks[j].ID) {
						check(sl, tasks[i], tasks[j])
					}
				}
			})
		default:
			byID := make(map[model.TaskID]*model.Task, len(tasks))
			for _, t := range tasks {
				byID[t.ID] = t
			}
			prov := cfg.provider(st)
			// The index knows nothing of requesters — same-requester pairs
			// are filtered here, as the axiom quantifies over distinct
			// requesters. Owning each pair at its smaller endpoint
			// enumerates the index pair set exactly once, sharded.
			par.For(len(tasks), 0, func(i int) {
				sl := &slots[i]
				a := tasks[i]
				prov.TaskPartners(a.ID, func(pid model.TaskID) {
					if pid <= a.ID {
						return // the pair's smaller endpoint owns it
					}
					b := byID[pid]
					if b == nil {
						// Posted after the task snapshot was taken (audit
						// racing mutation); the insert is still pending for
						// the next pass.
						return
					}
					if a.Requester == b.Requester {
						return
					}
					check(sl, a, b)
				})
			})
		}
		mergeSlots(rep, slots)
	default:
		// Delta passes touch only dirty tasks and their candidate partners;
		// look the named tasks up in place rather than snapshotting all n.
		// Same three phases as checkAxiom1.
		prov := cfg.provider(st)
		ds := taskDeltaPool.Get().(*deltaScratch[model.TaskID, model.Task])
		defer taskDeltaPool.Put(ds)
		ds.reset(len(dirty))
		par.For(len(dirty), 0, func(k int) {
			prov.TaskPartners(dirty[k], func(pid model.TaskID) {
				ds.partners[k] = append(ds.partners[k], pid)
			})
		})
		table := ds.fetch(dirty, st.PeekTask)
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
				if p.Requester == d.Requester {
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

// comparableRewards reports whether two rewards differ relatively by at
// most tol (relative to the larger reward; two zero rewards are
// comparable).
func comparableRewards(a, b, tol float64) bool {
	hi := math.Max(math.Abs(a), math.Abs(b))
	if hi == 0 {
		return true
	}
	return math.Abs(a-b)/hi <= tol
}
