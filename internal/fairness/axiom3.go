package fairness

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/similarity"
	"repro/internal/store"
)

// CheckAxiom3 audits fairness in worker compensation:
//
//	"Given two distinct workers wi and wj who contributed to the same task
//	 t, if their contributions are similar, they should receive the same
//	 reward dt."
//
// For each task, contributions from distinct workers are compared pairwise
// with ContributionSimilarity (n-grams for text, nDCG for rankings, per the
// paper); pairs at/above cfg.ContributionThreshold must be paid within
// cfg.PayTolerance (relative) of each other.
func CheckAxiom3(st *store.Store, cfg Config) *Report {
	tasks := st.Tasks()
	ids := make([]model.TaskID, len(tasks))
	for i, t := range tasks {
		ids[i] = t.ID
	}
	return foldTaskAudits(CheckAxiom3Tasks(st, cfg, ids))
}

// CheckAxiom3Delta audits only the tasks in dirty — those whose
// contribution sets gained members or payments since the last audit. The
// per-task verdicts are exactly CheckAxiom3's, so replacing the stored
// results for dirty tasks reproduces the full audit: contributions never
// move between tasks, and a task with no changed contribution cannot change
// status.
func CheckAxiom3Delta(st *store.Store, cfg Config, dirty map[model.TaskID]bool) *Report {
	return foldTaskAudits(CheckAxiom3Tasks(st, cfg, sortedIDList(dirty)))
}

// TaskAudit is one task's Axiom 3 verdict, as produced by CheckAxiom3Tasks:
// the pair count the task contributed and its violations in checker order.
type TaskAudit struct {
	Task       model.TaskID
	Checked    int
	Violations []Violation
}

// CheckAxiom3Tasks audits each listed task independently, fanning the
// per-task checks out on the bounded pool into disjoint result slots —
// the batch form incremental auditors fold from, replacing one
// map-allocating delta call per dirty task. Slot k is always ids[k]'s
// verdict, so output is byte-identical to a serial loop regardless of
// scheduling; pass ids sorted for deterministic concatenation order.
func CheckAxiom3Tasks(st *store.Store, cfg Config, ids []model.TaskID) []TaskAudit {
	prov := cfg.provider(st)
	out := make([]TaskAudit, len(ids))
	par.For(len(ids), 0, func(k int) {
		checked, vs := checkAxiom3Task(st, cfg, prov, ids[k])
		out[k] = TaskAudit{Task: ids[k], Checked: checked, Violations: vs}
	})
	return out
}

// foldTaskAudits concatenates per-task verdicts into one report.
func foldTaskAudits(audits []TaskAudit) *Report {
	rep := &Report{Axiom: Axiom3Compensation}
	for i := range audits {
		rep.Checked += audits[i].Checked
		rep.Violations = append(rep.Violations, audits[i].Violations...)
	}
	sortViolations(rep.Violations)
	return rep
}

// checkAxiom3Task runs the pairwise compensation audit over one task's
// contributions. The exact backend scores every pair (pruned=false from
// the provider) on the parallel kernel; the LSH backend scores only the
// index's candidate pairs, walked in the same serial pair order. Both paths
// score through one similarity.ContributionProfiles, so each text profile is
// built once per task per call. Exhaustive mode forces the all-pairs path.
func checkAxiom3Task(st *store.Store, cfg Config, prov CandidateProvider, tid model.TaskID) (int, []Violation) {
	simThr := orDefault(cfg.ContributionThreshold, 0.8)
	payTol := orDefault(cfg.PayTolerance, 0.01)
	contribs := st.ContributionsByTask(tid)

	// emit scores one pair against the thresholds.
	checked := 0
	var out []Violation
	emit := func(k int, sim float64) {
		i, j := similarity.PairAt(len(contribs), k)
		a, b := contribs[i], contribs[j]
		if a.Worker == b.Worker {
			return // the axiom quantifies over distinct workers
		}
		checked++
		if sim < simThr {
			return
		}
		if equalPay(a.Paid, b.Paid, payTol) {
			return
		}
		gap := math.Abs(a.Paid - b.Paid)
		hi := math.Max(a.Paid, b.Paid)
		var sev float64
		if hi > 0 {
			sev = gap / hi
		} else {
			sev = 1
		}
		out = append(out, Violation{
			Axiom:    Axiom3Compensation,
			Subjects: []string{string(a.ID), string(b.ID)},
			Detail: fmt.Sprintf("task %s: contributions %.0f%% similar but paid %.4f vs %.4f",
				tid, sim*100, a.Paid, b.Paid),
			Severity: sev,
		})
	}

	var ks []int
	pruned := false
	if !cfg.Exhaustive {
		ks, pruned = prov.ContribPairs(tid, contribs)
	}
	if len(contribs) < 2 || (pruned && len(ks) == 0) {
		return 0, nil // no pair to score: skip building profiles
	}
	score := similarity.NewContributionProfiles(contribs).Similarity
	buf := getSims()
	defer putSims(buf)
	if !pruned {
		// Score every pair up front on the parallel kernel, then walk the
		// scores in the kernel's serial pair order so the report is identical
		// to the old nested loop. The score buffer is pooled: delta audits run
		// this per dirty task per pass.
		sims := similarity.ScorePairsInto((*buf)[:0], len(contribs), score)
		*buf = sims
		for k := range sims {
			emit(k, sims[k])
		}
		return checked, out
	}
	// Pruned path: score only the candidate pairs, still on the parallel
	// pool, then walk them in ascending pair order.
	sims := (*buf)[:0]
	if cap(sims) < len(ks) {
		sims = make([]float64, len(ks))
	} else {
		sims = sims[:len(ks)]
	}
	*buf = sims
	par.For(len(ks), 0, func(x int) {
		i, j := similarity.PairAt(len(contribs), ks[x])
		sims[x] = score(i, j)
	})
	for x, k := range ks {
		emit(k, sims[x])
	}
	return checked, out
}

// equalPay reports whether two payments are within the relative tolerance
// (relative to the larger; two zero payments are equal).
func equalPay(a, b, tol float64) bool {
	hi := math.Max(a, b)
	if hi == 0 {
		return true
	}
	return math.Abs(a-b)/hi <= tol
}
