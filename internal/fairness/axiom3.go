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
	return foldTaskAudits(CheckAxiom3Tasks(st, cfg, st.TaskIDs()))
}

// TaskAudit is one task's Axiom 3 verdict, as produced by CheckAxiom3Tasks:
// the pair count the task contributed and its violations in checker order.
type TaskAudit struct {
	Task       model.TaskID
	Checked    int
	Violations []Violation
}

// CheckAxiom3Tasks audits each listed task independently, fanning the
// per-task checks out on the bounded pool into disjoint result slots: every
// task for the full scan, or the tasks whose contribution sets changed for
// an incremental auditor, which folds the verdicts per task (contributions
// never move between tasks, so an unchanged task cannot change status).
// Slot k is always ids[k]'s verdict, so output is byte-identical to a
// serial loop regardless of scheduling; pass ids sorted for deterministic
// concatenation order.
func CheckAxiom3Tasks(st *store.Store, cfg Config, ids []model.TaskID) []TaskAudit {
	out := make([]TaskAudit, len(ids))
	par.For(len(ids), 0, func(k int) {
		checked, vs := checkAxiom3Task(st, cfg, ids[k])
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
// contributions: every pair under every candidate kind, scored on the
// parallel kernel through one similarity.ContributionProfiles (so each text
// profile is built once per task per call), then walked in the kernel's
// serial pair order so the report is identical to the nested loop.
func checkAxiom3Task(st *store.Store, cfg Config, tid model.TaskID) (int, []Violation) {
	simThr := orDefault(cfg.ContributionThreshold, 0.8)
	payTol := orDefault(cfg.PayTolerance, 0.01)
	contribs := st.ContributionsByTask(tid)
	if len(contribs) < 2 {
		return 0, nil // no pair to score: skip building profiles
	}
	// The score buffer is pooled: delta audits run this per dirty task per
	// pass.
	buf := getSims()
	defer putSims(buf)
	sims := similarity.ScorePairsInto((*buf)[:0], len(contribs), similarity.NewContributionProfiles(contribs).Similarity)
	*buf = sims

	checked := 0
	var out []Violation
	for k, sim := range sims {
		i, j := similarity.PairAt(len(contribs), k)
		a, b := contribs[i], contribs[j]
		if a.Worker == b.Worker {
			continue // the axiom quantifies over distinct workers
		}
		checked++
		if sim < simThr || equalPay(a.Paid, b.Paid, payTol) {
			continue
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
