package fairness

import (
	"fmt"

	"repro/internal/eventlog"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/store"
)

// CheckAxiom4 audits requester fairness in task completion:
//
//	"Requesters must be able to detect workers behaving maliciously during
//	 task completion."
//
// The axiom is about *capability*: a compliant platform runs a detector and
// records its flags. The checker treats a worker as detectably malicious
// when their computed acceptance ratio is below the conventional spam line
// (0.5) yet the log shows no WorkerFlagged event for them — i.e. the
// platform had the evidence and surfaced nothing to requesters. Platforms
// that never flag anyone while hosting low-acceptance workers therefore
// fail wholesale, which matches the paper's complaint that detection is
// left entirely to requesters. The quantitative quality of detectors is
// evaluated separately in experiment E4 (package detect).
func CheckAxiom4(st *store.Store, log *eventlog.Log) (rep *Report) {
	log.ReadLedger(func(d *eventlog.Ledger) { rep = foldWorkerAudits(CheckAxiom4Workers(st, d, st.WorkerIDs())) })
	return rep
}

// WorkerAudit is one worker's Axiom 4 verdict, as produced by
// CheckAxiom4Workers: whether the worker was judged at all (Checked) and the
// violation, if any.
type WorkerAudit struct {
	Worker     model.WorkerID
	Checked    int
	Violations []Violation
}

// CheckAxiom4Workers judges each listed worker independently, fanning the
// store fetches and judgements out on the bounded pool into disjoint result
// slots: every worker for the full scan, or the workers whose computed
// attributes or flags changed for an incremental auditor, which folds the
// verdicts per worker. Slot k is always ids[k]'s verdict, so output order is
// fixed by ids regardless of scheduling; the ledger's flags are only read.
// Unknown ids yield empty audits.
func CheckAxiom4Workers(st *store.Store, d *eventlog.Ledger, ids []model.WorkerID) []WorkerAudit {
	out := make([]WorkerAudit, len(ids))
	par.For(len(ids), 0, func(k int) {
		out[k].Worker = ids[k]
		w := st.PeekWorker(ids[k])
		if w == nil {
			return
		}
		checked, v := judgeAxiom4(w, d.Flagged(w.ID))
		out[k].Checked = checked
		if v != nil {
			out[k].Violations = append(out[k].Violations, *v)
		}
	})
	return out
}

// judgeAxiom4 applies the spam-line judgement to one worker. checked is 0
// when the worker has no acceptance history (the sim stores a ratio on zero
// submissions as absent, and a ratio on no history is meaningless).
func judgeAxiom4(w *model.Worker, flagged bool) (checked int, viol *Violation) {
	const spamLine = 0.5
	v, ok := w.Computed[model.AttrAcceptanceRatio]
	if !ok || v.Kind != model.AttrNum {
		return 0, nil
	}
	if v.Num >= spamLine || flagged {
		return 1, nil
	}
	return 1, &Violation{
		Axiom:    Axiom4MaliciousDetection,
		Subjects: []string{string(w.ID)},
		Detail: fmt.Sprintf("acceptance ratio %.2f below %.2f but the platform never flagged the worker",
			v.Num, spamLine),
		Severity: spamLine - v.Num,
	}
}

// foldWorkerAudits concatenates per-worker verdicts into one report.
func foldWorkerAudits(audits []WorkerAudit) *Report {
	rep := &Report{Axiom: Axiom4MaliciousDetection}
	for i := range audits {
		rep.Checked += audits[i].Checked
		rep.Violations = append(rep.Violations, audits[i].Violations...)
	}
	sortViolations(rep.Violations)
	return rep
}

// CheckAxiom5 audits worker fairness in task completion:
//
//	"A worker who started completing a task should not be interrupted."
//
// Every TaskStarted event must be matched by a later TaskSubmitted for the
// same (worker, task); a TaskInterrupted event in between is a violation.
// A start with neither outcome (the trace ended mid-flight) is not counted
// as a violation but does count as checked work.
func CheckAxiom5(log *eventlog.Log) *Report {
	rep := &Report{Axiom: Axiom5NoInterruption}
	log.ReadLedger(func(d *eventlog.Ledger) {
		rep.Checked = d.Starts()
		rep.Violations = Axiom5Violations(d, d.Interruptions())
	})
	sortViolations(rep.Violations)
	return rep
}

// Axiom5Violations renders interrupted starts of d as violations, in the
// given order.
func Axiom5Violations(d *eventlog.Ledger, recs []eventlog.Interruption) []Violation {
	var out []Violation
	workers, tasks := d.IDs(eventlog.KindWorker), d.IDs(eventlog.KindTask)
	for _, r := range recs {
		out = append(out, Violation{
			Axiom:    Axiom5NoInterruption,
			Subjects: []string{workers[r.Worker]},
			Detail: fmt.Sprintf("task %s: started at t=%d, interrupted at t=%d after %d ticks of work",
				tasks[r.Task], r.Start, r.End, r.End-r.Start),
			Severity: 1,
		})
	}
	return out
}
