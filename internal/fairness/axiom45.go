package fairness

import (
	"fmt"
	"sort"

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
func CheckAxiom4(st *store.Store, log *eventlog.Log) *Report {
	return foldWorkerAudits(CheckAxiom4Workers(st, FlaggedFromLog(log), st.WorkerIDs()))
}

// FlaggedFromLog collects the workers the platform ever flagged.
func FlaggedFromLog(log *eventlog.Log) map[model.WorkerID]bool {
	flagged := make(map[model.WorkerID]bool)
	for _, e := range log.ByType(eventlog.WorkerFlagged) {
		flagged[e.Worker] = true
	}
	return flagged
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
// fixed by ids regardless of scheduling; flagged is only read. Unknown ids
// yield empty audits.
func CheckAxiom4Workers(st *store.Store, flagged map[model.WorkerID]bool, ids []model.WorkerID) []WorkerAudit {
	out := make([]WorkerAudit, len(ids))
	par.For(len(ids), 0, func(k int) {
		out[k].Worker = ids[k]
		w := st.PeekWorker(ids[k])
		if w == nil {
			return
		}
		checked, v := judgeAxiom4(w, flagged)
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
func judgeAxiom4(w *model.Worker, flagged map[model.WorkerID]bool) (checked int, viol *Violation) {
	const spamLine = 0.5
	v, ok := w.Computed[model.AttrAcceptanceRatio]
	if !ok || v.Kind != model.AttrNum {
		return 0, nil
	}
	if v.Num >= spamLine || flagged[w.ID] {
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
	s := NewAxiom5Stream()
	for _, e := range log.Prefix() {
		s.Observe(e)
	}
	return s.Report()
}

// Axiom5Stream is the incremental form of CheckAxiom5: a streaming checker
// that folds trace events in one at a time and can emit a report at any
// point. Feeding it a whole log reproduces CheckAxiom5 exactly; a
// long-lived auditor feeds it only the events appended since the last pass.
type Axiom5Stream struct {
	started    map[ax5Key]int64
	checked    int
	violations []Violation
}

type ax5Key struct {
	w model.WorkerID
	t model.TaskID
}

// NewAxiom5Stream returns a stream positioned at an empty trace.
func NewAxiom5Stream() *Axiom5Stream {
	return &Axiom5Stream{started: make(map[ax5Key]int64)}
}

// Observe folds one event into the stream.
func (s *Axiom5Stream) Observe(e eventlog.Event) {
	k := ax5Key{e.Worker, e.Task}
	switch e.Type {
	case eventlog.TaskStarted:
		s.started[k] = e.Time
		s.checked++
	case eventlog.TaskSubmitted:
		delete(s.started, k)
	case eventlog.TaskInterrupted:
		if t0, ok := s.started[k]; ok {
			s.violations = append(s.violations, Violation{
				Axiom:    Axiom5NoInterruption,
				Subjects: []string{string(e.Worker)},
				Detail: fmt.Sprintf("task %s: started at t=%d, interrupted at t=%d after %d ticks of work",
					e.Task, t0, e.Time, e.Time-t0),
				Severity: 1,
			})
			delete(s.started, k)
		}
	}
}

// Axiom5Start is one in-flight (started, not yet submitted or interrupted)
// task in a serialised Axiom5Stream.
type Axiom5Start struct {
	Worker model.WorkerID
	Task   model.TaskID
	Time   int64
}

// Axiom5State is the serialisable image of an Axiom5Stream. Violations
// keep their observation order so a restored stream renders reports
// identical to one that observed the whole trace.
type Axiom5State struct {
	InFlight   []Axiom5Start
	Checked    int
	Violations []Violation
}

// Save captures the stream for a checkpoint.
func (s *Axiom5Stream) Save() *Axiom5State {
	st := &Axiom5State{
		Checked:    s.checked,
		Violations: append([]Violation(nil), s.violations...),
	}
	for k, t0 := range s.started {
		st.InFlight = append(st.InFlight, Axiom5Start{Worker: k.w, Task: k.t, Time: t0})
	}
	sort.Slice(st.InFlight, func(i, j int) bool {
		if st.InFlight[i].Worker != st.InFlight[j].Worker {
			return st.InFlight[i].Worker < st.InFlight[j].Worker
		}
		return st.InFlight[i].Task < st.InFlight[j].Task
	})
	return st
}

// RestoreAxiom5Stream rebuilds a stream from a saved state; observing the
// post-checkpoint suffix of the trace then reproduces a full replay.
func RestoreAxiom5Stream(st *Axiom5State) *Axiom5Stream {
	s := NewAxiom5Stream()
	if st == nil {
		return s
	}
	for _, f := range st.InFlight {
		s.started[ax5Key{f.Worker, f.Task}] = f.Time
	}
	s.checked = st.Checked
	s.violations = append([]Violation(nil), st.Violations...)
	return s
}

// Checked returns the number of task starts observed so far.
func (s *Axiom5Stream) Checked() int { return s.checked }

// Since returns the violations found after the first n, in observation
// order. The stream only ever appends, so this is the whole delta an
// incremental consumer that has already seen n must fold in.
func (s *Axiom5Stream) Since(n int) []Violation { return s.violations[n:] }

// Report renders the stream's current verdict. The returned report owns its
// violation slice; further Observe calls do not mutate it.
func (s *Axiom5Stream) Report() *Report {
	rep := &Report{
		Axiom:   Axiom5NoInterruption,
		Checked: s.checked,
	}
	if len(s.violations) > 0 {
		rep.Violations = append([]Violation(nil), s.violations...)
	}
	sortViolations(rep.Violations)
	return rep
}
