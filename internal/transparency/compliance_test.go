package transparency

import (
	"strings"
	"testing"

	"repro/internal/eventlog"
)

// compliantLog builds a trace where requester r1 and task t1 disclose all
// Axiom-6 fields and worker w1 receives all Axiom-7 fields.
func compliantLog() *eventlog.Log {
	l := eventlog.New()
	l.MustAppend(eventlog.Event{Time: 1, Type: eventlog.WorkerJoined, Worker: "w1"})
	l.MustAppend(eventlog.Event{Time: 2, Type: eventlog.TaskPosted, Task: "t1", Requester: "r1"})
	for _, f := range []string{"requester.hourly_wage", "requester.payment_delay"} {
		l.MustAppend(eventlog.Event{Time: 3, Type: eventlog.Disclosure, Requester: "r1", Field: f})
	}
	for _, f := range []string{"task.recruitment_criteria", "task.rejection_criteria"} {
		l.MustAppend(eventlog.Event{Time: 4, Type: eventlog.Disclosure, Task: "t1", Requester: "r1", Field: f})
	}
	for _, f := range []string{"worker.performance", "worker.acceptance_ratio"} {
		l.MustAppend(eventlog.Event{Time: 5, Type: eventlog.Disclosure, Worker: "w1", Field: f})
	}
	return l
}

func TestAxiom6Satisfied(t *testing.T) {
	rep := CheckAxiom6(StandardCatalogue(), compliantLog())
	if !rep.Satisfied() {
		t.Fatalf("compliant trace failed: %v / %v", rep.Missing, rep.Detail)
	}
	if len(rep.Required) != 4 {
		t.Fatalf("required = %v", rep.Required)
	}
}

func TestAxiom6DetectsMissingRequesterField(t *testing.T) {
	l := eventlog.New()
	l.MustAppend(eventlog.Event{Time: 1, Type: eventlog.TaskPosted, Task: "t1", Requester: "r1"})
	l.MustAppend(eventlog.Event{Time: 2, Type: eventlog.Disclosure, Requester: "r1", Field: "requester.hourly_wage"})
	rep := CheckAxiom6(StandardCatalogue(), l)
	if rep.Satisfied() {
		t.Fatal("missing disclosures passed")
	}
	// payment_delay plus both task fields missing.
	if len(rep.Missing) != 3 {
		t.Fatalf("missing = %v", rep.Missing)
	}
	foundDetail := false
	for _, d := range rep.Detail {
		if strings.Contains(d.String(), "payment_delay") {
			foundDetail = true
		}
	}
	if !foundDetail {
		t.Fatalf("detail lacks field name: %v", rep.Detail)
	}
}

func TestAxiom6PerTaskGranularity(t *testing.T) {
	l := compliantLog()
	// A second task with no disclosures must re-trip the axiom.
	l.MustAppend(eventlog.Event{Time: 6, Type: eventlog.TaskPosted, Task: "t2", Requester: "r1"})
	rep := CheckAxiom6(StandardCatalogue(), l)
	if rep.Satisfied() {
		t.Fatal("undisclosed second task passed")
	}
}

func TestAxiom7Satisfied(t *testing.T) {
	rep := CheckAxiom7(StandardCatalogue(), compliantLog())
	if !rep.Satisfied() {
		t.Fatalf("compliant trace failed: %v", rep.Detail)
	}
}

func TestAxiom7DetectsUndisclosedWorker(t *testing.T) {
	l := compliantLog()
	l.MustAppend(eventlog.Event{Time: 7, Type: eventlog.WorkerJoined, Worker: "w2"})
	rep := CheckAxiom7(StandardCatalogue(), l)
	if rep.Satisfied() {
		t.Fatal("undisclosed worker passed")
	}
	if len(rep.Missing) != 2 {
		t.Fatalf("missing = %v", rep.Missing)
	}
}

func TestAxiom7CountsActiveWorkers(t *testing.T) {
	// A worker that only appears via TaskStarted still counts.
	l := eventlog.New()
	l.MustAppend(eventlog.Event{Time: 1, Type: eventlog.TaskStarted, Worker: "ghost", Task: "t1"})
	rep := CheckAxiom7(StandardCatalogue(), l)
	if rep.Satisfied() {
		t.Fatal("active-but-unjoined worker ignored")
	}
}

func TestEmptyTraceVacuouslyCompliant(t *testing.T) {
	l := eventlog.New()
	if rep := CheckAxiom6(StandardCatalogue(), l); !rep.Satisfied() {
		t.Fatal("empty trace fails Axiom 6")
	}
	if rep := CheckAxiom7(StandardCatalogue(), l); !rep.Satisfied() {
		t.Fatal("empty trace fails Axiom 7")
	}
}

func TestPolicyCompliance(t *testing.T) {
	pol := MustParse(`policy "x" {
		disclose requester.hourly_wage to workers always;
	}`)
	l := eventlog.New()
	l.MustAppend(eventlog.Event{Time: 1, Type: eventlog.WorkerJoined, Worker: "w1"})
	gaps := PolicyCompliance(pol, l)
	if len(gaps) != 1 || !strings.Contains(gaps[0].String(), "hourly_wage") {
		t.Fatalf("gaps = %v", gaps)
	}
	l.MustAppend(eventlog.Event{Time: 2, Type: eventlog.Disclosure, Worker: "w1", Field: "requester.hourly_wage"})
	if gaps := PolicyCompliance(pol, l); len(gaps) != 0 {
		t.Fatalf("satisfied policy has gaps: %v", gaps)
	}
}

func TestPolicyComplianceSkipsConditionalRules(t *testing.T) {
	pol := MustParse(`policy "x" {
		disclose worker.performance to workers when worker.completed >= 5;
		disclose task.reward to workers on task_view;
	}`)
	l := eventlog.New()
	l.MustAppend(eventlog.Event{Time: 1, Type: eventlog.WorkerJoined, Worker: "w1"})
	if gaps := PolicyCompliance(pol, l); len(gaps) != 0 {
		t.Fatalf("conditional/triggered rules audited: %v", gaps)
	}
}

func TestAxiomReportString(t *testing.T) {
	rep := CheckAxiom6(StandardCatalogue(), eventlog.New())
	if !strings.Contains(rep.String(), "Axiom 6") {
		t.Fatalf("report string = %q", rep.String())
	}
}
