package transparency

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/model"
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
		t.Fatalf("compliant trace failed: %v / %v", rep.Missing, list(rep.Detail))
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
	for _, d := range list(rep.Detail) {
		if strings.Contains(d.String(), "payment_delay") {
			foundDetail = true
		}
	}
	if !foundDetail {
		t.Fatalf("detail lacks field name: %v", list(rep.Detail))
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
		t.Fatalf("compliant trace failed: %v", list(rep.Detail))
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
	gaps := list(PolicyCompliance(pol, l))
	if len(gaps) != 1 || !strings.Contains(gaps[0].String(), "hourly_wage") {
		t.Fatalf("gaps = %v", gaps)
	}
	l.MustAppend(eventlog.Event{Time: 2, Type: eventlog.Disclosure, Worker: "w1", Field: "requester.hourly_wage"})
	if gaps := list(PolicyCompliance(pol, l)); len(gaps) != 0 {
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
	if gaps := list(PolicyCompliance(pol, l)); len(gaps) != 0 {
		t.Fatalf("conditional/triggered rules audited: %v", gaps)
	}
}

func TestAxiomReportString(t *testing.T) {
	rep := CheckAxiom6(StandardCatalogue(), eventlog.New())
	if !strings.Contains(rep.String(), "Axiom 6") {
		t.Fatalf("report string = %q", rep.String())
	}
}

// TestGapsAreASnapshot holds each checker's Gaps to the trace it was taken
// from: after appends that intern new workers, heal a gap and re-own a
// task, it renders exactly what it rendered before, while a fresh audit
// sees every change.
func TestGapsAreASnapshot(t *testing.T) {
	cat := StandardCatalogue()
	pol := MustParse(`policy "p" {
		disclose worker.performance to workers always;
	}`)
	l := compliantLog()
	l.MustAppend(eventlog.Event{Time: 6, Type: eventlog.WorkerJoined, Worker: "w2"})
	l.MustAppend(eventlog.Event{Time: 6, Type: eventlog.TaskPosted, Task: "t2", Requester: "r1"})
	audit := func() []Gaps {
		return []Gaps{CheckAxiom6(cat, l).Detail, CheckAxiom7(cat, l).Detail, PolicyCompliance(pol, l)}
	}
	render := func(gs []Gaps) [][]string {
		var out [][]string
		for _, g := range gs {
			out = append(out, rendered(list(g)))
		}
		return out
	}
	snap := audit()
	want := render(snap)
	for i, g := range want {
		if len(g) == 0 {
			t.Fatalf("checker %d found no gaps to hold", i)
		}
	}

	// A reader renders the snapshot while the ledger folds the appends one
	// audit at a time (under -race this pins that nothing is shared).
	done := make(chan [][]string)
	go func() {
		var got [][]string
		for i := 0; i < 50; i++ {
			got = render(snap)
		}
		done <- got
	}()
	for i := 0; i < 100; i++ {
		l.MustAppend(eventlog.Event{Time: 7, Type: eventlog.WorkerJoined, Worker: model.WorkerID(fmt.Sprintf("n%03d", i))})
		audit()
	}
	l.MustAppend(eventlog.Event{Time: 8, Type: eventlog.Disclosure, Worker: "w2", Field: "worker.performance"})
	l.MustAppend(eventlog.Event{Time: 8, Type: eventlog.TaskPosted, Task: "t2", Requester: "r2"})
	fresh := render(audit())
	if got := <-done; !reflect.DeepEqual(got, want) {
		t.Fatalf("gaps changed under concurrent appends:\n got %q\nwant %q", got, want)
	}
	if got := render(snap); !reflect.DeepEqual(got, want) {
		t.Fatalf("gaps changed under later appends:\n got %q\nwant %q", got, want)
	}
	for i := range want {
		if reflect.DeepEqual(fresh[i], want[i]) {
			t.Fatalf("checker %d: the appends changed nothing in a fresh audit: %q", i, fresh[i])
		}
	}
	if !strings.Contains(strings.Join(fresh[0], "\n"), "task t2 (requester r2)") {
		t.Fatalf("fresh Axiom 6 gaps miss the re-owned task: %q", fresh[0])
	}
}

// TestWarmComplianceAllocatesUnderEightBytesAGap bounds what a warm
// PolicyCompliance on the audit_churn trace (~156k gaps) allocates: the
// gaps are dense indexes, four bytes each, not materialised Gap values.
func TestWarmComplianceAllocatesUnderEightBytesAGap(t *testing.T) {
	pol := MustParse(churnPolicy)
	l := eventlog.New()
	if err := l.AppendBatch(churnTrace()); err != nil {
		t.Fatal(err)
	}
	PolicyCompliance(pol, l)
	best := math.Inf(1)
	for run := 0; run < 3; run++ {
		if err := l.AppendBatch([]eventlog.Event{{Type: eventlog.Disclosure, Worker: model.WorkerID(fmt.Sprintf("w%06d", run)), Field: "worker.performance"}}); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g := PolicyCompliance(pol, l)
		runtime.ReadMemStats(&after)
		if g.Len() < 100000 {
			t.Fatalf("%d gaps; the trace no longer has audit_churn's shape", g.Len())
		}
		best = math.Min(best, float64(after.TotalAlloc-before.TotalAlloc)/float64(g.Len()))
	}
	if best >= 8 {
		t.Fatalf("warm PolicyCompliance allocates %.1f bytes a gap, want < 8", best)
	}
	t.Logf("%.2f bytes a gap", best)
}
