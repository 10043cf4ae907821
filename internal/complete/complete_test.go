package complete

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/model"
)

func task(id string, quota, published int) *model.Task {
	return &model.Task{
		ID: model.TaskID(id), Requester: "r1",
		Skills: model.NewSkillVector(1), Reward: 1,
		Quota: quota, Published: published,
	}
}

func TestLifecycleHappyPath(t *testing.T) {
	log := eventlog.New()
	e := NewEngine(CancelNever, log)
	if err := e.Post(task("t1", 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Offer("t1", "w1"); err != nil {
		t.Fatal(err)
	}
	if err := e.Start("t1", "w1"); err != nil {
		t.Fatal(err)
	}
	e.Advance(3)
	if err := e.Submit("t1", "w1", "c1", true); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.Submissions != 1 || m.Interrupted != 0 || m.TotalEffort != 3 {
		t.Fatalf("metrics = %+v", m)
	}
	types := []eventlog.Type{}
	for _, ev := range log.Events() {
		types = append(types, ev.Type)
	}
	want := []eventlog.Type{
		eventlog.TaskPosted, eventlog.TaskOffered, eventlog.TaskStarted,
		eventlog.TaskSubmitted, eventlog.TaskCancelled,
	}
	if fmt.Sprint(types) != fmt.Sprint(want) {
		t.Fatalf("event sequence = %v, want %v", types, want)
	}
}

func TestInvalidTransitions(t *testing.T) {
	e := NewEngine(CancelNever, eventlog.New())
	if err := e.Offer("ghost", "w1"); !errors.Is(err, ErrUnknownTask) {
		t.Errorf("offer unknown task: %v", err)
	}
	if err := e.Post(task("t1", 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := e.Start("t1", "w1"); !errors.Is(err, ErrUnknownAssignment) {
		t.Errorf("start without offer: %v", err)
	}
	if err := e.Offer("t1", "w1"); err != nil {
		t.Fatal(err)
	}
	if err := e.Offer("t1", "w1"); !errors.Is(err, ErrBadTransition) {
		t.Errorf("double offer: %v", err)
	}
	if err := e.Submit("t1", "w1", "c1", true); !errors.Is(err, ErrBadTransition) {
		t.Errorf("submit before start: %v", err)
	}
	if err := e.Start("t1", "w1"); err != nil {
		t.Fatal(err)
	}
	if err := e.Start("t1", "w1"); !errors.Is(err, ErrBadTransition) {
		t.Errorf("double start: %v", err)
	}
	if err := e.Post(task("t1", 1, 1)); err == nil {
		t.Error("double post accepted")
	}
}

func TestCancelOnQuotaInterruptsStartedWork(t *testing.T) {
	log := eventlog.New()
	e := NewEngine(CancelOnQuota, log)
	if err := e.Post(task("t1", 1, 3)); err != nil {
		t.Fatal(err)
	}
	for _, w := range []model.WorkerID{"w1", "w2", "w3"} {
		if err := e.Offer("t1", w); err != nil {
			t.Fatal(err)
		}
		if err := e.Start("t1", w); err != nil {
			t.Fatal(err)
		}
	}
	e.Advance(2)
	if err := e.Submit("t1", "w1", "c1", true); err != nil {
		t.Fatal(err)
	}
	// Quota 1 reached: w2 and w3 must be interrupted.
	m := e.Metrics()
	if m.Interrupted != 2 {
		t.Fatalf("interrupted = %d, want 2", m.Interrupted)
	}
	if m.WastedEffort != 4 {
		t.Fatalf("wasted effort = %d, want 4", m.WastedEffort)
	}
	if !e.TaskClosed("t1") {
		t.Fatal("task not closed at quota")
	}
	if len(byType(log, eventlog.TaskInterrupted)) != 2 {
		t.Fatal("interruption events missing")
	}
	// Interrupted workers cannot submit.
	if err := e.Submit("t1", "w2", "c2", true); !errors.Is(err, ErrUnknownAssignment) {
		t.Errorf("interrupted submit error = %v", err)
	}
}

func TestCancelGraceLetsStartedWorkFinish(t *testing.T) {
	log := eventlog.New()
	e := NewEngine(CancelGrace, log)
	if err := e.Post(task("t1", 1, 3)); err != nil {
		t.Fatal(err)
	}
	// w1, w2 started; w3 offered but not started.
	for _, w := range []model.WorkerID{"w1", "w2", "w3"} {
		if err := e.Offer("t1", w); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Start("t1", "w1"); err != nil {
		t.Fatal(err)
	}
	if err := e.Start("t1", "w2"); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit("t1", "w1", "c1", true); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.Interrupted != 0 {
		t.Fatalf("grace interrupted %d workers", m.Interrupted)
	}
	if m.Withdrawn != 1 {
		t.Fatalf("withdrawn = %d, want 1 (the unstarted offer)", m.Withdrawn)
	}
	// w2 was in-flight and may still submit.
	if !e.CanSubmitLate("t1", "w2") {
		t.Fatal("grace policy blocked in-flight work")
	}
	if err := e.Submit("t1", "w2", "c2", true); err != nil {
		t.Fatalf("late submit: %v", err)
	}
	// w3's withdrawn offer cannot be started.
	if err := e.Start("t1", "w3"); !errors.Is(err, ErrUnknownAssignment) {
		t.Errorf("withdrawn start error = %v", err)
	}
}

func TestCancelNeverNeverInterrupts(t *testing.T) {
	e := NewEngine(CancelNever, eventlog.New())
	if err := e.Post(task("t1", 1, 2)); err != nil {
		t.Fatal(err)
	}
	for _, w := range []model.WorkerID{"w1", "w2"} {
		if err := e.Offer("t1", w); err != nil {
			t.Fatal(err)
		}
		if err := e.Start("t1", w); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Submit("t1", "w1", "c1", true); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit("t1", "w2", "c2", true); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.Interrupted != 0 || m.Submissions != 2 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestOfferAfterCloseRejected(t *testing.T) {
	e := NewEngine(CancelOnQuota, eventlog.New())
	if err := e.Post(task("t1", 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := e.Offer("t1", "w1"); err != nil {
		t.Fatal(err)
	}
	if err := e.Start("t1", "w1"); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit("t1", "w1", "c1", true); err != nil {
		t.Fatal(err)
	}
	if err := e.Offer("t1", "w9"); !errors.Is(err, ErrTaskClosed) {
		t.Errorf("offer after close: %v", err)
	}
}

func TestRejectedSubmissionsDoNotCount(t *testing.T) {
	e := NewEngine(CancelOnQuota, eventlog.New())
	if err := e.Post(task("t1", 2, 4)); err != nil {
		t.Fatal(err)
	}
	for _, w := range []model.WorkerID{"w1", "w2", "w3"} {
		if err := e.Offer("t1", w); err != nil {
			t.Fatal(err)
		}
		if err := e.Start("t1", w); err != nil {
			t.Fatal(err)
		}
	}
	// Two rejected submissions must not close the task.
	if err := e.Submit("t1", "w1", "c1", false); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit("t1", "w2", "c2", false); err != nil {
		t.Fatal(err)
	}
	if e.TaskClosed("t1") {
		t.Fatal("task closed by rejected submissions")
	}
}

func TestAdvancePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewEngine(CancelNever, eventlog.New()).Advance(-1)
}

func TestMetricsInterruptionRate(t *testing.T) {
	m := Metrics{Interrupted: 1, Submissions: 3}
	if got := m.InterruptionRate(); got != 0.25 {
		t.Fatalf("rate = %v, want 0.25", got)
	}
	if (Metrics{}).InterruptionRate() != 0 {
		t.Fatal("empty rate should be 0")
	}
}

func TestPolicyStrings(t *testing.T) {
	if CancelNever.String() != "never" || CancelGrace.String() != "grace" || CancelOnQuota.String() != "on-quota" {
		t.Fatal("policy names wrong")
	}
	if StateOffered.String() != "offered" || StateInterrupted.String() != "interrupted" {
		t.Fatal("state names wrong")
	}
}

// byType returns the log's events of type typ, in order.
func byType(log *eventlog.Log, typ eventlog.Type) []eventlog.Event {
	var out []eventlog.Event
	for _, e := range log.Events() {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}
