package eventlog

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
)

func TestAppendAssignsSeq(t *testing.T) {
	l := New()
	e1, err := l.Append(Event{Time: 1, Type: TaskPosted, Task: "t1"})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := l.Append(Event{Time: 2, Type: TaskOffered, Task: "t1", Worker: "w1"})
	if err != nil {
		t.Fatal(err)
	}
	if e1.Seq != 1 || e2.Seq != 2 {
		t.Fatalf("seqs = %d, %d", e1.Seq, e2.Seq)
	}
	if l.Len() != 2 {
		t.Fatalf("len = %d", l.Len())
	}
}

func TestAppendRejectsTimeRegression(t *testing.T) {
	l := New()
	l.MustAppend(Event{Time: 5, Type: TaskPosted})
	_, err := l.Append(Event{Time: 4, Type: TaskPosted})
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("error = %v", err)
	}
	// Equal timestamps are allowed.
	if _, err := l.Append(Event{Time: 5, Type: TaskPosted}); err != nil {
		t.Fatalf("equal time rejected: %v", err)
	}
}

func TestMustAppendPanics(t *testing.T) {
	l := New()
	l.MustAppend(Event{Time: 5, Type: TaskPosted})
	defer func() {
		if recover() == nil {
			t.Fatal("MustAppend did not panic on regression")
		}
	}()
	l.MustAppend(Event{Time: 1, Type: TaskPosted})
}

func seededLog() *Log {
	l := New()
	l.MustAppend(Event{Time: 1, Type: TaskPosted, Task: "t1", Requester: "r1"})
	l.MustAppend(Event{Time: 2, Type: TaskOffered, Task: "t1", Worker: "w1", Requester: "r1"})
	l.MustAppend(Event{Time: 3, Type: TaskStarted, Task: "t1", Worker: "w1"})
	l.MustAppend(Event{Time: 4, Type: TaskSubmitted, Task: "t1", Worker: "w1", Contribution: "c1"})
	l.MustAppend(Event{Time: 5, Type: PaymentIssued, Task: "t1", Worker: "w1", Amount: 1.25})
	l.MustAppend(Event{Time: 6, Type: TaskOffered, Task: "t2", Worker: "w2"})
	return l
}

func TestFilters(t *testing.T) {
	l := seededLog()
	if got := l.ByType(TaskOffered); len(got) != 2 {
		t.Fatalf("ByType = %d events", len(got))
	}
	if got := l.Filter(func(e Event) bool { return e.Worker == "w1" }); len(got) != 4 {
		t.Fatalf("worker filter = %d events", len(got))
	}
	if got := l.Filter(func(e Event) bool { return e.Task == "t2" }); len(got) != 1 || got[0].Worker != "w2" {
		t.Fatalf("task filter = %v", got)
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	l := seededLog()
	es := l.Events()
	es[0].Task = "mutated"
	if l.Events()[0].Task != "t1" {
		t.Fatal("Events exposes internal storage")
	}
}

func TestWriteToReadRoundTrip(t *testing.T) {
	l := seededLog()
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l.Events(), back.Events()) {
		t.Fatalf("round trip mismatch:\n%v\n%v", l.Events(), back.Events())
	}
}

func TestReadRejectsBadSeq(t *testing.T) {
	input := `{"seq":2,"time":1,"type":"task_posted"}`
	if _, err := Read(strings.NewReader(input)); err == nil {
		t.Error("bad seq accepted")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestReadSkipsBlankLines(t *testing.T) {
	l := seededLog()
	var buf bytes.Buffer
	l.WriteTo(&buf)
	padded := strings.ReplaceAll(buf.String(), "\n", "\n\n")
	back, err := Read(strings.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != l.Len() {
		t.Fatalf("len = %d, want %d", back.Len(), l.Len())
	}
}

func TestFilterPredicate(t *testing.T) {
	l := seededLog()
	paid := l.Filter(func(e Event) bool { return e.Amount > 0 })
	if len(paid) != 1 || paid[0].Type != PaymentIssued {
		t.Fatalf("filter = %v", paid)
	}
}

func TestByWorkerEmptyResult(t *testing.T) {
	l := seededLog()
	if got := l.Filter(func(e Event) bool { return e.Worker == model.WorkerID("ghost") }); len(got) != 0 {
		t.Fatalf("ghost worker events = %v", got)
	}
}

func TestAppendBatch(t *testing.T) {
	l := New()
	l.MustAppend(Event{Time: 3, Type: WorkerJoined, Worker: "w0"})
	batch := []Event{
		{Time: 3, Type: WorkerJoined, Worker: "w1"},
		{Time: 4, Type: TaskPosted, Task: "t1", Requester: "r1"},
		{Time: 4, Type: TaskOffered, Task: "t1", Worker: "w1"},
	}
	if err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := l.Len(); got != 4 {
		t.Fatalf("len = %d, want 4", got)
	}
	for i, e := range l.Events() {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	// Sequence numbers are written back into the caller's slice.
	if batch[0].Seq != 2 || batch[2].Seq != 4 {
		t.Fatalf("batch seqs = %d,%d,%d", batch[0].Seq, batch[1].Seq, batch[2].Seq)
	}
}

func TestAppendBatchRejectsTimeRegression(t *testing.T) {
	l := New()
	l.MustAppend(Event{Time: 5, Type: WorkerJoined, Worker: "w0"})
	err := l.AppendBatch([]Event{
		{Time: 5, Type: WorkerJoined, Worker: "w1"},
		{Time: 4, Type: WorkerJoined, Worker: "w2"},
	})
	if err == nil {
		t.Fatal("regressing batch accepted")
	}
	if got := l.Len(); got != 1 {
		t.Fatalf("rejected batch left %d events, want 1", got)
	}
}

func TestAppendBatchEmpty(t *testing.T) {
	l := New()
	if err := l.AppendBatch(nil); err != nil {
		t.Fatal(err)
	}
}

func TestLastTime(t *testing.T) {
	l := New()
	if got := l.LastTime(); got != 0 {
		t.Fatalf("empty LastTime = %d", got)
	}
	l.MustAppend(Event{Time: 7, Type: WorkerJoined, Worker: "w1"})
	if got := l.LastTime(); got != 7 {
		t.Fatalf("LastTime = %d, want 7", got)
	}
}
