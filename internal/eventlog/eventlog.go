// Package eventlog provides the append-only trace of platform events that
// the fairness checkers audit.
//
// Several of the paper's axioms are inherently temporal: Axiom 5 ("a worker
// who started completing a task should not be interrupted") and Axiom 1's
// access condition ("should have access to the same tasks") cannot be
// checked from a state snapshot alone — they need the history of offers,
// starts, cancellations, and payments. The log records that history as
// typed events with a monotonically increasing sequence number and logical
// timestamp, supports filtered replay, and round-trips through JSON lines
// so traces can be archived and re-audited.
package eventlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/model"
	"repro/internal/wal"
)

// Type enumerates the platform event kinds.
type Type string

// Event types. The set covers the full task lifecycle of §3.1 plus the
// disclosure events of the transparency axioms.
const (
	// TaskPosted: a requester published a task.
	TaskPosted Type = "task_posted"
	// TaskOffered: the platform made a task visible/available to a worker
	// (the "access" of Axiom 1 and the "shown to" of Axiom 2).
	TaskOffered Type = "task_offered"
	// TaskStarted: a worker began completing a task.
	TaskStarted Type = "task_started"
	// TaskSubmitted: a worker submitted a contribution.
	TaskSubmitted Type = "task_submitted"
	// TaskInterrupted: the platform/requester halted a worker's in-progress
	// work (e.g. the task was cancelled after quota was reached) — the
	// Axiom 5 violation event.
	TaskInterrupted Type = "task_interrupted"
	// TaskCancelled: a requester withdrew remaining assignments of a task.
	TaskCancelled Type = "task_cancelled"
	// ContributionAccepted / ContributionRejected: the requester's decision.
	ContributionAccepted Type = "contribution_accepted"
	ContributionRejected Type = "contribution_rejected"
	// PaymentIssued: a worker was paid Amount for a contribution.
	PaymentIssued Type = "payment_issued"
	// BonusPromised / BonusPaid: the §3.1.1 bonus-contract scenario.
	BonusPromised Type = "bonus_promised"
	BonusPaid     Type = "bonus_paid"
	// WorkerFlagged: a detector flagged the worker as malicious (Axiom 4).
	WorkerFlagged Type = "worker_flagged"
	// Disclosure: a requester or the platform disclosed an information item
	// (Axioms 6-7); Field names the disclosed item.
	Disclosure Type = "disclosure"
	// WorkerJoined / WorkerLeft: population churn, consumed by the
	// retention metrics of §4.1.
	WorkerJoined Type = "worker_joined"
	WorkerLeft   Type = "worker_left"
)

// Event is one immutable log record. Unused entity fields are empty.
type Event struct {
	// Seq is the 1-based position in the log, assigned on append.
	Seq uint64 `json:"seq"`
	// Time is the logical timestamp (simulation tick).
	Time int64 `json:"time"`
	Type Type  `json:"type"`

	Worker       model.WorkerID       `json:"worker,omitempty"`
	Task         model.TaskID         `json:"task,omitempty"`
	Requester    model.RequesterID    `json:"requester,omitempty"`
	Contribution model.ContributionID `json:"contribution,omitempty"`

	// Amount carries payment/bonus values for payment events.
	Amount float64 `json:"amount,omitempty"`
	// Field names the disclosed item for Disclosure events (e.g.
	// "hourly_wage", "rejection_criteria").
	Field string `json:"field,omitempty"`
	// Note is free-form context (detector name, cancellation reason, ...).
	Note string `json:"note,omitempty"`
}

// Log is an append-only event log, safe for concurrent use. Logs built
// with OpenDurable additionally tee every appended event into a segmented
// write-ahead log (see wal.go) so a restarted auditor can replay the full
// trace instead of losing it.
type Log struct {
	mu     sync.RWMutex
	events []Event

	// sink is the durable tee (nil for in-memory logs); scratch is its
	// encode buffer, reused under mu.
	sink    *wal.Writer
	scratch []byte

	// ledger is the one fold of the trace, advanced by ReadLedger.
	ledger Ledger
}

// ErrOutOfOrder is returned when an append's timestamp precedes the log's
// latest timestamp.
var ErrOutOfOrder = errors.New("eventlog: timestamp out of order")

// timeOrder is the one time-order rule of every append path — Append,
// AppendBatch and OpenDurable's replay: an event may not precede the one
// before it, and the first event of a log may carry any time.
type timeOrder struct {
	last    int64
	started bool
}

// orderAfter returns the rule's state after the given events.
func orderAfter(events []Event) timeOrder {
	if n := len(events); n > 0 {
		return timeOrder{last: events[n-1].Time, started: true}
	}
	return timeOrder{}
}

// admit checks an event at time t against the rule and records it.
func (o *timeOrder) admit(t int64) error {
	if o.started && t < o.last {
		return fmt.Errorf("%w: %d < %d", ErrOutOfOrder, t, o.last)
	}
	o.last, o.started = t, true
	return nil
}

// New returns an empty log.
func New() *Log { return &Log{} }

// Append adds e to the log, assigning its sequence number, and returns the
// stored event. Timestamps must be non-decreasing. On a durable log the
// event is also framed into the write-ahead segments under the same lock
// (so disk order equals sequence order), but the durability wait of a
// group-commit sync policy happens after the lock is released — appenders
// queued behind l.mu land in the batch the one covering fsync commits. A
// WAL failure leaves the event appended in memory and reports the lost
// durability as an error.
func (l *Log) Append(e Event) (Event, error) {
	l.mu.Lock()
	order := orderAfter(l.events)
	if err := order.admit(e.Time); err != nil {
		l.mu.Unlock()
		return Event{}, err
	}
	e.Seq = uint64(len(l.events) + 1)
	l.events = append(l.events, e)
	var ack wal.Commit
	var err error
	if l.sink != nil {
		l.scratch = encodeEvent(l.scratch[:0], e)
		ack, err = l.sink.AppendAsync(e.Seq, l.scratch)
	}
	l.mu.Unlock()
	if err == nil {
		err = ack.Wait()
	}
	if err != nil {
		return e, fmt.Errorf("eventlog: wal append: %w", err)
	}
	return e, nil
}

// MustAppend is Append that panics on error; for writers that control
// their own clock (the simulator).
func (l *Log) MustAppend(e Event) Event {
	out, err := l.Append(e)
	if err != nil {
		panic(err)
	}
	return out
}

// AppendBatch appends events in order under one lock acquisition and — on a
// durable log — waits on a single durability ticket covering the whole
// batch. WAL batches seal and flush strictly in append order with a sticky
// error (wal/groupcommit.go), so the last append's ack covers every earlier
// one: one fsync wait covers the entire batch, and concurrent callers share
// fsyncs through the WAL's group commit. Timestamps follow Append's rule
// across the batch; on a violation nothing is appended.
// The stored events (with sequence numbers assigned) are written back into
// events.
func (l *Log) AppendBatch(events []Event) error {
	if len(events) == 0 {
		return nil
	}
	l.mu.Lock()
	order := orderAfter(l.events)
	for i := range events {
		if err := order.admit(events[i].Time); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	var ack wal.Commit
	var err error
	for i := range events {
		events[i].Seq = uint64(len(l.events) + 1)
		l.events = append(l.events, events[i])
		if l.sink != nil && err == nil {
			l.scratch = encodeEvent(l.scratch[:0], events[i])
			ack, err = l.sink.AppendAsync(events[i].Seq, l.scratch)
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = ack.Wait()
	}
	if err != nil {
		return fmt.Errorf("eventlog: wal append: %w", err)
	}
	return nil
}

// Len returns the number of events.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.events)
}

// LastTime returns the timestamp of the most recent event (0 for an empty
// log) without copying the log — the cheap clock query serving hot paths
// need to stamp new events monotonically.
func (l *Log) LastTime() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if n := len(l.events); n > 0 {
		return l.events[n-1].Time
	}
	return 0
}

// Events returns a copy of the whole log in append order.
func (l *Log) Events() []Event {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]Event(nil), l.events...)
}

// Prefix returns the events appended so far without copying them. Events
// are immutable once appended and the log only grows, so the result stays
// valid while appends continue; callers must not modify it.
func (l *Log) Prefix() []Event {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.events[:len(l.events):len(l.events)]
}

// WriteTo serialises the log as JSON lines. It implements io.WriterTo.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var total int64
	bw := bufio.NewWriter(w)
	for _, e := range l.events {
		data, err := json.Marshal(e)
		if err != nil {
			return total, fmt.Errorf("eventlog: encode: %w", err)
		}
		n, err := bw.Write(append(data, '\n'))
		total += int64(n)
		if err != nil {
			return total, fmt.Errorf("eventlog: write: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return total, fmt.Errorf("eventlog: flush: %w", err)
	}
	return total, nil
}

// Read parses a JSON-lines trace produced by WriteTo, validating sequence
// numbers and timestamp monotonicity.
func Read(r io.Reader) (*Log, error) {
	l := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("eventlog: line %d: %w", lineNo, err)
		}
		wantSeq := uint64(len(l.events) + 1)
		if e.Seq != wantSeq {
			return nil, fmt.Errorf("eventlog: line %d: seq %d, want %d", lineNo, e.Seq, wantSeq)
		}
		if _, err := l.Append(Event{
			Time: e.Time, Type: e.Type,
			Worker: e.Worker, Task: e.Task, Requester: e.Requester, Contribution: e.Contribution,
			Amount: e.Amount, Field: e.Field, Note: e.Note,
		}); err != nil {
			return nil, fmt.Errorf("eventlog: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("eventlog: read: %w", err)
	}
	return l, nil
}
