package eventlog

import (
	"fmt"
	"io"

	"repro/internal/model"
	"repro/internal/wal"
)

// Durable event logs. OpenDurable replays the segmented write-ahead log in
// dir (recovering the longest valid prefix after a torn tail), attaches a
// writer, and returns a Log whose Append tees every event to disk. Unlike
// the store's changelog WAL, event segments are never truncated by
// checkpoints: the ledger (ledger.go) folds the entire trace (access,
// flags and Axiom 5 are temporal), so the whole history stays replayable.
// The same replay feeds a replica's trace: CatchUp re-reads another
// process's event log and appends the events past the trace's length, so
// a pass reads the whole retained log and decodes only what is new.
//
// The binary codec is the compact counterpart of the JSON-lines form
// (WriteTo/Read): the sequence number travels as the WAL frame key and the
// remaining fields as length-prefixed strings and fixed-width scalars.

// encodeEvent appends the WAL payload for e (Seq is carried by the frame
// key, not the payload).
func encodeEvent(b []byte, e Event) []byte {
	b = wal.AppendVarint(b, e.Time)
	b = wal.AppendString(b, string(e.Type))
	b = wal.AppendString(b, string(e.Worker))
	b = wal.AppendString(b, string(e.Task))
	b = wal.AppendString(b, string(e.Requester))
	b = wal.AppendString(b, string(e.Contribution))
	b = wal.AppendFloat64(b, e.Amount)
	b = wal.AppendString(b, e.Field)
	b = wal.AppendString(b, e.Note)
	return b
}

// DecodeWALEvent rebuilds an event from one event-log WAL frame (key =
// sequence number, payload as written by a durable Log): the decoder of
// the one event replay, which OpenDurable and CatchUp share.
func DecodeWALEvent(seq uint64, payload []byte) (Event, error) {
	d := wal.NewDec(payload)
	e := Event{
		Seq:          seq,
		Time:         d.Varint(),
		Type:         Type(d.String()),
		Worker:       model.WorkerID(d.String()),
		Task:         model.TaskID(d.String()),
		Requester:    model.RequesterID(d.String()),
		Contribution: model.ContributionID(d.String()),
		Amount:       d.Float64(),
		Field:        d.String(),
		Note:         d.String(),
	}
	if !d.Done() {
		if err := d.Err(); err != nil {
			return Event{}, fmt.Errorf("eventlog: wal record %d: %w", seq, err)
		}
		return Event{}, fmt.Errorf("eventlog: wal record %d: trailing bytes", seq)
	}
	return e, nil
}

// replayChunk is the number of events replay decodes into each of its
// chunks before it allocates the result once, at its exact length.
const replayChunk = 4096

// replay is the one event replay: it reads the segmented log in dir and
// decodes every event after the first from (which it skips undecoded),
// numbering each by its position and checking it against order, the time
// rule's state after those from events. It stops at the longest valid
// prefix: a torn frame ends the stream, and so does a CRC-valid but
// undecodable record, which it reports as poisoned. The events are decoded
// into fixed-size chunks and then copied into one slice of their exact
// length (nil when there are none).
func replay(dir string, from int, order timeOrder) (events []Event, poisoned bool, err error) {
	r, err := wal.OpenDir(dir)
	if err != nil {
		return nil, false, err
	}
	defer r.Close()
	var (
		chunks [][]Event
		chunk  []Event
		n      int
	)
	for pos := 0; ; pos++ {
		_, payload, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, false, err
		}
		if pos < from {
			continue
		}
		e, err := DecodeWALEvent(uint64(pos+1), payload)
		if err != nil {
			poisoned = true
			break
		}
		if err := order.admit(e.Time); err != nil {
			return nil, false, fmt.Errorf("eventlog: replay: %w", err)
		}
		if len(chunk) == cap(chunk) {
			if chunk != nil {
				chunks = append(chunks, chunk)
			}
			chunk = make([]Event, 0, replayChunk)
		}
		chunk = append(chunk, e)
		n++
	}
	if n > 0 {
		chunks = append(chunks, chunk)
		events = make([]Event, 0, n)
		for i, c := range chunks {
			events = append(events, c...)
			chunks[i] = nil // collectable once copied
		}
	}
	return events, poisoned, nil
}

// OpenDurable opens (or creates) a durable event log rooted at dir: the
// existing segments are replayed into memory from position 0 — a torn or
// corrupt tail recovers the longest valid prefix, and the attached writer
// truncates the damaged bytes so appends continue a dense log. Sequence
// numbers are reassigned on replay (they always equal the append position,
// so a clean log round-trips identically), and the events must keep
// Append's time order. The trace is allocated once, at its exact length.
func OpenDurable(dir string, opts wal.Options) (*Log, error) {
	events, poisoned, err := replay(dir, 0, timeOrder{})
	if err != nil {
		return nil, err
	}
	l := New()
	l.events = events
	if poisoned {
		// The record must be physically removed: wal.Create only
		// truncates CRC-invalid tails, and appending behind a poison
		// record would strand every later event on the next recovery.
		// Keys are the dense sequence numbers 1..Len, so cutting after the
		// last replayed one removes the undecodable record and everything
		// behind it.
		if err := wal.TruncateAfter(dir, uint64(l.Len())); err != nil {
			return nil, err
		}
	}
	// wal.Create truncates whatever CRC-torn tail the replay stopped at
	// before any new appends land. Reassigned sequence numbers match the
	// write keys: the recovered prefix is dense from 1.
	w, err := wal.Create(dir, opts)
	if err != nil {
		return nil, err
	}
	l.sink = w
	return l, nil
}

// CatchUp is a replica's shipping pass over another process's event-log
// directory: it runs OpenDurable's replay from the log's length and appends
// the events found past it. A torn tail waits for a later pass; an
// undecodable record fails the pass, since the primary's next recovery
// cuts it. The log must be a volatile one that only CatchUp appends to.
// Returns the number of events appended.
func (l *Log) CatchUp(dir string) (int, error) {
	l.mu.RLock()
	from, order := len(l.events), orderAfter(l.events)
	l.mu.RUnlock()
	events, poisoned, err := replay(dir, from, order)
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	l.events = append(l.events, events...)
	l.mu.Unlock()
	if poisoned {
		return len(events), fmt.Errorf("eventlog: catch up: record %d is undecodable", from+len(events)+1)
	}
	return len(events), nil
}

// Sync flushes the durable tee to stable storage (no-op when volatile).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sink == nil {
		return nil
	}
	return l.sink.Sync()
}

// Close closes the durable tee. The log stays readable and appendable in
// memory, but new events are no longer persisted.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sink == nil {
		return nil
	}
	err := l.sink.Close()
	l.sink = nil
	return err
}
