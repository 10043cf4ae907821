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
// checkpoints: a cold audit rebuild replays the entire trace (the access
// index and Axiom 5 are temporal), so the whole history stays replayable.
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
// sequence number, payload as written by a durable Log): OpenDurable's
// replay, and the ingestion side of WAL shipping, used by replicas tailing
// another process's events directory.
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

// replayChunk is the number of events OpenDurable decodes into each of its
// chunks before it allocates the trace once, at its exact length.
const replayChunk = 4096

// OpenDurable opens (or creates) a durable event log rooted at dir: the
// existing segments are replayed into memory — a torn or corrupt tail
// recovers the longest valid prefix, and the attached writer truncates the
// damaged bytes so appends continue a dense log. Sequence numbers are
// reassigned on replay (they always equal the append position, so a clean
// log round-trips identically), and the events must keep Append's time
// order. Replay decodes into fixed-size chunks and then copies them into
// one slice of the trace's exact length.
func OpenDurable(dir string, opts wal.Options) (*Log, error) {
	r, err := wal.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	var (
		chunks   [][]Event
		chunk    []Event
		order    timeOrder
		n        int
		poisoned bool
	)
	for {
		_, payload, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			r.Close()
			return nil, err
		}
		e, err := DecodeWALEvent(uint64(n+1), payload)
		if err != nil {
			// CRC-valid but undecodable: treat like a torn frame — stop at
			// the longest valid prefix. The record must also be physically
			// removed below: wal.Create only truncates CRC-invalid tails,
			// and appending behind a poison record would strand every
			// later event on the next recovery.
			poisoned = true
			break
		}
		if err := order.admit(e.Time); err != nil {
			r.Close()
			return nil, fmt.Errorf("eventlog: replay: %w", err)
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
	r.Close()
	l := New()
	if n > 0 {
		chunks = append(chunks, chunk)
		l.events = make([]Event, 0, n)
		for i, c := range chunks {
			l.events = append(l.events, c...)
			chunks[i] = nil // collectable once copied
		}
	}
	if poisoned {
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
