package eventlog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/wal"
)

func demoEvents(n int) []Event {
	var out []Event
	for i := 0; i < n; i++ {
		out = append(out, Event{
			Time: int64(i / 3), Type: TaskOffered,
			Worker: "w1", Task: "t1", Requester: "r1",
		})
		switch i % 4 {
		case 1:
			out[i] = Event{Time: int64(i / 3), Type: PaymentIssued, Worker: "w2", Task: "t2", Contribution: "c1", Amount: 1.25}
		case 2:
			out[i] = Event{Time: int64(i / 3), Type: Disclosure, Requester: "r1", Field: "requester.hourly_wage"}
		case 3:
			out[i] = Event{Time: int64(i / 3), Type: WorkerFlagged, Worker: "w3", Note: "acceptance ratio 0.40"}
		}
	}
	return out
}

func TestDurableLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDurable(dir, wal.Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	events := demoEvents(30)
	for _, e := range events {
		l.MustAppend(e)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := OpenDurable(dir, wal.Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	want := New()
	for _, e := range events {
		want.MustAppend(e)
	}
	if !reflect.DeepEqual(got.Events(), want.Events()) {
		t.Fatal("replayed events differ from originals")
	}
	// Appends after recovery continue the sequence densely.
	got.MustAppend(Event{Time: 99, Type: TaskPosted, Task: "t9", Requester: "r1"})
	if n := got.Len(); n != len(events)+1 {
		t.Fatalf("len %d", n)
	}
	if err := got.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := OpenDurable(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Len() != len(events)+1 {
		t.Fatalf("second recovery len %d", again.Len())
	}
	last := again.Events()[again.Len()-1]
	if last.Type != TaskPosted || last.Seq != uint64(len(events)+1) {
		t.Fatalf("last event %+v", last)
	}
}

func TestDurableLogTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDurable(dir, wal.Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range demoEvents(20) {
		l.MustAppend(e)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	seg := segs[len(segs)-1]
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-2); err != nil {
		t.Fatal(err)
	}
	got, err := OpenDurable(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.Len() != 19 {
		t.Fatalf("recovered %d events, want 19 (longest valid prefix)", got.Len())
	}
	for i, e := range got.Events() {
		if e.Seq != uint64(i+1) {
			t.Fatalf("seq gap at %d", i)
		}
	}
	// The torn bytes were truncated on reopen: appending works and a
	// further recovery sees a clean 20-event log.
	got.MustAppend(Event{Time: 99, Type: WorkerLeft, Worker: "wx"})
	if err := got.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := OpenDurable(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Len() != 20 {
		t.Fatalf("post-tear append recovery len %d", again.Len())
	}
}

// TestDurableLogPoisonRecord covers the CRC-valid-but-undecodable case: a
// frame whose checksum passes but whose payload fails the event codec must
// be physically truncated on recovery, so later appends never land behind
// it and get stranded on the next recovery.
func TestDurableLogPoisonRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDurable(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range demoEvents(10) {
		l.MustAppend(e)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Append a well-framed record with an undecodable payload.
	w, err := wal.Create(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.AppendAsync(11, []byte{0xff})
	if err == nil {
		err = c.Wait()
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := OpenDurable(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 10 {
		t.Fatalf("recovered %d events, want 10", got.Len())
	}
	got.MustAppend(Event{Time: 99, Type: WorkerLeft, Worker: "wx"})
	if err := got.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := OpenDurable(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Len() != 11 {
		t.Fatalf("post-poison append lost: recovered %d events, want 11", again.Len())
	}
}

func TestDurableAppendBatchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDurable(dir, wal.Options{SegmentBytes: 256, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	events := demoEvents(9)
	if err := l.AppendBatch(events[:5]); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(events[5:]); err != nil {
		t.Fatal(err)
	}
	want := l.Events()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(dir, wal.Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %d events != appended %d", len(got), len(want))
	}
}

// Append, AppendBatch (on an empty and on a non-empty log) and
// OpenDurable's replay apply one time-order rule: an event may not precede
// the one before it, and a log's first event may carry any time, negative
// included. The replay input is written as CRC-valid frames straight to the
// segments, so a record that goes back in time reaches the decoder and must
// fail the open with an error wrapping ErrOutOfOrder.
func TestAppendPathsShareOutOfOrderRule(t *testing.T) {
	for _, tc := range []struct {
		name  string
		times []int64
		bad   int // index of the first event out of order, -1 for none
	}{
		{"negative first", []int64{-5, -5, 0}, -1},
		{"ties", []int64{3, 3, 3}, -1},
		{"rising", []int64{0, 1, 7}, -1},
		{"negative first then earlier", []int64{-5, -6}, 1},
		{"back in time", []int64{1, 5, 4}, 2},
		{"back in time then forward", []int64{0, 2, 1, 3}, 2},
	} {
		events := make([]Event, len(tc.times))
		for i, at := range tc.times {
			events[i] = Event{Time: at, Type: TaskOffered, Worker: "w1", Task: "t1"}
		}
		check := func(path string, l *Log, err error) {
			t.Helper()
			if tc.bad >= 0 {
				if !errors.Is(err, ErrOutOfOrder) {
					t.Errorf("%s, %s: err = %v, want ErrOutOfOrder", tc.name, path, err)
				}
				return
			}
			if err != nil {
				t.Errorf("%s, %s: %v", tc.name, path, err)
				return
			}
			got := l.Events()
			if len(got) != len(events) {
				t.Errorf("%s, %s: %d events, want %d", tc.name, path, len(got), len(events))
				return
			}
			for i, e := range got {
				if e.Seq != uint64(i+1) || e.Time != tc.times[i] {
					t.Errorf("%s, %s: event %d = seq %d time %d, want seq %d time %d",
						tc.name, path, i, e.Seq, e.Time, i+1, tc.times[i])
				}
			}
		}

		l := New()
		var err error
		for i, e := range events {
			if _, err = l.Append(e); err != nil {
				if i != tc.bad {
					t.Errorf("%s, Append: event %d refused, want %d", tc.name, i, tc.bad)
				}
				break
			}
		}
		check("Append", l, err)

		l = New()
		err = l.AppendBatch(append([]Event(nil), events...))
		if err != nil && l.Len() != 0 {
			t.Errorf("%s, AppendBatch: %d events appended by a refused batch", tc.name, l.Len())
		}
		check("AppendBatch", l, err)

		if tc.bad != 0 {
			l = New()
			l.MustAppend(events[0])
			err = l.AppendBatch(append([]Event(nil), events[1:]...))
			if err != nil && l.Len() != 1 {
				t.Errorf("%s, Append then AppendBatch: %d events after a refused batch, want 1", tc.name, l.Len())
			}
			check("Append then AppendBatch", l, err)
		}

		dir := t.TempDir()
		w, err := wal.Create(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range events {
			c, err := w.AppendAsync(uint64(i+1), encodeEvent(nil, e))
			if err == nil {
				err = c.Wait()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		l, err = OpenDurable(dir, wal.Options{})
		check("OpenDurable", l, err)
		if err == nil {
			l.Close()
		}
	}
}

// BenchmarkOpenDurable times recovering a trace of about 87k events, the
// length of a recover_restart directory's event log: segment reads, decode,
// and building the in-memory trace.
func BenchmarkOpenDurable(b *testing.B) {
	dir := b.TempDir()
	l, err := OpenDurable(dir, wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := l.AppendBatch(demoEvents(87_000)); err != nil {
		b.Fatal(err)
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := OpenDurable(dir, wal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if l.Len() != 87_000 {
			b.Fatalf("recovered %d events", l.Len())
		}
		l.Close()
	}
}

// walPayloads are encoded events of every shape the trace holds: empty
// ids, a payment amount, a field and note, a negative time.
func walPayloads() [][]byte {
	events := append(demoEvents(4),
		Event{Time: -3, Type: PaymentIssued, Worker: "w9", Task: "t9", Contribution: "c9", Amount: 1.25},
		Event{Time: 7, Type: TaskPosted, Task: "t2", Requester: "r2", Field: "task.reward", Note: "ünïcode"},
		Event{})
	var out [][]byte
	for _, e := range events {
		out = append(out, encodeEvent(nil, e))
	}
	return out
}

// Every proper prefix of a payload and every payload with a byte appended
// is refused: a frame holds exactly one event.
func TestDecodeWALEventRejectsTruncation(t *testing.T) {
	for _, p := range walPayloads() {
		for n := 0; n < len(p); n++ {
			if e, err := DecodeWALEvent(1, p[:n]); err == nil {
				t.Fatalf("%d of %d bytes decoded to %+v", n, len(p), e)
			}
		}
		if e, err := DecodeWALEvent(1, append(p[:len(p):len(p)], 0)); err == nil {
			t.Fatalf("payload plus a trailing byte decoded to %+v", e)
		}
	}
}

// FuzzDecodeWALEvent: the decoder a replica runs on another process's files
// and OpenDurable runs on recovery never panics, and what it accepts is
// canonical: the event it decodes re-encodes to the same bytes and keeps
// the frame's sequence number.
func FuzzDecodeWALEvent(f *testing.F) {
	for _, p := range walPayloads() {
		f.Add(uint64(1), p)
		f.Add(uint64(1), p[:len(p)/2])
	}
	f.Add(uint64(0), []byte{})
	f.Fuzz(func(t *testing.T, seq uint64, payload []byte) {
		e, err := DecodeWALEvent(seq, payload)
		if err != nil {
			return
		}
		if e.Seq != seq {
			t.Fatalf("decoded seq %d, frame key %d", e.Seq, seq)
		}
		if again := encodeEvent(nil, e); !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload re-encodes differently (%d bytes in, %d out)", len(payload), len(again))
		}
	})
}
