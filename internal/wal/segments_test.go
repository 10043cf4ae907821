package wal

import (
	"fmt"
	"io"
	"os"
	"testing"
)

// TestSegmentsListing pins the exported listing against a log spread over
// several sealed segments plus an active one.
func TestSegmentsListing(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 1; i <= n; i++ {
		if err := w.Append(uint64(i), []byte(fmt.Sprintf("record-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}

	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("want multiple segments from a 128-byte rotation, got %d", len(segs))
	}
	for i, sg := range segs {
		if i > 0 && sg.Ordinal <= segs[i-1].Ordinal {
			t.Fatalf("segments out of order: %d after %d", sg.Ordinal, segs[i-1].Ordinal)
		}
		if sg.Size <= 0 {
			t.Fatalf("segment %d: size %d", sg.Ordinal, sg.Size)
		}
		if fi, err := os.Stat(sg.Path); err != nil || fi.Size() != sg.Size {
			t.Fatalf("segment %d: path/size mismatch (%v)", sg.Ordinal, err)
		}
	}

	// Reading every segment end to end yields the full key sequence.
	var keys []uint64
	for _, sg := range segs {
		data, err := os.ReadFile(sg.Path)
		if err != nil {
			t.Fatal(err)
		}
		r := NewSegmentReader(data)
		for {
			k, payload, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("record-%03d", k); string(payload) != want {
				t.Fatalf("key %d: payload %q, want %q", k, payload, want)
			}
			keys = append(keys, k)
		}
		if !r.Clean() {
			t.Fatalf("segment %d: unclean end at offset %d", sg.Ordinal, r.Offset())
		}
	}
	if len(keys) != n {
		t.Fatalf("read %d records, want %d", len(keys), n)
	}
	for i, k := range keys {
		if k != uint64(i+1) {
			t.Fatalf("keys[%d] = %d, want %d", i, k, i+1)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// A missing directory lists as an empty log, like OpenDir.
	if segs, err := Segments(dir + "-nope"); err != nil || len(segs) != 0 {
		t.Fatalf("missing dir: got %d segments, err %v", len(segs), err)
	}
}

// TestSegmentReaderResume pins the torn-tail contract of a segment image:
// a partial final frame reads as io.EOF with Clean() == false, leaving
// Offset at the incomplete frame, so the bytes from Offset on hold no
// complete record.
func TestSegmentReaderResume(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 12; i++ {
		if err := w.Append(uint64(i), []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d (err %v)", len(segs), err)
	}
	data, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}

	// The whole image reads cleanly.
	r := NewSegmentReader(data)
	n := 0
	for {
		if _, _, err := r.Next(); err == io.EOF {
			break
		}
		n++
	}
	if n != 12 || !r.Clean() || r.Offset() != int64(len(data)) {
		t.Fatalf("clean image: read %d records, clean %v at %d of %d", n, r.Clean(), r.Offset(), len(data))
	}

	// Tear the tail: chop the last 3 bytes off the final frame.
	torn := data[:len(data)-3]
	r = NewSegmentReader(torn)
	n = 0
	for {
		if _, _, err := r.Next(); err == io.EOF {
			break
		}
		n++
	}
	if n != 11 {
		t.Fatalf("torn tail: read %d complete records, want 11", n)
	}
	if r.Clean() {
		t.Fatal("torn tail reported clean")
	}
	tornAt := r.Offset()

	// The offset parks at the incomplete frame: the bytes from there on
	// hold no complete record.
	r = NewSegmentReader(torn[tornAt:])
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("read past torn frame: %v", err)
	}
	if r.Clean() {
		t.Fatal("incomplete frame reported clean")
	}
}
