package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Append is AppendAsync followed by Commit.Wait: it waits as the policy
// says, until the batch is written (SyncNever), written and fsynced
// (SyncAlways), or not at all (SyncInterval).
func (w *Writer) Append(key uint64, payload []byte) error {
	c, err := w.AppendAsync(key, payload)
	if err != nil {
		return err
	}
	return c.Wait()
}

// readAll drains a reader, returning keys and payload copies.
func readAll(t *testing.T, dir string) (keys []uint64, payloads [][]byte, damaged bool) {
	t.Helper()
	r, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for {
		k, p, err := r.Next()
		if err == io.EOF {
			return keys, payloads, r.Damaged()
		}
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
		payloads = append(payloads, append([]byte(nil), p...))
	}
}

func TestWriterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 50; i++ {
		p := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, p)
		if err := w.Append(uint64(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, err := Segments(dir); err != nil || len(segs) < 2 {
		t.Fatalf("expected rotation with 64-byte segments, got %d segment(s) (%v)", len(segs), err)
	}
	keys, payloads, damaged := readAll(t, dir)
	if damaged {
		t.Fatal("clean log read as damaged")
	}
	if len(payloads) != len(want) {
		t.Fatalf("got %d records, want %d", len(payloads), len(want))
	}
	for i := range want {
		if string(payloads[i]) != string(want[i]) {
			t.Fatalf("record %d: got %q want %q", i, payloads[i], want[i])
		}
		if keys[i] != uint64(i+1) {
			t.Fatalf("record %d: key %d want %d", i, keys[i], i+1)
		}
	}
}

func TestReopenContinuesAppending(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append(uint64(i+1), []byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, err = Create(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	if w.maxKey != 10 {
		t.Fatalf("recovered max key %d, want 10", w.maxKey)
	}
	for i := 10; i < 20; i++ {
		if err := w.Append(uint64(i+1), []byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	keys, _, damaged := readAll(t, dir)
	if damaged || len(keys) != 20 {
		t.Fatalf("got %d records (damaged=%v), want 20 clean", len(keys), damaged)
	}
}

func TestTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{SegmentBytes: 1}) // every record seals a segment
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append(uint64(i+1), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.TruncateBefore(7); err != nil {
		t.Fatal(err)
	}
	keys, _, _ := readAll(t, dir)
	for _, k := range keys {
		if k <= 7 && len(keys) > 3 {
			t.Fatalf("key %d survived TruncateBefore(7): %v", k, keys)
		}
	}
	if len(keys) < 3 {
		t.Fatalf("truncation removed live records: %v", keys)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// lastSegment returns the path of the highest-ordinal segment in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	ords, err := listSegments(dir)
	if err != nil || len(ords) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return segPath(dir, ords[len(ords)-1])
}

// copyDir clones a segment directory for destructive experiments.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestTornTailTorture truncates the final segment at every byte offset and
// asserts the reader recovers exactly the records whose frames survived in
// full — the longest valid prefix.
func TestTornTailTorture(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var frames []int // cumulative byte length of each record's frame
	total := 0
	for i := 0; i < 20; i++ {
		p := []byte(fmt.Sprintf("payload-%02d-%s", i, "abcdefgh"[:1+i%8]))
		if err := w.Append(uint64(i+1), p); err != nil {
			t.Fatal(err)
		}
		// frame = header + uvarint key + payload; keys < 128 take 1 byte.
		total += headerBytes + 1 + len(p)
		frames = append(frames, total)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != total {
		t.Fatalf("segment is %d bytes, frame accounting says %d", len(data), total)
	}
	for cut := 0; cut <= len(data); cut++ {
		wantRecords := 0
		for _, end := range frames {
			if end <= cut {
				wantRecords++
			}
		}
		trial := copyDir(t, dir)
		if err := os.Truncate(lastSegment(t, trial), int64(cut)); err != nil {
			t.Fatal(err)
		}
		keys, _, damaged := readAll(t, trial)
		if len(keys) != wantRecords {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, len(keys), wantRecords)
		}
		// The stream reads as damaged exactly when the cut left a partial
		// frame behind (a cut on a frame boundary is indistinguishable from
		// a clean end).
		onBoundary := cut == 0 || (wantRecords > 0 && cut == frames[wantRecords-1])
		if damaged == onBoundary {
			t.Fatalf("cut at %d: damaged=%v, boundary=%v", cut, damaged, onBoundary)
		}
		// A writer reopening the torn log must also settle on the same prefix
		// and keep appending cleanly.
		w2, err := Create(trial, Options{SegmentBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if err := w2.Append(999, []byte("after")); err != nil {
			t.Fatal(err)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		keys2, _, damaged2 := readAll(t, trial)
		if damaged2 || len(keys2) != wantRecords+1 || keys2[len(keys2)-1] != 999 {
			t.Fatalf("cut at %d: reopen+append gave %d records (damaged=%v), want %d", cut, len(keys2), damaged2, wantRecords+1)
		}
	}
}

// TestCorruptByteTorture flips one byte at every offset of the final
// segment and asserts the reader never returns a record past the damage.
func TestCorruptByteTorture(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var frames []int
	total := 0
	for i := 0; i < 12; i++ {
		p := []byte(fmt.Sprintf("rec-%02d", i))
		if err := w.Append(uint64(i+1), p); err != nil {
			t.Fatal(err)
		}
		total += headerBytes + 1 + len(p)
		frames = append(frames, total)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < total; off++ {
		// Records fully before the flipped byte must survive intact.
		intact := 0
		for _, end := range frames {
			if end <= off {
				intact++
			}
		}
		trial := copyDir(t, dir)
		seg := lastSegment(t, trial)
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		data[off] ^= 0xff
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		keys, _, _ := readAll(t, trial)
		if len(keys) < intact {
			t.Fatalf("flip at %d: recovered %d records, want at least the %d intact ones", off, len(keys), intact)
		}
		for i := 0; i < intact; i++ {
			if keys[i] != uint64(i+1) {
				t.Fatalf("flip at %d: record %d has key %d", off, i, keys[i])
			}
		}
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncNever, SyncInterval(time.Millisecond), SyncAlways} {
		dir := t.TempDir()
		w, err := Create(dir, Options{SegmentBytes: 64, Sync: pol})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if err := w.Append(uint64(i+1), []byte("sync-policy-record")); err != nil {
				t.Fatalf("%v: %v", pol, err)
			}
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		keys, _, damaged := readAll(t, dir)
		if damaged || len(keys) != 20 {
			t.Fatalf("%v: got %d records damaged=%v", pol, len(keys), damaged)
		}
		rt, err := ParseSyncPolicy(pol.String())
		if err != nil || rt != pol {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", pol.String(), rt, err)
		}
	}
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 1<<40)
	b = AppendString(b, "hello, wal")
	b = AppendString(b, "")
	b = AppendFloat64(b, 3.14159)
	b = AppendBool(b, true)
	b = AppendBits(b, 9, []uint64{0b1_0100_1101}) // positions 0, 2, 3, 6, 8
	d := NewDec(b)
	if v := d.Uvarint(); v != 1<<40 {
		t.Fatalf("uvarint: %d", v)
	}
	if s := d.String(); s != "hello, wal" {
		t.Fatalf("string: %q", s)
	}
	if s := d.String(); s != "" {
		t.Fatalf("empty string: %q", s)
	}
	if f := d.Float64(); f != 3.14159 {
		t.Fatalf("float: %v", f)
	}
	if !d.Bool() {
		t.Fatal("bool")
	}
	bits := d.Bits()
	want := []bool{true, false, true, true, false, false, true, false, true}
	if len(bits) != len(want) {
		t.Fatalf("bits len %d", len(bits))
	}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("bit %d", i)
		}
	}
	if !d.Done() {
		t.Fatalf("not done: err=%v", d.Err())
	}
	// Truncated payloads latch an error instead of panicking.
	d2 := NewDec(b[:3])
	_ = d2.Uvarint()
	_ = d2.String()
	_ = d2.Float64()
	if d2.Err() == nil {
		t.Fatal("expected error on truncated payload")
	}
}

// TestDecIsCanonical pins that Dec accepts only what the Append helpers
// write — the property that lets a decoded payload re-encode to itself.
func TestDecIsCanonical(t *testing.T) {
	for name, tc := range map[string]struct {
		payload []byte
		read    func(d *Dec)
	}{
		"padded uvarint":      {[]byte{0x85, 0x00}, func(d *Dec) { d.Uvarint() }},
		"padded varint":       {[]byte{0x80, 0x00}, func(d *Dec) { d.Varint() }},
		"bool byte above one": {[]byte{2}, func(d *Dec) { d.Bool() }},
		"set padding bits":    {[]byte{3, 0xff}, func(d *Dec) { d.Bits() }},
	} {
		d := NewDec(tc.payload)
		if tc.read(d); d.Err() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSyncPolicyAckContract holds each sync policy to what its ack
// promises on the one group-commit append path: after Wait returns, a
// fresh reader reads the record under SyncNever and SyncAlways, and under
// SyncInterval after Sync (its committer here never ticks); every batch
// written is fsynced except under SyncNever, which fsyncs only at Close;
// a rotation adds no fsync of its own; and a failed write latches, failing
// every later append.
func TestSyncPolicyAckContract(t *testing.T) {
	for _, tc := range []struct {
		pol    SyncPolicy
		waits  bool // Wait returns once the record is in the segment file
		fsyncs bool // every batch written is fsynced
	}{
		{SyncNever, true, false},
		{SyncInterval(time.Hour), false, true},
		{SyncAlways, true, true},
	} {
		t.Run(tc.pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			w, err := Create(dir, Options{SegmentBytes: 64, Sync: tc.pol})
			if err != nil {
				t.Fatal(err)
			}
			const n = 10
			for i := 1; i <= n; i++ {
				c, err := w.AppendAsync(uint64(i), []byte("ack-contract-record"))
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Wait(); err != nil {
					t.Fatal(err)
				}
				if !tc.waits {
					if keys, _, _ := readAll(t, dir); len(keys) != i-1 {
						t.Fatalf("record %d is on disk before its interval flush", i)
					}
					if err := w.Sync(); err != nil {
						t.Fatal(err)
					}
				}
				keys, _, damaged := readAll(t, dir)
				if damaged || len(keys) != i || keys[i-1] != uint64(i) {
					t.Fatalf("after record %d's ack a fresh reader reads %d records (damaged=%v)", i, len(keys), damaged)
				}
			}
			if err := w.Rotate(); err != nil {
				t.Fatal(err)
			}
			segs, err := Segments(dir)
			if err != nil || len(segs) < 3 {
				t.Fatalf("%d segments (%v): the appends did not rotate", len(segs), err)
			}
			st := w.Stats()
			wantSyncs := uint64(0)
			if tc.fsyncs {
				wantSyncs = st.Batches
			}
			if st.Appends != n || st.Batches != n || st.Syncs != wantSyncs {
				t.Fatalf("stats %+v over %d rotations, want %d appends in %d batches and %d fsyncs",
					st, len(segs)-1, n, n, wantSyncs)
			}

			// Break the active segment under the writer: the next write
			// fails, and so does every append after it.
			w.mu.Lock()
			w.f.Close()
			w.mu.Unlock()
			c, err := w.AppendAsync(n+1, []byte("lost"))
			if err != nil {
				t.Fatal(err)
			}
			if tc.waits {
				err = c.Wait()
			} else {
				err = w.Sync()
			}
			if err == nil {
				t.Fatal("a write to a closed segment succeeded")
			}
			for i := uint64(n + 2); i < n+4; i++ {
				if _, err := w.AppendAsync(i, []byte("later")); err == nil {
					t.Fatalf("append %d after a failed write succeeded", i)
				}
			}
			if err := w.Close(); err == nil {
				t.Fatal("Close after a failed write reported success")
			}
			if keys, _, damaged := readAll(t, dir); damaged || len(keys) != n {
				t.Fatalf("log holds %d records (damaged=%v) after the failure, want the %d acknowledged", len(keys), damaged, n)
			}
		})
	}
}

// TestBatchRotatesLikeSingleAppends pins that segment boundaries do not
// depend on how appends were grouped: one batch of records leaves the same
// segment files as the same records appended one at a time, under each
// policy.
func TestBatchRotatesLikeSingleAppends(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncNever, SyncInterval(time.Hour), SyncAlways} {
		single, batched := t.TempDir(), t.TempDir()
		ws, err := Create(single, Options{SegmentBytes: 100, Sync: pol})
		if err != nil {
			t.Fatal(err)
		}
		wb, err := Create(batched, Options{SegmentBytes: 100, Sync: pol})
		if err != nil {
			t.Fatal(err)
		}
		var last Commit
		for i := 1; i <= 20; i++ {
			p := []byte(fmt.Sprintf("record-%d", i))
			if err := ws.Append(uint64(i), p); err != nil {
				t.Fatal(err)
			}
			if last, err = wb.AppendAsync(uint64(i), p); err != nil {
				t.Fatal(err)
			}
		}
		if err := last.Wait(); err != nil {
			t.Fatal(err)
		}
		for _, w := range []*Writer{ws, wb} {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		a, _ := Segments(single)
		b, _ := Segments(batched)
		if len(a) < 3 || len(a) != len(b) {
			t.Fatalf("%s: %d segments appending singly, %d as one batch", pol, len(a), len(b))
		}
		for i := range a {
			x, _ := os.ReadFile(a[i].Path)
			y, _ := os.ReadFile(b[i].Path)
			if !bytes.Equal(x, y) {
				t.Fatalf("%s: segment %d differs: %d bytes appending singly, %d as one batch", pol, a[i].Ordinal, len(x), len(y))
			}
		}
	}
}

// FuzzSegmentRecovery feeds arbitrary bytes in as a log's one segment.
// Create must cut the segment to a prefix that a fresh reader reads in
// full without damage, TruncateAfter at the prefix's highest key must
// leave it unchanged, and nothing may panic.
func FuzzSegmentRecovery(f *testing.F) {
	two := AppendFrame(AppendFrame(nil, 1, []byte("a")), 2, []byte("bc"))
	f.Add([]byte{})
	f.Add(two)
	f.Add(two[:len(two)-1])
	f.Add(append(AppendFrame(nil, 7, []byte("x")), 0xff, 0, 0, 0))
	f.Add(AppendFrame(AppendFrame(nil, 9, []byte("late")), 3, []byte("early")))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		seg := segPath(dir, 1)
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := Create(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		prefix, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, prefix) {
			t.Fatalf("Create left %d bytes that are not a prefix of the %d written", len(prefix), len(data))
		}
		keys, _, damaged := readAll(t, dir)
		if damaged {
			t.Fatalf("the %d-byte recovered prefix reads as damaged", len(prefix))
		}
		var maxKey uint64
		for _, k := range keys {
			maxKey = max(maxKey, k)
		}
		if err := TruncateAfter(dir, maxKey); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, prefix) {
			t.Fatalf("TruncateAfter(%d) cut the recovered prefix from %d to %d bytes", maxKey, len(prefix), len(after))
		}
	})
}
