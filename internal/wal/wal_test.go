package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

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
	if w.SegmentCount() < 2 {
		t.Fatalf("expected rotation with 64-byte segments, got %d segment(s)", w.SegmentCount())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
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
	if w.MaxKey() != 10 {
		t.Fatalf("recovered MaxKey %d, want 10", w.MaxKey())
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
	for _, pol := range []SyncPolicy{SyncNever, SyncOnRotate, SyncAlways} {
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
	b = AppendBits(b, []bool{true, false, true, true, false, false, true, false, true})
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
// write — the property that lets a decoded payload re-encode to itself —
// and that a uint32 run round-trips and bounds its count.
func TestDecIsCanonical(t *testing.T) {
	run := AppendUint32s(nil, []uint32{0, 7, 1 << 31})
	d := NewDec(run)
	if got := d.Uint32s(); len(got) != 3 || got[1] != 7 || got[2] != 1<<31 || !d.Done() {
		t.Fatalf("uint32 run: %v (err %v)", got, d.Err())
	}
	for name, tc := range map[string]struct {
		payload []byte
		read    func(d *Dec)
	}{
		"padded uvarint":      {[]byte{0x85, 0x00}, func(d *Dec) { d.Uvarint() }},
		"padded varint":       {[]byte{0x80, 0x00}, func(d *Dec) { d.Varint() }},
		"bool byte above one": {[]byte{2}, func(d *Dec) { d.Bool() }},
		"set padding bits":    {[]byte{3, 0xff}, func(d *Dec) { d.Bits() }},
		"run count past end":  {append(AppendUvarint(nil, 3), 0, 0, 0, 0), func(d *Dec) { d.Uint32s() }},
	} {
		d := NewDec(tc.payload)
		if tc.read(d); d.Err() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
