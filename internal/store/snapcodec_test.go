package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
	"repro/internal/wal"
)

// checkpointedDir builds a durable store, checkpoints it after `at` of the
// script's n steps (with a stand-in audit blob, so the sidecar exists),
// applies the rest and closes. It returns the directory and the state a
// correct recovery must reproduce.
func checkpointedDir(t *testing.T, at, n int) (dir string, steps []scriptStep, want string) {
	t.Helper()
	u := testUniverse()
	dir = t.TempDir()
	steps = mutationScript(u, n)
	ds, err := CreateDurable(u, dir, wal.Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	applySteps(t, ds, steps, at)
	if _, err := ds.Checkpoint(CheckpointOptions{Audit: []byte("audit state A")}); err != nil {
		t.Fatal(err)
	}
	applySteps(t, ds, steps[at:], n-at)
	want = snapBytes(t, ds)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, steps, want
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkpointFiles lists the snapshot and sidecar files present in dir.
func checkpointFiles(t *testing.T, dir string) []string {
	t.Helper()
	var names []string
	for _, pattern := range []string{"snapshot-*", "audit-*"} {
		files, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			names = append(names, filepath.Base(f))
		}
	}
	return names
}

// A checkpoint that dies after writing the new snapshot and sidecar but
// before renaming the manifest must leave a directory that reopens on the
// old manifest with the old pair; the next checkpoint sweeps the orphans.
func TestCheckpointInterruptedBeforeManifestRename(t *testing.T) {
	dir, _, want := checkpointedDir(t, 40, 70)
	opts := wal.Options{SegmentBytes: 256}

	// Let a copy complete checkpoint B, then plant only B's two files in
	// the original: exactly what the interrupted checkpoint leaves behind.
	done := copyTree(t, dir)
	ds, _, err := OpenDurable(done, opts)
	if err != nil {
		t.Fatal(err)
	}
	manB, err := ds.Checkpoint(CheckpointOptions{Audit: []byte("audit state B")})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{manB.Snapshot, manB.AuditFile} {
		if err := os.WriteFile(filepath.Join(dir, name), readFile(t, filepath.Join(done, name)), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	got, man, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if man.Version != 40 || man.Snapshot == manB.Snapshot || man.AuditFile == manB.AuditFile {
		t.Fatalf("reopened on manifest %+v, want checkpoint A's", man)
	}
	if blob := readFile(t, filepath.Join(dir, man.AuditFile)); string(blob) != "audit state A" {
		t.Fatalf("manifest A names sidecar %q", blob)
	}
	if snapBytes(t, got) != want {
		t.Fatal("recovered state differs")
	}
	if n := len(checkpointFiles(t, dir)); n != 4 {
		t.Fatalf("%d checkpoint files before the sweep, want both pairs", n)
	}
	manC, err := got.Checkpoint(CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if files := checkpointFiles(t, dir); len(files) != 1 || files[0] != manC.Snapshot {
		t.Fatalf("after the next checkpoint: %v, want only %s", files, manC.Snapshot)
	}
}

// A damaged snapshot must fail Open outright — a store missing entities
// would audit clean and be wrong.
func TestCorruptSnapshotIsOpenError(t *testing.T) {
	dir, _, _ := checkpointedDir(t, 40, 50)
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := readFile(t, filepath.Join(dir, man.Snapshot))
	// The end of the second-to-last frame: a cut on a frame boundary.
	r := wal.NewSegmentReader(good)
	var ends []int64
	for {
		if _, _, err := r.Next(); err != nil {
			break
		}
		ends = append(ends, r.Offset())
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x10
	for _, tc := range []struct {
		name    string
		damaged []byte // nil: the file is removed
	}{
		{"cut mid-frame", good[:len(good)-3]},
		{"cut on frame boundary", good[:ends[len(ends)-2]]},
		{"header only", good[:ends[0]]},
		{"bit flip", flipped},
		{"trailing frame", wal.AppendFrame(append([]byte(nil), good...), uint64(len(ends)), []byte{0})},
		{"empty", []byte{}},
		{"missing", nil},
	} {
		name := tc.name
		trial := copyTree(t, dir)
		path := filepath.Join(trial, man.Snapshot)
		if tc.damaged == nil {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		} else if err := os.WriteFile(path, tc.damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, _, err := OpenDurable(trial, wal.Options{}); err == nil {
			s.Close()
			t.Errorf("%s: Open succeeded", name)
		}
		if _, _, err := Bootstrap(trial); err == nil {
			t.Errorf("%s: Bootstrap succeeded", name)
		}
	}
}

// Two checkpoints of one state write the same bytes, whatever route the
// store took to that state (here: built live, and recovered from disk).
func TestCheckpointSnapshotIsDeterministic(t *testing.T) {
	dir, _, _ := checkpointedDir(t, 50, 50)
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := readFile(t, filepath.Join(dir, man.Snapshot))
	got, _, err := OpenDurable(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	man2, err := got.Checkpoint(CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if man2.Snapshot != man.Snapshot {
		t.Fatalf("same version, snapshot %s then %s", man.Snapshot, man2.Snapshot)
	}
	if !bytes.Equal(readFile(t, filepath.Join(dir, man2.Snapshot)), first) {
		t.Fatal("two checkpoints of one state differ")
	}
}

// fixtureSnapshot is a small snapshot touching every table and every
// optional field of the record encoding.
func fixtureSnapshot() *model.Snapshot {
	return &model.Snapshot{
		Skills:     []string{"go", "nlp", "vision"},
		Requesters: []*model.Requester{{ID: "r1", Name: "Requester One"}, {ID: "r2"}},
		Workers: []*model.Worker{
			{
				ID:       "w1",
				Declared: model.Attributes{"age": model.Num(33), "country": model.Str("jp")},
				Computed: model.Attributes{"acceptance_ratio": model.Num(0.875)},
				Skills:   model.SkillVector{true, false, true},
			},
			{ID: "w2", Skills: model.SkillVector{false, false, false}},
		},
		Tasks: []*model.Task{{
			ID: "t1", Requester: "r1", Skills: model.SkillVector{false, true, false},
			Reward: 2.5, Quota: 3, Published: 5, Title: "label images",
		}},
		Contributions: []*model.Contribution{
			{ID: "c1", Task: "t1", Worker: "w1", Text: "an answer", Quality: 0.75, Accepted: true, Paid: 1.25, SubmittedAt: 42},
			{ID: "c2", Task: "t1", Worker: "w2", Ranking: []string{"a", "b"}, Quality: 0.25, SubmittedAt: -1},
		},
	}
}

func TestSnapshotFramesRoundTrip(t *testing.T) {
	snap := fixtureSnapshot()
	data := encodeSnapshotFrames(snap)
	got, err := decodeSnapshotFrames(data)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := snap.Encode()
	gotJSON, _ := got.Encode()
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("round trip:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	// A record whose header is not the insert of its own entity (here: a
	// worker record carrying a stray task id) is refused, CRC-valid or not.
	m := Mutation{Change: Change{Entity: EntityWorker, Worker: "w9", Task: "stray"}, Worker: &model.Worker{ID: "w9"}}
	hdr := encodeStrings(nil, nil)
	for _, n := range []uint64{0, 1, 0, 0} {
		hdr = wal.AppendUvarint(hdr, n)
	}
	bad := wal.AppendFrame(wal.AppendFrame(nil, 0, hdr), 1, encodeMutation(nil, m, snapshotEpoch))
	if _, err := decodeSnapshotFrames(bad); err == nil {
		t.Fatal("non-canonical record header accepted")
	}
}

// reframe recomputes every frame checksum the length fields can reach, so
// fuzzed bytes get past the CRC and into the record decoder.
func reframe(data []byte) []byte {
	out := append([]byte(nil), data...)
	for off := 0; off+8 <= len(out); {
		n := int(binary.LittleEndian.Uint32(out[off:]))
		if n <= 0 || n > len(out)-off-8 {
			break
		}
		binary.LittleEndian.PutUint32(out[off+4:], crc32.ChecksumIEEE(out[off+8:off+8+n]))
		off += 8 + n
	}
	return out
}

// FuzzDecodeSnapshotFrames: the decoder never panics, never allocates from
// a count the input cannot back, and accepts only canonical images — what
// it accepts re-encodes to the same bytes.
func FuzzDecodeSnapshotFrames(f *testing.F) {
	good := encodeSnapshotFrames(fixtureSnapshot())
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(encodeSnapshotFrames(&model.Snapshot{Skills: []string{"go"}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reframe(data)} {
			snap, err := decodeSnapshotFrames(in)
			if err != nil {
				continue
			}
			if again := encodeSnapshotFrames(snap); !bytes.Equal(again, in) {
				t.Fatalf("accepted image re-encodes differently:\n in  %x\n out %x", in, again)
			}
		}
	})
}
