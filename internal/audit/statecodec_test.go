package audit

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/fairness"
	"repro/internal/model"
	"repro/internal/store"
	"repro/internal/wal"
)

// stateFixture is a primed engine's image after some churn over a
// population of the given size, under cfg.
func stateFixture(tb testing.TB, seed uint64, workers int, cfg fairness.Config) []byte {
	tb.Helper()
	s := newScenario(tb, seed)
	s.seed(workers, workers/2, 4*workers, workers)
	eng := New(s.st, s.log, cfg)
	eng.Audit()
	for i := 0; i < workers; i++ {
		s.mutate()
	}
	eng.Audit()
	st := eng.State()
	st.ConfigSig = ConfigSig(cfg)
	return st.Encode()
}

// resum replaces an image's trailer with the checksum of its body, so
// fuzzed bytes get past the CRC and into the decoder proper.
func resum(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

// fixtureState is a small hand-built state with every field populated.
func fixtureState() *State {
	v := func(a fairness.Axiom, detail string, subjects ...string) fairness.Violation {
		return fairness.Violation{Axiom: a, Subjects: subjects, Detail: detail, Severity: 0.5}
	}
	return &State{
		ConfigSig:     "skill=cosine@0.9",
		Cursors:       []uint64{7, 0, 300},
		EventPos:      42,
		Ax1Violations: []fairness.Violation{v(fairness.Axiom1WorkerAssignment, "access gap", "w1", "w2")},
		Ax1Pairs:      [][2]string{{"w1", "w2"}, {"w1", "w3"}},
		Ax2Violations: []fairness.Violation{v(fairness.Axiom2RequesterAssignment, "audience gap", "t1", "t2")},
		Ax2Pairs:      [][2]string{{"t1", "t2"}},
		Ax3Violations: map[model.TaskID][]fairness.Violation{"t1": {v(fairness.Axiom3Compensation, "pay gap", "c1", "c2")}},
		Ax3Checked:    map[model.TaskID]int{"t1": 1, "t2": 0},
		Ax4Violations: map[model.WorkerID]fairness.Violation{"w2": v(fairness.Axiom4MaliciousDetection, "undetected", "w2")},
		Ax4Eligible:   []model.WorkerID{"w1", "w2"},
	}
}

// FuzzDecodeState: the decoder never panics, never allocates from a count
// the input cannot back, and accepts only canonical images — what it
// accepts re-encodes to the same bytes. Seeds stay small (the engine's own
// image of a six-worker population), or the fuzzer spends its budget
// minimising them.
func FuzzDecodeState(f *testing.F) {
	hand := fixtureState().Encode()
	f.Add(hand)
	f.Add(hand[:len(hand)/2])
	f.Add(resum(append([]byte{stateFormat - 1}, hand[1:]...))) // an older format
	f.Add(stateFixture(f, 9, 6, fairness.DefaultConfig()))
	f.Add((&State{}).Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resum(data)} {
			st, err := DecodeState(in)
			if err != nil {
				continue
			}
			if again := st.Encode(); !bytes.Equal(again, in) {
				t.Fatalf("accepted image re-encodes differently (%d bytes in, %d out)", len(in), len(again))
			}
		}
	})
}

// The hand-built fixture survives the round trip field for field (nil and
// empty collections are one encoding and come back nil).
func TestStateFixtureRoundTrips(t *testing.T) {
	want := fixtureState()
	got, err := DecodeState(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

// Damage of any kind is a decode error, and so is an encoding Encode would
// not have produced — here a count larger than the bytes behind it, map
// keys out of order, and a padded varint — even under a valid checksum.
func TestDecodeStateRejectsDamageAndNonCanonicalImages(t *testing.T) {
	good := stateFixture(t, 9, 30, fairness.DefaultConfig())
	if _, err := DecodeState(good); err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x04
	image := func(build func(b []byte) []byte) []byte {
		b := build([]byte{stateFormat})
		return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	}
	for name, data := range map[string][]byte{
		"truncated":   good[:len(good)-9],
		"bit flip":    flipped,
		"extra bytes": resum(append(append([]byte(nil), good...), 0, 0, 0, 0, 0)),
		"empty":       {},
		"huge cursor count": image(func(b []byte) []byte {
			b = wal.AppendString(b, "sig")
			return wal.AppendUvarint(b, 1<<40)
		}),
		"offer keys descending": image(func(b []byte) []byte {
			b = wal.AppendString(b, "sig")
			b = wal.AppendUvarint(b, 0) // cursors
			b = wal.AppendUvarint(b, 0) // event pos
			b = wal.AppendUvarint(b, 2) // offers
			b = appendIDs(wal.AppendString(b, "w2"), []string{"t1"})
			return appendIDs(wal.AppendString(b, "w1"), []string{"t1"})
		}),
		"padded varint": image(func(b []byte) []byte {
			b = wal.AppendString(b, "sig")
			return append(b, 0x80, 0x00) // a two-byte zero
		}),
	} {
		if _, err := DecodeState(data); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// A checkpoint's sidecar is byte-deterministic: the engine that wrote it
// and an engine warm-started from it both re-save exactly the same image.
func TestStateImageIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	s := durableScenario(t, 31, dir, wal.Options{})
	s.seed(60, 30, 300, 50)
	cfg := lshConfig(777)
	eng := New(s.st, s.log, cfg)
	eng.Audit()
	man := checkpointWithAudit(t, s.st, s.log, eng, cfg)
	saved, err := os.ReadFile(filepath.Join(dir, man.AuditFile))
	if err != nil {
		t.Fatal(err)
	}
	if again := BuildCheckpointOptions(eng, cfg, s.log.Len()).Audit; !bytes.Equal(again, saved) {
		t.Fatal("the same engine saved two different images")
	}
	warm := resumeFromManifest(t, dir, s.st, s.log, cfg, man)
	if again := BuildCheckpointOptions(warm, cfg, s.log.Len()).Audit; !bytes.Equal(again, saved) {
		t.Fatal("a warm-started engine re-saved a different image")
	}
}

// LoadState's error cases are all "cold-start": no sidecar named, the file
// gone, cut short or flipped, a state saved under another config, and an
// image of formats 1–4 (1–3 ended in an LSH index image, 4 carried the
// trace's offer sets, flags and Axiom 5 stream) under a valid checksum.
func TestLoadStateRefusesUnusableSidecars(t *testing.T) {
	dir := t.TempDir()
	s := durableScenario(t, 5, dir, wal.Options{})
	s.seed(20, 10, 60, 10)
	cfg := fairness.DefaultConfig()
	eng := New(s.st, s.log, cfg)
	eng.Audit()
	man := checkpointWithAudit(t, s.st, s.log, eng, cfg)
	if _, err := LoadState(dir, man, cfg); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.SkillThreshold = 0.5
	if _, err := LoadState(dir, man, other); err == nil {
		t.Fatal("loaded a state saved under another config")
	}
	if _, err := LoadState(dir, &store.Manifest{}, cfg); err == nil {
		t.Fatal("loaded a state no manifest names")
	}
	path := filepath.Join(dir, man.AuditFile)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/3] ^= 0x40
	images := map[string][]byte{"truncated": good[:len(good)/2], "bit flip": flipped}
	for format := byte(1); format <= 4; format++ {
		old := append([]byte(nil), good...)
		old[0] = format
		images[fmt.Sprintf("format %d", format)] = resum(old)
	}
	for name, data := range images {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadState(dir, man, cfg); err == nil {
			t.Errorf("%s: loaded", name)
		}
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadState(dir, man, cfg); err == nil {
		t.Error("missing: loaded")
	}

}

// BenchmarkBuildIndexes times the candidate-index build Resume and a
// cold rebuild run, over a store shaped like a recover_restart checkpoint's:
// 10k workers and 1k tasks under the lsh kind's cosine 0.9 skill join, in
// clusters of 20 sharing all but one of 26 skills. Entities are read in
// place (store.PeekWorker), never cloned.
func BenchmarkBuildIndexes(b *testing.B) {
	names := make([]string, 1200)
	for i := range names {
		names[i] = fmt.Sprintf("s%04d", i)
	}
	u := model.MustUniverse(names...)
	st := store.New(u)
	skills := func(i int) model.SkillVector {
		v := model.NewSkillVector(len(names))
		for k := 0; k < 26; k++ {
			v[(i/20*26+k)%1000] = true
		}
		v[i%20] = false
		v[1000+i%200] = true
		return v
	}
	if err := st.PutRequester(&model.Requester{ID: "r1"}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		if err := st.PutWorker(&model.Worker{ID: model.WorkerID(fmt.Sprintf("w%06d", i)), Skills: skills(i)}); err != nil {
			b.Fatal(err)
		}
		if i%10 == 0 {
			if err := st.PutTask(&model.Task{ID: model.TaskID(fmt.Sprintf("t%06d", i)), Requester: "r1", Skills: skills(i), Reward: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
	eng := New(st, eventlog.New(), lshConfig(44))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.buildIndexes()
	}
}
