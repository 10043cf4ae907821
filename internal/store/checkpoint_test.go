package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/wal"
)

// script is a deterministic mutation sequence applied one call at a time
// (sequential, so mutation i commits as version i+1) to both a durable
// store and the volatile replicas recovery results are compared against.
type scriptStep func(s *Store) error

// mutationScript builds a mixed workload: requesters, workers, tasks,
// contributions, and updates of workers and contributions.
func mutationScript(u *model.Universe, n int) []scriptStep {
	var steps []scriptStep
	steps = append(steps, func(s *Store) error {
		return s.PutRequester(&model.Requester{ID: "r1", Name: "req one"})
	})
	steps = append(steps, func(s *Store) error {
		return s.PutRequester(&model.Requester{ID: "r2"})
	})
	for i := 0; len(steps) < n; i++ {
		i := i
		switch i % 5 {
		case 0:
			steps = append(steps, func(s *Store) error {
				return s.PutWorker(&model.Worker{
					ID:       model.WorkerID(fmt.Sprintf("w%03d", i)),
					Declared: model.Attributes{"country": model.Str("jp")},
					Computed: model.Attributes{"acceptance_ratio": model.Num(float64(i%10) / 10)},
					Skills:   u.MustVector(u.Names()[i%u.Size()]),
				})
			})
		case 1:
			steps = append(steps, func(s *Store) error {
				req := model.RequesterID("r1")
				if i%2 == 0 {
					req = "r2"
				}
				return s.PutTask(&model.Task{
					ID: model.TaskID(fmt.Sprintf("t%03d", i)), Requester: req,
					Skills: u.MustVector(u.Names()[i%u.Size()]), Reward: 1 + float64(i%3),
				})
			})
		case 2:
			steps = append(steps, func(s *Store) error {
				return s.PutContribution(&model.Contribution{
					ID:   model.ContributionID(fmt.Sprintf("c%03d", i)),
					Task: model.TaskID(fmt.Sprintf("t%03d", i-1)), Worker: model.WorkerID(fmt.Sprintf("w%03d", i-2)),
					Text: fmt.Sprintf("answer %d", i), Quality: 0.5, SubmittedAt: int64(i),
				})
			})
		case 3:
			steps = append(steps, func(s *Store) error {
				w, err := s.Worker(model.WorkerID(fmt.Sprintf("w%03d", i-3)))
				if err != nil {
					return err
				}
				w.Computed["acceptance_ratio"] = model.Num(float64(i%7) / 7)
				return s.UpdateWorker(w)
			})
		case 4:
			steps = append(steps, func(s *Store) error {
				c, err := s.Contribution(model.ContributionID(fmt.Sprintf("c%03d", i-2)))
				if err != nil {
					return err
				}
				c.Accepted = true
				c.Paid = 1.5
				return s.UpdateContribution(c)
			})
		}
	}
	return steps[:n]
}

// applySteps runs the first n steps against s.
func applySteps(t *testing.T, s *Store, steps []scriptStep, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := steps[i](s); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// snapBytes renders the full store state deterministically for equality.
func snapBytes(t *testing.T, s *Store) string {
	t.Helper()
	data, err := s.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestOpenRecoversWALOnlyStore(t *testing.T) {
	u := testUniverse()
	dir := t.TempDir()
	steps := mutationScript(u, 60)
	ds, err := CreateDurable(u, dir, wal.Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	applySteps(t, ds, steps, len(steps))
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	got, man, err := OpenDurable(dir, wal.Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if man.Format != manifestFormat {
		t.Fatalf("manifest format %d", man.Format)
	}
	want := New(u)
	applySteps(t, want, steps, len(steps))
	if snapBytes(t, got) != snapBytes(t, want) {
		t.Fatal("recovered state differs from replayed replica")
	}
	if got.Version() != want.Version() {
		t.Fatalf("version %d, want %d", got.Version(), want.Version())
	}
	// Recovery without a checkpoint replays everything: the merged
	// changelog must be the complete dense history.
	changes, ok := got.ChangesSince(0)
	if !ok {
		t.Fatal("ChangesSince(0) reported truncation after full replay")
	}
	if uint64(len(changes)) != got.Version() {
		t.Fatalf("merged changelog has %d records, want %d", len(changes), got.Version())
	}
	// Appends continue the original version numbering.
	if err := got.PutWorker(&model.Worker{ID: "wnew", Skills: u.MustVector("go")}); err != nil {
		t.Fatal(err)
	}
	if got.Version() != want.Version()+1 {
		t.Fatalf("post-recovery version %d, want %d", got.Version(), want.Version()+1)
	}
}

func TestCheckpointOpenRoundTrip(t *testing.T) {
	u := testUniverse()
	dir := t.TempDir()
	steps := mutationScript(u, 80)
	opts := wal.Options{SegmentBytes: 256}
	ds, err := CreateDurable(u, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	applySteps(t, ds, steps, 50)
	man, err := ds.Checkpoint(CheckpointOptions{Events: 123})
	if err != nil {
		t.Fatal(err)
	}
	if man.Version != 50 || man.Events != 123 || man.Snapshot == "" {
		t.Fatalf("manifest: %+v", man)
	}
	applySteps(t, ds, steps[50:], 30)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	got, man2, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if man2.Version != 50 {
		t.Fatalf("reopened manifest version %d", man2.Version)
	}
	want := New(u)
	applySteps(t, want, steps, len(steps))
	if snapBytes(t, got) != snapBytes(t, want) {
		t.Fatal("recovered state differs from replayed replica")
	}
	if got.Version() != want.Version() {
		t.Fatalf("version %d, want %d", got.Version(), want.Version())
	}
	// The post-checkpoint tail must read back gap-free from the manifest
	// version on.
	changes, ok := got.ChangesSince(man.Version)
	if !ok {
		t.Fatal("ChangesSince(checkpoint) truncated")
	}
	if uint64(len(changes)) != got.Version()-man.Version {
		t.Fatalf("tail has %d records, want %d", len(changes), got.Version()-man.Version)
	}
	// Checkpointing again truncates dead segments; a second recovery from
	// the fresh checkpoint still matches.
	if _, err := got.Checkpoint(CheckpointOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := got.Close(); err != nil {
		t.Fatal(err)
	}
	got2, _, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer got2.Close()
	if snapBytes(t, got2) != snapBytes(t, want) {
		t.Fatal("second recovery differs")
	}
}

// survivingVersions reads the WAL of a (possibly damaged) store
// directory and returns the set of record versions still readable.
func survivingVersions(t *testing.T, dir string) map[uint64]bool {
	t.Helper()
	out := make(map[uint64]bool)
	r, err := wal.OpenDir(WALDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for {
		key, _, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out[key] = true
	}
}

// copyTree clones a durable store directory for destructive experiments.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// lastSegmentWithTail returns the store WAL's final segment path.
func lastSegmentWithTail(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(WALDir(dir), "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatal("no WAL segments found")
	}
	return segs[len(segs)-1]
}

// checkRecovery opens a (possibly damaged) durable store dir and asserts
// it recovered exactly the longest dense version prefix of the surviving
// WAL records, with a gap-free changelog and entity state
// equal to replaying that prefix of the script.
func checkRecovery(t *testing.T, trial string, u *model.Universe, steps []scriptStep, label string) {
	t.Helper()
	surviving := survivingVersions(t, trial)
	wantVer := uint64(0)
	for surviving[wantVer+1] {
		wantVer++
	}
	got, _, err := OpenDurable(trial, wal.Options{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("%s: open: %v", label, err)
	}
	defer got.Close()
	if got.Version() != wantVer {
		t.Fatalf("%s: recovered version %d, want longest dense prefix %d", label, got.Version(), wantVer)
	}
	changes, ok := got.ChangesSince(0)
	if !ok {
		t.Fatalf("%s: changelog truncated", label)
	}
	if uint64(len(changes)) != wantVer {
		t.Fatalf("%s: changelog has %d records, want %d", label, len(changes), wantVer)
	}
	for i, c := range changes {
		if c.Version != uint64(i+1) {
			t.Fatalf("%s: gap at position %d (version %d)", label, i, c.Version)
		}
	}
	want := New(u)
	applySteps(t, want, steps, int(wantVer))
	if snapBytes(t, got) != snapBytes(t, want) {
		t.Fatalf("%s: recovered state differs from %d-step replica", label, wantVer)
	}
}

// TestTornTailTorture truncates the tail of the last (largest) WAL segment
// at every byte offset and asserts Open recovers exactly the longest valid
// prefix with no gap in the merged ChangesSince — the crash-recovery
// contract.
func TestTornTailTorture(t *testing.T) {
	u := testUniverse()
	base := t.TempDir()
	steps := mutationScript(u, 36)
	ds, err := CreateDurable(u, base, wal.Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	applySteps(t, ds, steps, len(steps))
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegmentWithTail(t, base)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(base, seg)
	if err != nil {
		t.Fatal(err)
	}
	size := int(info.Size())
	stride := 1
	if testing.Short() {
		stride = 7
	}
	for cut := 0; cut <= size; cut += stride {
		trial := copyTree(t, base)
		if err := os.Truncate(filepath.Join(trial, rel), int64(cut)); err != nil {
			t.Fatal(err)
		}
		checkRecovery(t, trial, u, steps, fmt.Sprintf("truncate@%d", cut))
	}
}

// TestCorruptTailTorture flips a byte at every offset of the last segment
// instead of truncating; recovery must still settle on a dense prefix.
func TestCorruptTailTorture(t *testing.T) {
	u := testUniverse()
	base := t.TempDir()
	steps := mutationScript(u, 36)
	ds, err := CreateDurable(u, base, wal.Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	applySteps(t, ds, steps, len(steps))
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegmentWithTail(t, base)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(base, seg)
	if err != nil {
		t.Fatal(err)
	}
	stride := 1
	if testing.Short() {
		stride = 7
	}
	for off := 0; off < len(data); off += stride {
		trial := copyTree(t, base)
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xa5
		if err := os.WriteFile(filepath.Join(trial, rel), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		checkRecovery(t, trial, u, steps, fmt.Sprintf("corrupt@%d", off))
	}
}

// TestTornTailAfterCheckpoint tears the post-checkpoint tail: the
// checkpointed state must survive untouched and only tail versions past
// the tear are lost.
func TestTornTailAfterCheckpoint(t *testing.T) {
	u := testUniverse()
	base := t.TempDir()
	steps := mutationScript(u, 60)
	ds, err := CreateDurable(u, base, wal.Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	applySteps(t, ds, steps, 40)
	man, err := ds.Checkpoint(CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	applySteps(t, ds, steps[40:], 20)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegmentWithTail(t, base)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear a few bytes off the end: the last record dies.
	if err := os.Truncate(seg, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	got, _, err := OpenDurable(base, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.Version() < man.Version {
		t.Fatalf("recovered version %d below checkpoint %d", got.Version(), man.Version)
	}
	if got.Version() >= 60 {
		t.Fatalf("torn record survived: version %d", got.Version())
	}
	want := New(u)
	applySteps(t, want, steps, int(got.Version()))
	if snapBytes(t, got) != snapBytes(t, want) {
		t.Fatal("recovered state differs from prefix replica")
	}
}

func TestNewDurableRefusesExistingStore(t *testing.T) {
	u := testUniverse()
	dir := t.TempDir()
	ds, err := CreateDurable(u, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds.Close()
	if _, err := CreateDurable(u, dir, wal.Options{}); err == nil {
		t.Fatal("CreateDurable over an existing store must fail")
	}
}

// TestCheckpointOpenAdoptsDecodedEntities: recovery stores the workers and
// tasks it decodes themselves, so each must arrive with its skills packed —
// from the snapshot frames, from the WAL tail, and through Bootstrap —
// or SkillBits would silently pack on every pair judgment. The entry points
// that take a caller's value (PutWorker, UpdateWorker) still keep a clone:
// mutating the value afterwards leaves the store as it was.
func TestCheckpointOpenAdoptsDecodedEntities(t *testing.T) {
	u := testUniverse()
	dir := t.TempDir()
	steps := mutationScript(u, 80)
	ds, err := CreateDurable(u, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	applySteps(t, ds, steps, 50)
	man, err := ds.Checkpoint(CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	applySteps(t, ds, steps[50:], 30)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	requirePacked := func(label string, s *Store, fromTail map[string]bool) {
		t.Helper()
		var snapshot, tail int
		for _, id := range s.WorkerIDs() {
			w := s.PeekWorker(id)
			if n := testing.AllocsPerRun(10, func() { w.SkillBits() }); n != 0 {
				t.Fatalf("%s: worker %s: SkillBits allocated %.0f times, want 0", label, id, n)
			}
			if fromTail[string(id)] {
				tail++
			} else {
				snapshot++
			}
		}
		for _, id := range s.TaskIDs() {
			task := s.PeekTask(id)
			if n := testing.AllocsPerRun(10, func() { task.SkillBits() }); n != 0 {
				t.Fatalf("%s: task %s: SkillBits allocated %.0f times, want 0", label, id, n)
			}
			if fromTail[string(id)] {
				tail++
			} else {
				snapshot++
			}
		}
		if snapshot == 0 || (fromTail != nil && tail == 0) {
			t.Fatalf("%s: %d entities from the snapshot, %d from the WAL tail: both paths must be covered", label, snapshot, tail)
		}
	}

	got, _, err := OpenDurable(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	changes, ok := got.ChangesSince(man.Version)
	if !ok {
		t.Fatal("ChangesSince(checkpoint) truncated")
	}
	fromTail := make(map[string]bool)
	for _, c := range changes {
		switch c.Entity {
		case EntityWorker:
			fromTail[string(c.Worker)] = true
		case EntityTask:
			fromTail[string(c.Task)] = true
		}
	}
	requirePacked("Open", got, fromTail)

	boot, _, err := Bootstrap(dir)
	if err != nil {
		t.Fatal(err)
	}
	requirePacked("Bootstrap", boot, nil)

	// A caller's value, mutated after the call, leaves the store unchanged.
	unchanged := func(label string, s *Store, mutate func()) {
		t.Helper()
		before := snapBytes(t, s)
		mutate()
		if snapBytes(t, s) != before {
			t.Fatalf("%s: mutating the caller's value changed the store", label)
		}
	}
	w := &model.Worker{ID: "wput", Declared: model.Attributes{"country": model.Str("fr")}, Skills: u.MustVector("go")}
	if err := got.PutWorker(w); err != nil {
		t.Fatal(err)
	}
	unchanged("PutWorker", got, func() { w.Skills[1] = true; w.Declared["country"] = model.Str("de") })
	up, err := got.Worker("wput")
	if err != nil {
		t.Fatal(err)
	}
	up.Skills = u.MustVector("nlp")
	if err := got.UpdateWorker(up); err != nil {
		t.Fatal(err)
	}
	unchanged("UpdateWorker", got, func() { up.Skills[0] = true; up.Declared["country"] = model.Str("it") })
	for _, s := range []*Store{got, boot} {
		for _, id := range s.WorkerIDs() {
			if w := s.PeekWorker(id); w.SkillBits().Count() != w.Skills.Pack().Count() {
				t.Fatalf("worker %s: packed skills disagree with its vector", id)
			}
		}
	}
}

// ApplyWALFrame decodes one changelog WAL frame (key = version, payload as
// written by the store) and applies it through CatchUp's apply
// path.
func (s *Store) ApplyWALFrame(key uint64, payload []byte) error {
	m, err := decodeMutation(key, payload, walEpoch)
	if err != nil {
		return err
	}
	return s.applyFrame(m)
}

// TestApplyWALFrameAdoptsDecodedEntity: a replica's ApplyWALFrame stores
// the entity it decodes, skills packed, and copies nothing: per frame it
// allocates what decoding the frame does plus one, the packing of the
// skills, and the stored worker is the frame's.
func TestApplyWALFrameAdoptsDecodedEntity(t *testing.T) {
	u := testUniverse()
	const runs = 50
	frames := make([][]byte, runs+2)
	for i := range frames {
		op := OpUpdate
		if i == 0 {
			op = OpInsert
		}
		frames[i] = encodeMutation(nil, Mutation{
			Change: Change{Version: uint64(i + 1), Op: op, Entity: EntityWorker, Worker: "w1"},
			Worker: &model.Worker{
				ID:       "w1",
				Declared: model.Attributes{"country": model.Str("fr")},
				Computed: model.Attributes{"completed": model.Num(float64(i))},
				Skills:   u.MustVector([]string{"go", "sql"}[i%2]),
			},
		}, walEpoch)
	}
	adopt := New(u)
	if err := adopt.ApplyWALFrame(1, frames[0]); err != nil {
		t.Fatal(err)
	}
	next := 1
	frame := testing.AllocsPerRun(runs, func() {
		if err := adopt.ApplyWALFrame(uint64(next+1), frames[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	decode := testing.AllocsPerRun(runs, func() {
		if _, err := decodeMutation(2, frames[1], walEpoch); err != nil {
			t.Fatal(err)
		}
	})
	if frame > decode+1 {
		t.Fatalf("ApplyWALFrame allocates %.0f per frame, decoding one %.0f: the frame path may add only the skill packing",
			frame, decode)
	}
	last, err := decodeMutation(uint64(next), frames[next-1], walEpoch)
	if err != nil {
		t.Fatal(err)
	}
	last.packSkills()
	w := adopt.PeekWorker("w1")
	if !reflect.DeepEqual(w, last.Worker) {
		t.Fatalf("the store holds %+v, the last frame carried %+v", w, last.Worker)
	}
	if n := testing.AllocsPerRun(10, func() { w.SkillBits() }); n != 0 {
		t.Fatalf("the applied worker's SkillBits allocated %.0f times, want 0", n)
	}
}
