package sim

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/audit"
	"repro/internal/eventlog"
	"repro/internal/fairness"
	"repro/internal/store"
	"repro/internal/wal"
)

// persistConfig is smallConfig with in-loop audits and a durable root.
func persistConfig(seed uint64, dir string) Config {
	cfg := smallConfig(seed)
	cfg.Rounds = 4
	cfg.AuditEvery = 2
	cfg.FlagLowAcceptance = true
	cfg.PersistDir = dir
	cfg.PersistWAL = wal.Options{SegmentBytes: 16 << 10}
	return cfg
}

// TestRunPersistenceInvariant pins that teeing the run into a WAL changes
// nothing about the simulation outcome.
func TestRunPersistenceInvariant(t *testing.T) {
	volatile, err := Run(func() Config { c := persistConfig(7, ""); c.PersistDir = ""; return c }())
	if err != nil {
		t.Fatal(err)
	}
	durable, err := Run(persistConfig(7, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	if volatile.Metrics != durable.Metrics {
		t.Fatalf("metrics diverge:\nvolatile %+v\ndurable  %+v", volatile.Metrics, durable.Metrics)
	}
	if volatile.Log.Len() != durable.Log.Len() {
		t.Fatalf("event counts diverge: %d vs %d", volatile.Log.Len(), durable.Log.Len())
	}
}

// recoverRun reopens a persisted simulation directory.
func recoverRun(t *testing.T, dir string) (*store.Store, *store.Manifest, *eventlog.Log) {
	t.Helper()
	st, man, err := store.Open(dir, 0, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	log, err := eventlog.OpenDurable(store.EventsDir(dir), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st, man, log
}

// requireWarmEqualsCold resumes the auditor from the manifest and asserts
// its first pass renders byte-identical violations — and equal Checked
// counts — to a cold fairness.CheckAll over the same recovered trace.
func requireWarmEqualsCold(t *testing.T, st *store.Store, man *store.Manifest, log *eventlog.Log, cfg fairness.Config) {
	t.Helper()
	state, err := audit.LoadState(st.Dir(), man, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warmEng, err := audit.Resume(st, log, cfg, state)
	if err != nil {
		t.Fatal(err)
	}
	warm := warmEng.Audit()
	cold := fairness.CheckAll(st, log, cfg)
	if len(warm) != len(cold) {
		t.Fatalf("report counts: %d vs %d", len(warm), len(cold))
	}
	for i := range warm {
		if warm[i].Checked != cold[i].Checked {
			t.Fatalf("%s: warm checked %d, cold %d", warm[i].Axiom, warm[i].Checked, cold[i].Checked)
		}
		if len(warm[i].Violations) != len(cold[i].Violations) {
			t.Fatalf("%s: warm %d violations, cold %d", warm[i].Axiom, len(warm[i].Violations), len(cold[i].Violations))
		}
		for j := range warm[i].Violations {
			if warm[i].Violations[j].String() != cold[i].Violations[j].String() {
				t.Fatalf("%s violation %d:\nwarm: %s\ncold: %s",
					warm[i].Axiom, j, warm[i].Violations[j], cold[i].Violations[j])
			}
		}
	}
}

// TestRunPersistRecoverAuditRoundTrip is the end-to-end acceptance flow:
// simulate → checkpoint+WAL → store.Open → warm audit == cold full scan.
func TestRunPersistRecoverAuditRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := persistConfig(3, dir)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantSnap, err := res.Store.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	wantEvents := res.Log.Len()
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}

	st, man, log := recoverRun(t, dir)
	defer st.Close()
	defer log.Close()
	gotSnap, err := st.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(gotSnap) != string(wantSnap) {
		t.Fatal("recovered store differs from the simulated one")
	}
	if log.Len() != wantEvents {
		t.Fatalf("recovered %d events, want %d", log.Len(), wantEvents)
	}
	requireWarmEqualsCold(t, st, man, log, cfg.AuditConfig)
}

// TestRunPersistRecoverAfterTornRecord tears the final bytes off the
// largest WAL segment (simulating a crash mid-append after the last
// checkpoint... the end-of-run checkpoint makes tails short, so rerun
// without the final checkpoint's truncation by tearing the events log and
// a changelog segment) and asserts warm-vs-cold equivalence still holds
// over the recovered prefix.
func TestRunPersistRecoverAfterTornRecord(t *testing.T) {
	dir := t.TempDir()
	cfg := persistConfig(11, dir)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint, the changelog WALs are truncated; damage the event
	// log's tail (events are never truncated) and the manifest still lets
	// the auditor warm-start over the shorter recovered trace.
	segs, err := filepath.Glob(filepath.Join(store.EventsDir(dir), "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no event segments: %v", err)
	}
	seg := segs[len(segs)-1]
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-2); err != nil {
		t.Fatal(err)
	}

	st, man, log := recoverRun(t, dir)
	defer st.Close()
	defer log.Close()
	state, err := audit.LoadState(dir, man, cfg.AuditConfig)
	if err != nil {
		t.Fatal(err)
	}
	if state.EventPos > log.Len() {
		// The tear removed events the state depends on: resuming must be
		// refused, and a cold engine still matches the full scan.
		if _, err := audit.Resume(st, log, cfg.AuditConfig, state); err == nil {
			t.Fatal("resume accepted a state beyond the recovered log")
		}
		eng := audit.New(st, log, cfg.AuditConfig)
		if !audit.ViolationsEqual(eng.Audit(), fairness.CheckAll(st, log, cfg.AuditConfig)) {
			t.Fatal("cold engine diverges from full scan after tear")
		}
		return
	}
	requireWarmEqualsCold(t, st, man, log, cfg.AuditConfig)
}

// TestRunPersistCheckpointIsComplete pins that the end-of-run checkpoint
// alone carries the whole trace: after it, the changelog WAL holds no
// unsnapshotted tail, and recovery lands exactly on the run's final
// version with a warm-startable auditor.
func TestRunPersistCheckpointIsComplete(t *testing.T) {
	dir := t.TempDir()
	cfg := persistConfig(5, dir)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	totalVersions := res.Store.Version()
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	man, err := store.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Version != totalVersions || man.Snapshot == "" {
		t.Fatalf("manifest version %d snapshot %q, run ended at %d", man.Version, man.Snapshot, totalVersions)
	}
	st, man2, log := recoverRun(t, dir)
	defer st.Close()
	defer log.Close()
	if st.Version() != totalVersions {
		t.Fatalf("recovered version %d, run ended at %d", st.Version(), totalVersions)
	}
	requireWarmEqualsCold(t, st, man2, log, cfg.AuditConfig)
}
