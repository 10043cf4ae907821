package audit

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/fairness"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/wal"
)

// durableScenario builds the usual audit scenario over a durable store and
// a durable event log rooted at dir.
func durableScenario(tb testing.TB, seed uint64, dir string, opts wal.Options) *scenario {
	tb.Helper()
	u := model.MustUniverse("go", "nlp", "vision", "audio")
	st, err := store.NewDurable(u, 4, dir, opts)
	if err != nil {
		tb.Fatal(err)
	}
	log, err := eventlog.OpenDurable(store.EventsDir(dir), opts)
	if err != nil {
		tb.Fatal(err)
	}
	s := &scenario{tb: tb, st: st, log: log, rng: stats.NewRNG(seed), u: u}
	for _, r := range []model.RequesterID{"r1", "r2", "r3"} {
		if err := s.st.PutRequester(&model.Requester{ID: r}); err != nil {
			tb.Fatal(err)
		}
		s.reqs = append(s.reqs, r)
	}
	return s
}

// checkpointWithAudit saves the engine state into a store checkpoint the
// way the crowdfair/sim layers do.
func checkpointWithAudit(tb testing.TB, st *store.Store, log *eventlog.Log, eng *Engine, cfg fairness.Config) *store.Manifest {
	tb.Helper()
	o := BuildCheckpointOptions(eng, cfg, log.Len())
	if len(o.Audit) == 0 {
		tb.Fatal("engine state empty after audit")
	}
	man, err := st.Checkpoint(o)
	if err != nil {
		tb.Fatal(err)
	}
	return man
}

// resumeFromManifest recovers the engine from the sidecar a manifest in
// dir names.
func resumeFromManifest(tb testing.TB, dir string, st *store.Store, log *eventlog.Log, cfg fairness.Config, man *store.Manifest) *Engine {
	tb.Helper()
	state, err := LoadState(dir, man, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := Resume(st, log, cfg, state)
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// TestResumeWarmEqualsCold is the acceptance-criterion test: simulate →
// checkpoint (with audit state) → more traffic → restart → warm Audit
// must report violations identical to a cold fairness.CheckAll over the
// recovered trace, with exact Checked parity.
func TestResumeWarmEqualsCold(t *testing.T) {
	dir := t.TempDir()
	opts := wal.Options{SegmentBytes: 8 << 10}
	s := durableScenario(t, 21, dir, opts)
	s.seed(60, 30, 300, 50)
	cfg := fairness.DefaultConfig()
	eng := New(s.st, s.log, cfg)
	eng.Audit()
	for i := 0; i < 60; i++ {
		s.mutate()
	}
	eng.Audit()
	checkpointWithAudit(t, s.st, s.log, eng, cfg)
	// Post-checkpoint traffic: this is the delta a warm restart replays.
	for i := 0; i < 40; i++ {
		s.mutate()
	}
	if err := s.st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.log.Close(); err != nil {
		t.Fatal(err)
	}

	st2, man, err := store.Open(dir, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	log2, err := eventlog.OpenDurable(store.EventsDir(dir), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()

	warm := resumeFromManifest(t, dir, st2, log2, cfg, man)
	pass := warm.AuditPass()
	warmReports, full := pass.Reports, fairness.CheckAll(st2, log2, cfg)
	requirePass(t, 0, pass, full)
	for i := range warmReports {
		if warmReports[i].Checked != full[i].Checked {
			t.Fatalf("%s: warm checked %d, full %d",
				warmReports[i].Axiom, warmReports[i].Checked, full[i].Checked)
		}
	}
	// Warm engine keeps auditing correctly as traffic continues.
	s2 := &scenario{tb: t, st: st2, log: log2, rng: stats.NewRNG(77), u: s.u, reqs: s.reqs}
	s2.wn, s2.tn, s2.cn = s.wn, s.tn, s.cn
	for round := 0; round < 3; round++ {
		for i := 0; i < 20; i++ {
			s2.mutate()
		}
		requirePass(t, round+1, warm.AuditPass(), fairness.CheckAll(st2, log2, cfg))
	}
}

// TestResumeAfterTornRecord tears the final record off both the changelog
// and event WALs after the checkpoint: the warm restart over the recovered
// prefix must still match a cold full scan over that same prefix.
func TestResumeAfterTornRecord(t *testing.T) {
	dir := t.TempDir()
	opts := wal.Options{SegmentBytes: 1 << 20}
	s := durableScenario(t, 5, dir, opts)
	s.seed(40, 20, 200, 30)
	cfg := fairness.DefaultConfig()
	eng := New(s.st, s.log, cfg)
	eng.Audit()
	checkpointWithAudit(t, s.st, s.log, eng, cfg)
	for i := 0; i < 30; i++ {
		s.mutate()
	}
	if err := s.st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.log.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear a few bytes off the largest post-checkpoint changelog segment
	// and the event log's tail.
	tearTail(t, filepath.Join(store.WALDir(dir)), 3)
	tearTail(t, store.EventsDir(dir), 2)

	st2, man, err := store.Open(dir, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	log2, err := eventlog.OpenDurable(store.EventsDir(dir), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if man.Version > st2.Version() {
		t.Fatalf("recovered version %d below checkpoint %d", st2.Version(), man.Version)
	}

	warm := resumeFromManifest(t, dir, st2, log2, cfg, man)
	warmReports := warm.Audit()
	full := fairness.CheckAll(st2, log2, cfg)
	requireEquivalent(t, 0, warmReports, full)
	for i := range warmReports {
		if warmReports[i].Checked != full[i].Checked {
			t.Fatalf("%s after tear: warm checked %d, full %d",
				warmReports[i].Axiom, warmReports[i].Checked, full[i].Checked)
		}
	}
}

// tearTail truncates the largest final segment found under root (walking
// one directory level of shard dirs, or root itself) by n bytes.
func tearTail(t *testing.T, root string, n int64) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(root, "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	nested, err := filepath.Glob(filepath.Join(root, "*", "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	segs = append(segs, nested...)
	best, bestSize := "", int64(-1)
	for _, seg := range segs {
		info, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() > bestSize {
			best, bestSize = seg, info.Size()
		}
	}
	if best == "" || bestSize < n {
		t.Fatalf("no tearable segment under %s", root)
	}
	if err := os.Truncate(best, bestSize-n); err != nil {
		t.Fatal(err)
	}
}

// TestResumeRejectsMismatchedShape pins the defensive checks: wrong cursor
// counts or an event position beyond the log must refuse to resume.
func TestResumeRejectsMismatchedShape(t *testing.T) {
	s := newScenario(t, 3)
	s.seed(10, 5, 20, 5)
	cfg := fairness.DefaultConfig()
	if _, err := Resume(s.st, s.log, cfg, nil); err == nil {
		t.Fatal("nil state resumed")
	}
	if _, err := Resume(s.st, s.log, cfg, &State{Cursors: []uint64{1}}); err == nil {
		t.Fatal("cursor-count mismatch resumed")
	}
	bad := &State{Cursors: make([]uint64, s.st.ShardCount()), EventPos: s.log.Len() + 1}
	if _, err := Resume(s.st, s.log, cfg, bad); err == nil {
		t.Fatal("event position beyond log resumed")
	}
}

// TestStateRoundTripsThroughBinary pins that a state survives the sidecar
// encoding: the image is deterministic and re-encodes to itself, and
// resuming from a decoded copy gives the same first-audit reports as
// resuming from the original.
func TestStateRoundTripsThroughBinary(t *testing.T) {
	s := newScenario(t, 9)
	s.seed(40, 20, 150, 30)
	cfg := fairness.DefaultConfig()
	eng := New(s.st, s.log, cfg)
	eng.Audit()
	for i := 0; i < 30; i++ {
		s.mutate()
	}
	eng.Audit()
	state := eng.State()
	blob := state.Encode()
	decoded, err := DecodeState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decoded.Encode(), blob) || !bytes.Equal(eng.State().Encode(), blob) {
		t.Fatal("state image is not deterministic")
	}
	for i := 0; i < 25; i++ {
		s.mutate()
	}
	a, err := Resume(s.st, s.log, cfg, state)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Resume(s.st, s.log, cfg, decoded)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Audit(), b.Audit()
	requireEquivalent(t, 0, ra, rb)
	requireEquivalent(t, 1, ra, fairness.CheckAll(s.st, s.log, cfg))
}
