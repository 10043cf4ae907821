package audit

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/fairness"
	"repro/internal/par"
	"repro/internal/similarity"
	"repro/internal/store"
	"repro/internal/wal"
)

// lshConfig is the default config switched to the lsh candidate kind, the
// exact skill join (the seed changes nothing but ConfigSig).
func lshConfig(seed uint64) fairness.Config {
	cfg := fairness.DefaultConfig()
	cfg.CandidateIndex = fairness.CandidateLSH
	cfg.LSHSeed = seed
	return cfg
}

// The engine's incrementally maintained skill joins must generate exactly
// the candidate sets the checkers' transient per-call joins generate —
// candidacy is a pure function of two entities' skills — so the
// incremental engine under the lsh kind matches fairness.CheckAll under it
// across arbitrary mutation streams, violations and Checked counts alike.
func TestIncrementalLSHMatchesCheckAllLSH(t *testing.T) {
	for _, seed := range []uint64{4, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := newScenario(t, seed)
			s.seed(50, 20, 250, 30)
			cfg := lshConfig(seed * 1013)
			eng := New(s.st, s.log, cfg)
			for round := 0; round < 8; round++ {
				for i := 0; i < 15; i++ {
					s.mutate()
				}
				pass := eng.AuditPass()
				inc, full := pass.Reports, fairness.CheckAll(s.st, s.log, cfg)
				requirePass(t, round, pass, full)
				for i := range inc {
					if inc[i].Checked != full[i].Checked {
						t.Fatalf("round %d, %s: checked %d (incremental) vs %d (full)",
							round, inc[i].Axiom, inc[i].Checked, full[i].Checked)
					}
				}
			}
		})
	}
}

// A warm restart under the lsh kind must equal a cold start: Resume builds
// the skill joins from the recovered store (the sidecar holds no index
// image), the first warm delta pass reports exactly what a cold full scan
// reports, and the warm engine's joins give every entity a cold build's
// partners.
func TestResumeWarmEqualsColdLSH(t *testing.T) {
	dir := t.TempDir()
	opts := wal.Options{SegmentBytes: 8 << 10}
	s := durableScenario(t, 31, dir, opts)
	s.seed(60, 30, 300, 50)
	cfg := lshConfig(777)
	eng := New(s.st, s.log, cfg)
	eng.Audit()
	for i := 0; i < 60; i++ {
		s.mutate()
	}
	eng.Audit()

	checkpointWithAudit(t, s.st, s.log, eng, cfg)
	for i := 0; i < 40; i++ {
		s.mutate()
	}
	if err := s.st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.log.Close(); err != nil {
		t.Fatal(err)
	}

	st2, man, err := store.OpenDurable(dir, opts)
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
	cold := New(st2, log2, cfg)
	cold.buildIndexes()
	requireSameJoin(t, "worker", warm.workerIx, cold.workerIx, st2.WorkerIDs())
	requireSameJoin(t, "task", warm.taskIx, cold.taskIx, st2.TaskIDs())
	pass := warm.AuditPass()
	warmReports, full := pass.Reports, fairness.CheckAll(st2, log2, cfg)
	requirePass(t, 0, pass, full)
	for i := range warmReports {
		if warmReports[i].Checked != full[i].Checked {
			t.Fatalf("%s: warm checked %d, full %d",
				warmReports[i].Axiom, warmReports[i].Checked, full[i].Checked)
		}
	}
}

// Delta passes refresh the skill joins through the same install path as the
// cold build: after seeded churn rounds at pool widths 1 and 2 (each round
// re-indexing well over par's inline threshold of workers and tasks), the
// engine's joins hold as many entities as a fresh engine's cold build over
// the final store and give every entity the same partners.
func TestDeltaRefreshEqualsColdBuildLSH(t *testing.T) {
	defer par.SetMaxWorkers(0)
	for _, workers := range []int{1, 2} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			par.SetMaxWorkers(workers)
			s := newScenario(t, 41)
			s.seed(150, 60, 400, 60)
			cfg := lshConfig(4242)
			eng := New(s.st, s.log, cfg)
			eng.Audit()
			for round := 0; round < 6; round++ {
				for i := 0; i < 40; i++ {
					s.updateWorker()
				}
				for i := 0; i < 20; i++ {
					s.addTask()
					s.mutate()
				}
				requirePass(t, round, eng.AuditPass(), fairness.CheckAll(s.st, s.log, cfg))
			}
			cold := New(s.st, s.log, cfg)
			cold.Audit()
			requireSameJoin(t, "worker", eng.workerIx, cold.workerIx, s.st.WorkerIDs())
			requireSameJoin(t, "task", eng.taskIx, cold.taskIx, s.st.TaskIDs())
		})
	}
}

// requireSameJoin fails unless two skill joins hold the same number of
// entities and give every id the same partners.
func requireSameJoin[ID ~string](t *testing.T, kind string, g, w *similarity.SkillJoin, ids []ID) {
	t.Helper()
	if g.Len() != w.Len() {
		t.Fatalf("%s join: %d entries, cold build %d", kind, g.Len(), w.Len())
	}
	partners := func(x *similarity.SkillJoin, id ID) (out []string) {
		x.Partners(string(id), func(p string) { out = append(out, p) })
		sort.Strings(out)
		return out
	}
	for _, id := range ids {
		if gp, wp := partners(g, id), partners(w, id); !slices.Equal(gp, wp) {
			t.Fatalf("%s join: %s has partners %v, cold build %v", kind, id, gp, wp)
		}
	}
}

// LSHSeed is ignored and not signed, so a state saved under one seed is
// warm under another: LoadState accepts it, and the resumed engine audits
// exactly like CheckAll under the other seed.
func TestResumeLSHSeedMismatchFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := durableScenario(t, 8, dir, wal.Options{})
	s.seed(40, 20, 150, 30)
	cfg := lshConfig(1)
	eng := New(s.st, s.log, cfg)
	eng.Audit()
	man := checkpointWithAudit(t, s.st, s.log, eng, cfg)
	cfg2 := lshConfig(2)
	warm := resumeFromManifest(t, dir, s.st, s.log, cfg2, man)
	for i := 0; i < 20; i++ {
		s.mutate()
	}
	requireEquivalent(t, 0, warm.Audit(), fairness.CheckAll(s.st, s.log, cfg2))
}

// A sidecar signed with a candidate kind, as the exact kind's default
// signature below, was computed over a census of skill-sharing pairs:
// LoadState refuses it, and the cold engine's first pass equals CheckAll,
// Checked included.
func TestResumeKindSignedStateColdStarts(t *testing.T) {
	const exactKindSig = `skill="cosine"@0.9;attrT=0.9;access=1;reward=0.1;contrib=0.8;pay=0.01;exh=false;cand="exact";attr=0.1/0`
	dir := t.TempDir()
	s := durableScenario(t, 9, dir, wal.Options{})
	s.seed(40, 20, 150, 30)
	cfg := fairness.DefaultConfig()
	eng := New(s.st, s.log, cfg)
	eng.Audit()
	state := eng.State()
	state.ConfigSig = exactKindSig
	o := BuildCheckpointOptions(nil, cfg, s.log.Len())
	o.Audit, o.AuditCursor = state.Encode(), state.Cursor
	man, err := s.st.Checkpoint(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadState(dir, man, cfg); err == nil {
		t.Fatalf("loaded a state signed %q under %q", exactKindSig, ConfigSig(cfg))
	}
	for i := 0; i < 20; i++ {
		s.mutate()
	}
	pass, full := New(s.st, s.log, cfg).AuditPass(), fairness.CheckAll(s.st, s.log, cfg)
	requirePass(t, 0, pass, full)
	for i := range full {
		if pass.Reports[i].Checked != full[i].Checked {
			t.Fatalf("%s: checked %d, full %d", full[i].Axiom, pass.Reports[i].Checked, full[i].Checked)
		}
	}
}

// ConfigSig must separate configs whose measure name or attribute-policy
// keys embed the signature's own separators: printed unescaped, each pair
// below signs alike. It ignores the candidate kind and the LSH seed, which
// decide nothing.
func TestConfigSigSeparatesCandidateBackends(t *testing.T) {
	withTolerance := func(ft map[string]float64) fairness.Config {
		cfg := fairness.DefaultConfig()
		cfg.AttrPolicy = &similarity.AttrPolicy{FieldTolerance: ft}
		return cfg
	}
	// The tail that follows the skill measure's name in an unescaped
	// signature of a zero-threshold config.
	const tail = "@0.9;attrT=0;access=0;reward=0;contrib=0;pay=0;exh=false"
	ignoring := fairness.Config{
		SkillMeasure: similarity.MeasureCosine, SkillThreshold: 0.9,
		AttrPolicy: &similarity.AttrPolicy{IgnoreFields: map[string]bool{tail: true}},
	}
	named := fairness.Config{
		SkillMeasure:   similarity.VectorMeasure{Name: "cosine" + tail + ";attr=0/0;ig.", Func: similarity.Cosine},
		SkillThreshold: 0.9,
	}
	sigs := map[string]string{
		"default":  ConfigSig(fairness.DefaultConfig()),
		"ftTwo":    ConfigSig(withTolerance(map[string]float64{"a": 0.5, "b": 0.5})),
		"ftOne":    ConfigSig(withTolerance(map[string]float64{"a=0.5;ft.b": 0.5})),
		"ignoring": ConfigSig(ignoring),
		"named":    ConfigSig(named),
	}
	for a, sa := range sigs {
		for b, sb := range sigs {
			if a != b && sa == sb {
				t.Fatalf("ConfigSig(%s) == ConfigSig(%s): %q", a, b, sa)
			}
		}
	}
	if a, b := ConfigSig(lshConfig(1)), ConfigSig(lshConfig(2)); a != sigs["default"] || b != a {
		t.Fatalf("the candidate kind or seed changed the signature: %q, %q, %q", sigs["default"], a, b)
	}
}
