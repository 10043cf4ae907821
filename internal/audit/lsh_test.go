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
// reports, and the warm engine's joins hold exactly a cold build's pairs.
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
	cold := New(st2, log2, cfg)
	cold.buildIndexes()
	requireSameJoin(t, "worker", warm.workerIx, cold.workerIx)
	requireSameJoin(t, "task", warm.taskIx, cold.taskIx)
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
// engine's joins hold exactly the entities and pairs of a fresh engine's
// cold build over the final store.
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
			requireSameJoin(t, "worker", eng.workerIx, cold.workerIx)
			requireSameJoin(t, "task", eng.taskIx, cold.taskIx)
		})
	}
}

// requireSameJoin fails unless two skill joins hold the same number of
// entities and enumerate the same pairs.
func requireSameJoin(t *testing.T, kind string, got, want fairness.SkillIndex) {
	t.Helper()
	g, w := got.(*similarity.SkillJoin), want.(*similarity.SkillJoin)
	if g.Len() != w.Len() {
		t.Fatalf("%s join: %d entries, cold build %d", kind, g.Len(), w.Len())
	}
	pairs := func(x *similarity.SkillJoin) (out []string) {
		x.Pairs(func(a, b string) { out = append(out, a+"|"+b) })
		sort.Strings(out)
		return out
	}
	if gp, wp := pairs(g), pairs(w); !slices.Equal(gp, wp) {
		t.Fatalf("%s join: %d pairs, cold build %d", kind, len(gp), len(wp))
	}
}

// A state saved under one LSH seed resumed under another audits exactly
// like a cold start under the other: the seed decides no candidate, and
// Resume builds the joins from the store whatever the image held.
func TestResumeLSHSeedMismatchFallsBack(t *testing.T) {
	s := newScenario(t, 8)
	s.seed(40, 20, 150, 30)
	cfg := lshConfig(1)
	eng := New(s.st, s.log, cfg)
	eng.Audit()
	state, err := DecodeState(eng.State().Encode())
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := lshConfig(2)
	warm, err := Resume(s.st, s.log, cfg2, state)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.mutate()
	}
	requireEquivalent(t, 0, warm.Audit(), fairness.CheckAll(s.st, s.log, cfg2))
}

// ConfigSig must separate configs that differ only in candidate backend or
// LSH seed — resuming LSH-computed verdicts under exact (or another seed)
// must read as a config change, not a warm match. It must also separate
// configs whose measure name or attribute-policy keys embed the
// signature's own separators: printed unescaped, each pair below signs
// alike.
func TestConfigSigSeparatesCandidateBackends(t *testing.T) {
	withTolerance := func(ft map[string]float64) fairness.Config {
		cfg := fairness.DefaultConfig()
		cfg.AttrPolicy = &similarity.AttrPolicy{FieldTolerance: ft}
		return cfg
	}
	// The tail that follows the skill measure's name in an unescaped
	// signature of a zero-threshold exact config.
	const tail = "@0.9;attrT=0;access=0;reward=0;contrib=0;pay=0;exh=false;cand=exact"
	ignoring := fairness.Config{
		SkillMeasure: similarity.MeasureCosine, SkillThreshold: 0.9,
		AttrPolicy: &similarity.AttrPolicy{IgnoreFields: map[string]bool{tail: true}},
	}
	named := fairness.Config{
		SkillMeasure:   similarity.VectorMeasure{Name: "cosine" + tail + ";attr=0/0;ig.", Func: similarity.Cosine},
		SkillThreshold: 0.9,
	}
	sigs := map[string]string{
		"exact":    ConfigSig(fairness.DefaultConfig()),
		"lshA":     ConfigSig(lshConfig(1)),
		"lshB":     ConfigSig(lshConfig(2)),
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
}
