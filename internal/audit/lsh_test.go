package audit

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/fairness"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/similarity"
	"repro/internal/store"
	"repro/internal/wal"
)

// lshConfig is the default config switched to the LSH candidate backend.
func lshConfig(seed uint64) fairness.Config {
	cfg := fairness.DefaultConfig()
	cfg.CandidateIndex = fairness.CandidateLSH
	cfg.LSHSeed = seed
	return cfg
}

// The engine's incrementally maintained LSH indexes must generate exactly
// the candidate sets the checkers' transient per-call indexes generate —
// signatures are pure functions of entity content plus the seed — so the
// incremental engine under LSH matches fairness.CheckAll under LSH across
// arbitrary mutation streams, violations and Checked counts alike.
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

// A warm restart under the LSH backend must equal a cold start: the
// serialised signatures restore the banded index without re-tokenising a
// single entity, and the first warm delta pass reports exactly what a cold
// full scan reports.
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

	// The saved image must actually carry the signatures (the warm path),
	// not just the kind tag.
	state := eng.State()
	if state.Index == nil || state.Index.Kind != fairness.CandidateLSH {
		t.Fatalf("state.Index = %+v, want LSH image", state.Index)
	}
	if len(state.Index.Workers.IDs) != s.wn || len(state.Index.Tasks.IDs) != s.tn {
		t.Fatalf("index image has %d workers / %d tasks, store has %d / %d",
			len(state.Index.Workers.IDs), len(state.Index.Tasks.IDs), s.wn, s.tn)
	}

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

// Delta passes refresh the LSH indexes through the same bulk install path as
// the cold build, signatures hashed and buckets moved on the pool: after
// seeded churn rounds at pool widths 1 and 2 (each round re-hashing well over
// par's inline threshold of workers and tasks), the engine's indexes hold
// exactly the signatures and candidate pairs of a fresh engine's cold build
// over the final store.
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
			requireSameLSHIndex(t, "worker", eng.workerIx, cold.workerIx)
			requireSameLSHIndex(t, "task", eng.taskIx, cold.taskIx)
		})
	}
}

// requireSameLSHIndex fails unless two LSH indexes hold the same ids with
// bit-identical band rows and enumerate the same candidate pairs.
func requireSameLSHIndex(t *testing.T, kind string, got, want similarity.CandidateIndex) {
	t.Helper()
	g, w := got.(*similarity.LSHIndex), want.(*similarity.LSHIndex)
	if g.Len() != w.Len() {
		t.Fatalf("%s index: %d entries, cold build %d", kind, g.Len(), w.Len())
	}
	gIDs, gRows, _ := g.BandRows()
	wIDs, wRows, _ := w.BandRows()
	if !slices.Equal(gIDs, wIDs) {
		t.Fatalf("%s index: ids differ from the cold build's", kind)
	}
	bands := w.Params().Bands
	for i, id := range wIDs {
		if !slices.Equal(gRows[i*bands:(i+1)*bands], wRows[i*bands:(i+1)*bands]) {
			t.Fatalf("%s index: band row of %s differs from the cold build's", kind, id)
		}
	}
	pairs := func(ix *similarity.LSHIndex) (out []string) {
		ix.Pairs(func(a, b string) { out = append(out, a+"|"+b) })
		sort.Strings(out)
		return out
	}
	if gp, wp := pairs(g), pairs(w); !slices.Equal(gp, wp) {
		t.Fatalf("%s index: %d candidate pairs, cold build %d", kind, len(gp), len(wp))
	}
}

// A warm resume restores each entity's token digest with its band row, so
// re-upserting every unchanged worker and task after Resume signs nothing
// and leaves the indexes equal to a cold build's. The same refresh after a
// resume from an image with zeroed digest runs signs every entity.
func TestResumeSkipsSigningUnchangedEntities(t *testing.T) {
	s := newScenario(t, 17)
	s.seed(80, 40, 200, 40)
	cfg := lshConfig(99)
	eng := New(s.st, s.log, cfg)
	eng.Audit()
	image := eng.State().Encode()
	workers, tasks := make(map[model.WorkerID]bool), make(map[model.TaskID]bool)
	for _, w := range s.st.Workers() {
		workers[w.ID] = true
	}
	for _, tk := range s.st.Tasks() {
		tasks[tk.ID] = true
	}
	signed := func(e *Engine) int {
		return e.workerIx.(*similarity.LSHIndex).Signed() + e.taskIx.(*similarity.LSHIndex).Signed()
	}
	cold := New(s.st, s.log, cfg)
	cold.Audit()
	for _, tc := range []struct {
		name string
		zero bool
		want int
	}{
		{"digests restored", false, 0},
		{"digests zeroed", true, len(workers) + len(tasks)},
	} {
		state, err := DecodeState(image)
		if err != nil {
			t.Fatal(err)
		}
		if tc.zero {
			clear(state.Index.Workers.Digests)
			clear(state.Index.Tasks.Digests)
		}
		warm, err := Resume(s.st, s.log, cfg, state)
		if err != nil {
			t.Fatal(err)
		}
		before := signed(warm)
		warm.refreshIndexes(workers, tasks)
		if got := signed(warm) - before; got != tc.want {
			t.Fatalf("%s: re-upserting %d unchanged entities signed %d, want %d",
				tc.name, len(workers)+len(tasks), got, tc.want)
		}
		requireSameLSHIndex(t, "worker", warm.workerIx, cold.workerIx)
		requireSameLSHIndex(t, "task", warm.taskIx, cold.taskIx)
	}
}

// A state saved under one LSH seed resumed under another must fall back to
// a from-scratch index build (stored band rows are useless under a
// different hash family) and still audit correctly.
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
	// Another seed, then (same seed) a band-key run one key short: both
	// must route to buildIndexes without error.
	cfg2 := lshConfig(2)
	warm, err := Resume(s.st, s.log, cfg2, state)
	if err != nil {
		t.Fatal(err)
	}
	state.Index.Workers.Rows = state.Index.Workers.Rows[1:]
	short, err := Resume(s.st, s.log, cfg, state)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.mutate()
	}
	requireEquivalent(t, 0, warm.Audit(), fairness.CheckAll(s.st, s.log, cfg2))
	requireEquivalent(t, 1, short.Audit(), fairness.CheckAll(s.st, s.log, cfg))
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
