package audit

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/fairness"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/wal"
)

// clusterPairs lists, once each and ordered lo < hi, the pairs of n subjects
// in clusters of size (every pair within a cluster).
func clusterPairs(names []string, size int) [][2]string {
	var out [][2]string
	for c := 0; c < len(names); c += size {
		for i := c; i < c+size && i < len(names); i++ {
			for j := i + 1; j < c+size && j < len(names); j++ {
				out = append(out, [2]string{names[i], names[j]})
			}
		}
	}
	return out
}

// standing lists a naive pair set in pairs() order (nil when empty).
func standing(model map[[2]string]bool) [][2]string {
	var out [][2]string
	for pr := range model {
		out = append(out, pr)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// TestPairSetMatchesNaiveSet drives seeded storms of dropDirty and add
// against a naive set of ordered pairs, and after every step checks the
// census count, the serialised pairs() (byte for byte, as the sidecar holds
// them) and that exactly the subjects with a pair hold a slot. Storms re-add
// standing pairs, dirty ids the census never saw, and dirty sets holding
// both endpoints of a pair.
func TestPairSetMatchesNaiveSet(t *testing.T) {
	names := make([]string, 24)
	for i := range names {
		names[i] = fmt.Sprintf("s%02d", i)
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ps := newPairSet()
		model := make(map[[2]string]bool)
		for step := 0; step < 200; step++ {
			if rng.Intn(2) == 0 {
				dirty := map[string]bool{fmt.Sprintf("ghost%d", rng.Intn(3)): true}
				for i := rng.Intn(4); i > 0; i-- {
					dirty[names[rng.Intn(len(names))]] = true
				}
				if st := standing(model); len(st) > 0 && rng.Intn(2) == 0 {
					pr := st[rng.Intn(len(st))] // both endpoints of one pair
					dirty[pr[0]], dirty[pr[1]] = true, true
				}
				ds := make([]string, 0, len(dirty))
				for d := range dirty {
					ds = append(ds, d)
				}
				sort.Strings(ds)
				ps.dropDirty(ds)
				for pr := range model {
					if dirty[pr[0]] || dirty[pr[1]] {
						delete(model, pr)
					}
				}
			} else {
				var add [][2]string
				for _, pr := range standing(model) { // re-adds
					if rng.Intn(3) == 0 {
						add = append(add, pr)
					}
				}
				for i := rng.Intn(8); i > 0; i-- {
					a, b := rng.Intn(len(names)), rng.Intn(len(names))
					if a == b {
						continue
					}
					pr := [2]string{names[min(a, b)], names[max(a, b)]}
					add = append(add, pr)
					model[pr] = true
				}
				rng.Shuffle(len(add), func(i, j int) { add[i], add[j] = add[j], add[i] })
				ps.add(add)
			}

			want := standing(model)
			subjects := make(map[string]bool)
			for _, pr := range want {
				subjects[pr[0]], subjects[pr[1]] = true, true
			}
			label := fmt.Sprintf("seed %d step %d", seed, step)
			if ps.count != len(model) {
				t.Fatalf("%s: count %d, want %d", label, ps.count, len(model))
			}
			if got := ps.pairs(); !slices.Equal(got, want) {
				t.Fatalf("%s: pairs() = %v, want %v", label, got, want)
			}
			if len(ps.slots) != len(subjects) {
				t.Fatalf("%s: %d subjects hold slots, want the %d with a pair", label, len(ps.slots), len(subjects))
			}
		}
	}
}

// BenchmarkPairSetDelta times one Axiom 1 census update at the audit_churn
// round shape: 30k subjects in clusters of 20 (about 19 partners each);
// each op evicts ~225 dirty subjects and folds back the pairs a delta pass
// re-examines, every pair touching a dirty subject.
func BenchmarkPairSetDelta(b *testing.B) {
	const n, size, dirtyN = 30_000, 20, 225
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("w%06d", i)
	}
	ps := newPairSet()
	ps.add(clusterPairs(names, size))
	want := ps.count

	rng := rand.New(rand.NewSource(1))
	type round struct {
		dirty []string
		pairs [][2]string
	}
	rounds := make([]round, 16)
	for r := range rounds {
		in := make(map[int]bool, dirtyN)
		for len(in) < dirtyN {
			in[rng.Intn(n)] = true
		}
		rd := &rounds[r]
		for i := range in {
			rd.dirty = append(rd.dirty, names[i])
			c := i / size * size
			for j := c; j < c+size; j++ {
				if j == i || (in[j] && j < i) {
					continue // each re-examined pair once
				}
				lo, hi := min(i, j), max(i, j)
				rd.pairs = append(rd.pairs, [2]string{names[lo], names[hi]})
			}
		}
		sort.Strings(rd.dirty)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd := &rounds[i%len(rounds)]
		ps.dropDirty(rd.dirty)
		ps.add(rd.pairs)
	}
	b.StopTimer()
	if ps.count != want {
		b.Fatalf("census holds %d pairs after the rounds, want %d", ps.count, want)
	}
}

// moveSkills gives n random workers a skill pattern other than the one they
// hold, so their Axiom 1–2 candidate pairs change.
func (s *scenario) moveSkills(n int) {
	for i := 0; i < n; i++ {
		w, err := s.st.Worker(s.randomWorker())
		if err != nil {
			s.tb.Fatal(err)
		}
		for {
			skills := s.u.MustVector(skillPatterns[s.rng.Intn(len(skillPatterns))]...)
			if !slices.Equal(skills, w.Skills) {
				w.Skills = skills
				break
			}
		}
		if err := s.st.UpdateWorker(w); err != nil {
			s.tb.Fatal(err)
		}
	}
}

// requireCensusPass holds a pass to CheckAll over the same state: reports,
// fingerprint and every axiom's Checked count.
func requireCensusPass(t *testing.T, label string, p Pass, st *store.Store, log *eventlog.Log, cfg fairness.Config) {
	t.Helper()
	full := fairness.CheckAll(st, log, cfg)
	requirePass(t, 0, p, full)
	for i := range p.Reports {
		if p.Reports[i].Checked != full[i].Checked {
			t.Fatalf("%s, %s: checked %d, CheckAll %d", label, p.Reports[i].Axiom, p.Reports[i].Checked, full[i].Checked)
		}
	}
}

// TestSkillMovesReachCensus moves workers' skills between delta passes and
// between a checkpoint and a warm Resume: the census of Axiom 1–2
// candidate pairs must follow every move, so each pass — delta, the first
// warm one, and delta passes after it — reports what CheckAll reports,
// fingerprint and Checked counts included, under the default config and
// the lsh kind.
func TestSkillMovesReachCensus(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  fairness.Config
	}{{"default", fairness.DefaultConfig()}, {"lsh", lshConfig(515)}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := wal.Options{SegmentBytes: 8 << 10}
			s := durableScenario(t, 53, dir, opts)
			s.seed(60, 30, 300, 50)
			eng := New(s.st, s.log, tc.cfg)
			requireCensusPass(t, "cold", eng.AuditPass(), s.st, s.log, tc.cfg)
			for round := 0; round < 4; round++ {
				s.moveSkills(6)
				for i := 0; i < 10; i++ {
					s.mutate()
				}
				requireCensusPass(t, fmt.Sprintf("delta %d", round), eng.AuditPass(), s.st, s.log, tc.cfg)
			}
			checkpointWithAudit(t, s.st, s.log, eng, tc.cfg)
			// Moves after the checkpoint: the sidecar's census is stale for
			// these workers, and the warm restart must notice.
			s.moveSkills(12)
			for i := 0; i < 10; i++ {
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
			warm := resumeFromManifest(t, dir, st2, log2, tc.cfg, man)
			requireCensusPass(t, "warm", warm.AuditPass(), st2, log2, tc.cfg)
			s2 := &scenario{tb: t, st: st2, log: log2, rng: stats.NewRNG(91), u: s.u, reqs: s.reqs}
			s2.wn, s2.tn, s2.cn = s.wn, s.tn, s.cn
			for round := 0; round < 3; round++ {
				s2.moveSkills(6)
				requireCensusPass(t, fmt.Sprintf("warm delta %d", round), warm.AuditPass(), st2, log2, tc.cfg)
			}
		})
	}
}
