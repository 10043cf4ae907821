package fairness_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/fairness"
	"repro/internal/model"
	"repro/internal/similarity"
	"repro/internal/store"
)

// clusteredTrace builds a platform shaped like crowdbench's audit_churn
// population: 100 popular and 600 niche skills; clusters of 20 workers
// sharing a 3-skill niche core (dealt without replacement while the pool
// lasts, then drawn at random), each worker holding one of its cluster's
// two popular skills and, one time in four, a random niche skill; two
// tasks per cluster on the core, a reward tier apart in pairs; every worker
// offered their cluster's two tasks, with a sparse dropout.
func clusteredTrace(tb testing.TB, seed int64, workers int) (*store.Store, *eventlog.Log) {
	tb.Helper()
	const popular, niche, size = 100, 600, 20
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, popular+niche)
	for i := range names {
		names[i] = fmt.Sprintf("s%03d", i)
	}
	u := model.MustUniverse(names...)
	st := store.New(u)
	reqs := []model.RequesterID{"r1", "r2", "r3"}
	for _, r := range reqs {
		if err := st.PutRequester(&model.Requester{ID: r}); err != nil {
			tb.Fatal(err)
		}
	}
	clusters := (workers + size - 1) / size
	deal := rng.Perm(niche)
	cores := make([][]int, clusters)
	for c := range cores {
		for j := 0; j < 3; j++ {
			k := rng.Intn(niche)
			if next := 3*c + j; next < niche {
				k = deal[next]
			}
			cores[c] = append(cores[c], popular+k)
		}
	}
	log := eventlog.New()
	taskID := func(c, d int) model.TaskID { return model.TaskID(fmt.Sprintf("t%05d-%d", c, d)) }
	for c, core := range cores {
		for d := 0; d < 2; d++ {
			v := model.NewSkillVector(len(names))
			for _, k := range core {
				v[k] = true
			}
			if err := st.PutTask(&model.Task{ID: taskID(c, d), Requester: reqs[(c+d)%len(reqs)], Skills: v, Reward: []float64{1, 1.005}[d]}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	for i := 0; i < workers; i++ {
		c := i / size
		v := model.NewSkillVector(len(names))
		for _, k := range cores[c] {
			v[k] = true
		}
		v[(2*c+rng.Intn(2))%popular] = true
		if rng.Intn(4) == 0 {
			v[popular+rng.Intn(niche)] = true
		}
		id := model.WorkerID(fmt.Sprintf("w%06d", i))
		if err := st.PutWorker(&model.Worker{
			ID:       id,
			Declared: model.Attributes{"country": model.Str([]string{"jp", "fr", "br"}[c%3])},
			Computed: model.Attributes{model.AttrAcceptanceRatio: model.Num(0.4 + 0.01*float64(c%40) + 0.004*rng.Float64())},
			Skills:   v,
		}); err != nil {
			tb.Fatal(err)
		}
		for d := 0; d < 2; d++ {
			if d == 1 && i%100 == 0 {
				continue
			}
			log.MustAppend(eventlog.Event{Type: eventlog.TaskOffered, Worker: id, Task: taskID(c, d)})
		}
	}
	return st, log
}

// skillPremisePairs counts, the naive O(n²) way, the worker pairs whose
// skills meet cfg's measure at its threshold, and the task pairs of
// distinct requesters that do: what Axioms 1 and 2 quantify over.
func skillPremisePairs(st *store.Store, m similarity.VectorMeasure, th float64) (workers, tasks int) {
	ws, ts := st.Workers(), st.Tasks()
	for i := range ws {
		for _, b := range ws[i+1:] {
			if m.Func(ws[i].SkillBits(), b.SkillBits()) >= th {
				workers++
			}
		}
	}
	for i := range ts {
		for _, b := range ts[i+1:] {
			if ts[i].Requester != b.Requester && m.Func(ts[i].SkillBits(), b.SkillBits()) >= th {
				tasks++
			}
		}
	}
	return workers, tasks
}

// TestJoinMatchesExhaustive holds the skill join, the one candidate index,
// to the all-pairs scan: CheckAll reports the same violations bit for bit
// (subjects, detail and severity) on every axiom, over the reference
// fixtures and over a 5k-worker clustered population like the bench's, and
// its Axiom 1/2 Checked equals the naive count of pairs that meet the skill
// premise. Axioms 3–5 do not depend on the candidate source, Checked
// included.
func TestJoinMatchesExhaustive(t *testing.T) {
	type fixture struct {
		name string
		st   *store.Store
		log  *eventlog.Log
	}
	var fixtures []fixture
	for _, sc := range []struct {
		seed           uint64
		workers, tasks int
	}{{1, 50, 20}, {2, 90, 40}, {3, 140, 50}, {4, 200, 60}} {
		st, log := refTrace(t, sc.seed, sc.workers, sc.tasks)
		fixtures = append(fixtures, fixture{fmt.Sprintf("refTrace seed %d", sc.seed), st, log})
	}
	st, log := clusteredTrace(t, 7, 5000)
	fixtures = append(fixtures, fixture{"clustered 5k", st, log})

	for _, fx := range fixtures {
		joinCfg := fairness.DefaultConfig()
		exhCfg := joinCfg
		exhCfg.Exhaustive = true
		join, exh := fairness.CheckAll(fx.st, fx.log, joinCfg), fairness.CheckAll(fx.st, fx.log, exhCfg)
		for ax := range exh {
			if !reflect.DeepEqual(join[ax].Violations, exh[ax].Violations) {
				t.Fatalf("%s, %s: the join reported %d violations, the all-pairs scan %d",
					fx.name, exh[ax].Axiom, len(join[ax].Violations), len(exh[ax].Violations))
			}
			if ax >= 2 && join[ax].Checked != exh[ax].Checked {
				t.Fatalf("%s, %s: checked %d under the join, %d under the all-pairs scan",
					fx.name, exh[ax].Axiom, join[ax].Checked, exh[ax].Checked)
			}
		}
		if len(exh[0].Violations) == 0 {
			t.Fatalf("%s: no Axiom 1 violation to compare", fx.name)
		}
		w, ts := skillPremisePairs(fx.st, similarity.MeasureCosine, 0.9)
		if join[0].Checked != w || join[1].Checked != ts {
			t.Fatalf("%s: the join checked %d worker and %d task pairs, %d and %d meet the skill premise",
				fx.name, join[0].Checked, join[1].Checked, w, ts)
		}
		if exh[0].Checked < w {
			t.Fatalf("%s: the all-pairs scan checked %d worker pairs, fewer than the %d similar ones", fx.name, exh[0].Checked, w)
		}
	}
}

// Hamming counts the skills two workers both lack as agreement, so
// workers with no skill in common can be similar: w1 {s01} and w2 {s02}
// agree on 18 of 20 positions. The checker may not drop them: with no
// prefix bound, it examines every pair, like the exhaustive scan.
func TestHammingPairsWithoutSharedSkillsAreChecked(t *testing.T) {
	names := make([]string, 20)
	for i := range names {
		names[i] = fmt.Sprintf("s%02d", i+1)
	}
	u := model.MustUniverse(names...)
	st := store.New(u)
	if err := st.PutRequester(&model.Requester{ID: "r1"}); err != nil {
		t.Fatal(err)
	}
	for _, w := range []*model.Worker{
		{ID: "w1", Skills: u.MustVector("s01")},
		{ID: "w2", Skills: u.MustVector("s02")},
	} {
		if err := st.PutWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	log := eventlog.New()
	for _, o := range [][2]string{{"w1", "t1"}, {"w1", "t2"}, {"w2", "t1"}} {
		for _, id := range []string{"t1", "t2"} {
			if st.PeekTask(model.TaskID(id)) == nil {
				if err := st.PutTask(&model.Task{ID: model.TaskID(id), Requester: "r1", Skills: u.MustVector("s03"), Reward: 1}); err != nil {
					t.Fatal(err)
				}
			}
		}
		log.MustAppend(eventlog.Event{Type: eventlog.TaskOffered, Worker: model.WorkerID(o[0]), Task: model.TaskID(o[1])})
	}
	cfg := fairness.DefaultConfig()
	cfg.SkillMeasure = similarity.MeasureHamming
	exh := cfg
	exh.Exhaustive = true
	got, want := fairness.CheckAxiom1(st, log, cfg), fairness.CheckAxiom1(st, log, exh)
	if len(want.Violations) != 1 || !reflect.DeepEqual(want.Violations[0].Subjects, []string{"w1", "w2"}) {
		t.Fatalf("exhaustive scan reported %v, want [w1 w2]", want.Violations)
	}
	if !reflect.DeepEqual(got.Violations, want.Violations) || got.Checked != want.Checked {
		t.Errorf("reported %v (checked %d), exhaustive %v (checked %d)",
			got.Violations, got.Checked, want.Violations, want.Checked)
	}
}
