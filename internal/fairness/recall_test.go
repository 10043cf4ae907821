package fairness

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/store"
)

// recallPopulation builds a jittered clustered platform: workers and tasks
// come in clusters around shared skill cores with per-entity perturbations
// (an extra skill, a nudged acceptance ratio), offers are biased so twins
// see different tasks, and contributions jitter a per-task template text
// and pay. The jitter matters: violating pairs sit near the similarity
// thresholds rather than being byte-identical, which is exactly where an
// approximate candidate source would lose recall first.
func recallPopulation(tb testing.TB, seed uint64, workers, tasks int) (*store.Store, *eventlog.Log) {
	tb.Helper()
	skillNames := make([]string, 30)
	for i := range skillNames {
		skillNames[i] = fmt.Sprintf("s%02d", i)
	}
	u := model.MustUniverse(skillNames...)
	st := store.New(u)
	rng := stats.NewRNG(seed)
	for _, r := range []model.RequesterID{"r1", "r2", "r3"} {
		if err := st.PutRequester(&model.Requester{ID: r}); err != nil {
			tb.Fatal(err)
		}
	}

	// Cluster skill cores: 6 skills each, disjoint enough that clusters
	// rarely collide above threshold.
	const clusters = 8
	cores := make([][]string, clusters)
	for c := range cores {
		perm := rng.Perm(len(skillNames))
		for _, k := range perm[:6] {
			cores[c] = append(cores[c], skillNames[k])
		}
	}
	clusterSkills := func(c int) model.SkillVector {
		names := append([]string(nil), cores[c]...)
		if rng.Bool(0.3) {
			names = append(names, skillNames[rng.Intn(len(skillNames))])
		}
		return u.MustVector(names...)
	}

	countries := []string{"jp", "fr", "br"}
	for i := 0; i < workers; i++ {
		c := i % clusters
		w := &model.Worker{
			ID:       model.WorkerID(fmt.Sprintf("w%05d", i)),
			Declared: model.Attributes{"country": model.Str(countries[c%len(countries)])},
			Computed: model.Attributes{
				// Same cluster-level base, jittered well inside the numeric
				// tolerance so attr similarity stays above threshold.
				model.AttrAcceptanceRatio: model.Num(0.5 + 0.04*float64(c%2) + 0.002*rng.Float64()),
			},
			Skills: clusterSkills(c),
		}
		if err := st.PutWorker(w); err != nil {
			tb.Fatal(err)
		}
	}
	rewards := []float64{1.0, 1.01, 3.0}
	for i := 0; i < tasks; i++ {
		c := i % clusters
		t := &model.Task{
			ID:        model.TaskID(fmt.Sprintf("t%05d", i)),
			Requester: []model.RequesterID{"r1", "r2", "r3"}[rng.Intn(3)],
			Skills:    clusterSkills(c),
			Reward:    rewards[rng.Intn(len(rewards))],
		}
		if err := st.PutTask(t); err != nil {
			tb.Fatal(err)
		}
	}

	// Offers biased by worker parity: even-index workers see most of their
	// cluster's tasks, odd-index workers a sliver — twin pairs then differ
	// in offer sets (Axiom 1) and similar tasks differ in audience
	// (Axiom 2).
	log := eventlog.New()
	for i := 0; i < workers; i++ {
		wid := model.WorkerID(fmt.Sprintf("w%05d", i))
		for j := i % clusters; j < tasks; j += clusters {
			if i%2 == 0 || rng.Bool(0.15) {
				log.MustAppend(eventlog.Event{
					Type: eventlog.TaskOffered, Worker: wid,
					Task: model.TaskID(fmt.Sprintf("t%05d", j)),
				})
			}
		}
	}

	// Contributions: a per-task template with word-level jitter, submitted
	// by several distinct workers at diverging pay (Axiom 3).
	fillers := []string{"carefully", "quickly", "reliably", "boldly"}
	cn := 0
	for i := 0; i < tasks; i++ {
		tid := model.TaskID(fmt.Sprintf("t%05d", i))
		template := fmt.Sprintf("the answer for task %d is computed %%s from the shared corpus of cluster %d", i, i%clusters)
		for k := 0; k < 3; k++ {
			cn++
			c := &model.Contribution{
				ID:     model.ContributionID(fmt.Sprintf("c%05d", cn)),
				Task:   tid,
				Worker: model.WorkerID(fmt.Sprintf("w%05d", (i+k*7)%workers)),
				Text:   fmt.Sprintf(template, fillers[rng.Intn(len(fillers))]),
				Paid:   []float64{0.5, 0.5, 2.0}[rng.Intn(3)],
			}
			if err := st.PutContribution(c); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return st, log
}

// violationKeys flattens a report set to axiom-tagged subject keys.
func violationKeys(reports []*Report) map[string]bool {
	keys := make(map[string]bool)
	for _, r := range reports {
		for _, v := range r.Violations {
			keys[fmt.Sprintf("%d|%s", v.Axiom, strings.Join(v.Subjects, "|"))] = true
		}
	}
	return keys
}

// TestLSHRecallBound is the recall test of the skill join: across five
// seeds at each of two population scales, it must report every violating
// pair the all-pairs scan reports and nothing else. The candidate source
// was once a MinHash/LSH index held to recall >= 0.98; the exact skill
// join that replaced it has recall 1.
func TestLSHRecallBound(t *testing.T) {
	for _, scale := range []struct{ workers, tasks int }{
		{120, 48},
		{400, 120},
	} {
		scale := scale
		t.Run(fmt.Sprintf("workers=%d", scale.workers), func(t *testing.T) {
			var exhTotal, found int
			for _, seed := range []uint64{1, 2, 3, 4, 5} {
				st, log := recallPopulation(t, seed, scale.workers, scale.tasks)
				exhCfg := DefaultConfig()
				exhCfg.Exhaustive = true

				exh := violationKeys(CheckAll(st, log, exhCfg))
				join := violationKeys(CheckAll(st, log, DefaultConfig()))
				if len(exh) == 0 {
					t.Fatalf("seed %d: the all-pairs scan found no violations — population generator is broken", seed)
				}
				for k := range join {
					if !exh[k] {
						t.Errorf("seed %d: the join reported %s, the all-pairs scan did not", seed, k)
					}
				}
				exhTotal += len(exh)
				for k := range exh {
					if join[k] {
						found++
					}
				}
			}
			recall := float64(found) / float64(exhTotal)
			t.Logf("recall %d/%d = %.4f", found, exhTotal, recall)
			if found != exhTotal {
				t.Fatalf("join recall %.4f below 1 (%d of %d violations)",
					recall, found, exhTotal)
			}
		})
	}
}
