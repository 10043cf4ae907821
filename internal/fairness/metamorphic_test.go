package fairness_test

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/fairness"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/store"
)

// rebuildTrace copies a trace into a fresh store and log: entities are
// inserted in a shuffled order (workers, tasks and contributions each), the
// order-free offer and flag events are shuffled too, every id is mapped
// through ren, and everything else — contents, and the order of the start,
// submit and interrupt events Axiom 5 reads — is kept.
func rebuildTrace(tb testing.TB, st *store.Store, log *eventlog.Log, seed uint64, ren func(string) string) (*store.Store, *eventlog.Log) {
	tb.Helper()
	rng := stats.NewRNG(seed)
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	out := store.NewSharded(st.Universe(), 3)
	for _, r := range st.Requesters() {
		r.ID = model.RequesterID(ren(string(r.ID)))
		must(out.PutRequester(r))
	}
	ws, ts, cs := st.Workers(), st.Tasks(), st.Contributions()
	shuffle(rng, ws)
	shuffle(rng, ts)
	shuffle(rng, cs)
	for _, w := range ws {
		w.ID = model.WorkerID(ren(string(w.ID)))
		must(out.PutWorker(w))
	}
	for _, t := range ts {
		t.ID, t.Requester = model.TaskID(ren(string(t.ID))), model.RequesterID(ren(string(t.Requester)))
		must(out.PutTask(t))
	}
	for _, c := range cs {
		c.ID = model.ContributionID(ren(string(c.ID)))
		c.Task, c.Worker = model.TaskID(ren(string(c.Task))), model.WorkerID(ren(string(c.Worker)))
		must(out.PutContribution(c))
	}
	var free, ordered []eventlog.Event
	for _, e := range log.Events() {
		e.Worker, e.Task = model.WorkerID(ren(string(e.Worker))), model.TaskID(ren(string(e.Task)))
		if e.Type == eventlog.TaskOffered || e.Type == eventlog.WorkerFlagged {
			free = append(free, e)
		} else {
			ordered = append(ordered, e)
		}
	}
	shuffle(rng, free)
	outLog := eventlog.New()
	for _, e := range append(free, ordered...) {
		outLog.MustAppend(e)
	}
	return out, outLog
}

// shuffle reorders s into the random permutation rng.Perm draws.
func shuffle[T any](rng *stats.RNG, s []T) {
	src := slices.Clone(s)
	for i, k := range rng.Perm(len(s)) {
		s[i] = src[k]
	}
}

// canonicalKeys renders each axiom's violations as sorted subject sets with
// their severities, mapping subjects through ren — the form in which a
// renamed or reordered trace must reproduce them.
func canonicalKeys(reps []*fairness.Report, ren func(string) string) [5][]string {
	var keys [5][]string
	for i, rep := range reps {
		for _, v := range rep.Violations {
			subjects := make([]string, len(v.Subjects))
			for k, s := range v.Subjects {
				subjects[k] = ren(s)
			}
			sort.Strings(subjects)
			keys[i] = append(keys[i], violationKey(subjects, v.Severity))
		}
		sort.Strings(keys[i])
	}
	return keys
}

// reverseID is an order-scrambling bijection on ids.
func reverseID(s string) string {
	b := []byte(s)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return "z" + string(b)
}

// TestCheckersMetamorphic checks relations the axioms imply between traces:
// reordering insertions or renaming ids through a bijection maps violations
// one-to-one; adding a worker similar to nobody changes no Axiom 1 verdict;
// and applying RepairAxiom1's grants and RepairAxiom3's top-ups leaves the
// reference with no Axiom 1 or Axiom 3 violation.
func TestCheckersMetamorphic(t *testing.T) {
	same := func(s string) string { return s }
	for _, seed := range []uint64{5, 6, 7} {
		st, log := refTrace(t, seed, 120, 40)
		exh := fairness.DefaultConfig()
		exh.Exhaustive = true
		for _, cfg := range []fairness.Config{fairness.DefaultConfig(), exh} {
			base := fairness.CheckAll(st, log, cfg)
			for name, ren := range map[string]func(string) string{"reordered": same, "renamed": reverseID} {
				st2, log2 := rebuildTrace(t, st, log, seed, ren)
				want, got := canonicalKeys(base, ren), canonicalKeys(fairness.CheckAll(st2, log2, cfg), same)
				for ax := range want {
					if w, g := strings.Join(want[ax], "\n"), strings.Join(got[ax], "\n"); w != g {
						t.Errorf("seed %d exhaustive=%v %s trace: Axiom %d violations do not map one-to-one (%d vs %d)",
							seed, cfg.Exhaustive, name, ax+1, len(want[ax]), len(got[ax]))
					}
				}
			}

			// A worker holding every skill is similar to nobody: cosine at
			// most 4/√48 ≈ 0.58 against any other worker's three or four
			// skills, 0 against the skill-less.
			st2, log2 := rebuildTrace(t, st, log, seed, same)
			u := st.Universe()
			loner := &model.Worker{ID: "loner", Declared: model.Attributes{"country": model.Str("jp")},
				Computed: model.Attributes{}, Skills: model.NewSkillVector(u.Size())}
			for i := range loner.Skills {
				loner.Skills[i] = true
			}
			if err := st2.PutWorker(loner); err != nil {
				t.Fatal(err)
			}
			for _, task := range st.Tasks()[:5] {
				appendOffer(log2, loner.ID, task.ID)
			}
			before, after := base[0], fairness.CheckAxiom1(st2, log2, cfg)
			if w, g := canonicalKeys(base, same)[0], canonicalKeys([]*fairness.Report{after}, same)[0]; strings.Join(w, "\n") != strings.Join(g, "\n") {
				t.Errorf("seed %d exhaustive=%v: a worker similar to nobody moved Axiom 1 verdicts (%d vs %d violations)",
					seed, cfg.Exhaustive, len(w), len(g))
			}
			if n := len(st.Workers()); cfg.Exhaustive && after.Checked != before.Checked+n {
				t.Errorf("seed %d: exhaustive checked %d after adding a worker, want %d", seed, after.Checked, before.Checked+n)
			}
		}

		// Repairs, judged by the reference rather than the repaired checker.
		cfg := fairness.DefaultConfig()
		st2, log2 := rebuildTrace(t, st, log, seed, same)
		ref := reference(st2, log2, cfg)
		if len(ref.keys[0]) == 0 || len(ref.keys[2]) == 0 {
			t.Fatalf("seed %d: the fixture has nothing for the repairs to fix", seed)
		}
		offers := map[model.WorkerID][]model.TaskID{}
		for _, e := range log2.ByType(eventlog.TaskOffered) {
			offers[e.Worker] = append(offers[e.Worker], e.Task)
		}
		for _, g := range fairness.RepairAxiom1(st2, offers, cfg) {
			appendOffer(log2, g.Worker, g.Task)
		}
		for _, adj := range fairness.RepairAxiom3(st2, cfg) {
			c, err := st2.Contribution(adj.Contribution)
			if err != nil {
				t.Fatal(err)
			}
			c.Paid += adj.Delta
			if err := st2.UpdateContribution(c); err != nil {
				t.Fatal(err)
			}
		}
		repaired := reference(st2, log2, cfg)
		if len(repaired.keys[0]) != 0 || len(repaired.keys[2]) != 0 {
			t.Errorf("seed %d: after repair the reference still finds %d Axiom 1 and %d Axiom 3 violations (first %q, %q)",
				seed, len(repaired.keys[0]), len(repaired.keys[2]), first(repaired.keys[0]), first(repaired.keys[2]))
		}
	}
}

// appendOffer logs an offer at the trace's current time.
func appendOffer(log *eventlog.Log, w model.WorkerID, t model.TaskID) {
	evs := log.Events()
	log.MustAppend(eventlog.Event{Type: eventlog.TaskOffered, Worker: w, Task: t, Time: evs[len(evs)-1].Time})
}

func first(keys []string) string {
	if len(keys) == 0 {
		return ""
	}
	return keys[0]
}
