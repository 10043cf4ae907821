package fairness

import (
	"strings"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/workload"
)

// deltaTrace builds a store + biased offer log with genuine Axiom 1/2
// violations (every 7th qualified worker is skipped).
func deltaTrace(tb testing.TB, workers, tasks int, seed uint64) (*store.Store, *eventlog.Log) {
	tb.Helper()
	rng := stats.NewRNG(seed)
	pop := workload.GeneratePopulation(workload.PopulationSpec{
		Workers: workers, Archetypes: 6,
	}, rng.Split())
	batch := workload.GenerateTasks(workload.TaskSpec{
		Tasks: tasks, Requesters: 4, Quota: 2,
	}, pop, rng.Split())
	st := store.New(pop.Universe)
	for _, r := range batch.Requesters {
		if err := st.PutRequester(r); err != nil {
			tb.Fatal(err)
		}
	}
	for _, w := range pop.Workers {
		if err := st.PutWorker(w); err != nil {
			tb.Fatal(err)
		}
	}
	for _, t := range batch.Tasks {
		if err := st.PutTask(t); err != nil {
			tb.Fatal(err)
		}
	}
	log := eventlog.New()
	for wi, w := range pop.Workers {
		if wi%7 == 0 {
			continue
		}
		for _, t := range batch.Tasks {
			if w.Skills.Covers(t.Skills) {
				log.MustAppend(eventlog.Event{Type: eventlog.TaskOffered, Worker: w.ID, Task: t.ID})
			}
		}
	}
	// Contributions with uneven pay for Axiom 3 material.
	seq := 0
	for ti, t := range batch.Tasks {
		if ti%3 != 0 {
			continue
		}
		for wi, w := range pop.Workers {
			if wi > 3 {
				break
			}
			seq++
			c := &model.Contribution{
				ID: model.ContributionID(string(rune('a'+seq%26)) + string(t.ID) + string(w.ID)), Task: t.ID, Worker: w.ID,
				Text: "identical answer text", Quality: 0.8, Accepted: true,
				Paid: float64(wi) * 0.5,
			}
			if err := st.PutContribution(c); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return st, log
}

func requireSameReport(t *testing.T, name string, full, delta *Report) {
	t.Helper()
	if full.Checked != delta.Checked {
		t.Errorf("%s: checked %d (full) vs %d (all-dirty delta)", name, full.Checked, delta.Checked)
	}
	if len(full.Violations) != len(delta.Violations) {
		t.Fatalf("%s: %d violations (full) vs %d (delta)", name, len(full.Violations), len(delta.Violations))
	}
	for i := range full.Violations {
		if full.Violations[i].String() != delta.Violations[i].String() {
			t.Fatalf("%s: violation %d differs:\nfull:  %s\ndelta: %s",
				name, i, full.Violations[i], delta.Violations[i])
		}
	}
}

// Scoped passes must cover the full scan exactly — the cold-start and
// delta contract the incremental audit engine relies on. Auditing every id
// on its own (each a one-id dirty set) finds every full-scan violation and
// nothing else, and examines each pair once from each endpoint, so the pair
// checks sum to twice the full scan's; per-task and per-worker verdicts sum
// to the full scan's.
func TestDeltaAllDirtyMatchesFull(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		st, log := deltaTrace(t, 120, 40, seed)
		exh := DefaultConfig()
		exh.Exhaustive = true
		for _, cfg := range []Config{DefaultConfig(), exh} {
			var one1, one2 []*Report
			log.ReadLedger(func(d *eventlog.Ledger) {
				for _, id := range st.WorkerIDs() {
					one1 = append(one1, Axiom1Pairs(st, d, cfg, []model.WorkerID{id}))
				}
				for _, id := range st.TaskIDs() {
					one2 = append(one2, Axiom2Pairs(st, d, cfg, []model.TaskID{id}))
				}
			})
			requireCovers(t, "axiom1", CheckAxiom1(st, log, cfg), one1, 2)
			requireCovers(t, "axiom2", CheckAxiom2(st, log, cfg), one2, 2)
		}
		cfg := DefaultConfig()
		var one3, one4 []*Report
		for _, id := range st.TaskIDs() {
			one3 = append(one3, foldTaskAudits(CheckAxiom3Tasks(st, cfg, []model.TaskID{id})))
		}
		log.ReadLedger(func(d *eventlog.Ledger) {
			for _, id := range st.WorkerIDs() {
				one4 = append(one4, foldWorkerAudits(CheckAxiom4Workers(st, d, []model.WorkerID{id})))
			}
		})
		requireCovers(t, "axiom3", CheckAxiom3(st, cfg), one3, 1)
		requireCovers(t, "axiom4", CheckAxiom4(st, log), one4, 1)
	}
}

// requireCovers checks that the scoped reports together find exactly the
// full report's violations and examine mult times its units.
func requireCovers(t *testing.T, name string, full *Report, scoped []*Report, mult int) {
	t.Helper()
	union := &Report{Axiom: full.Axiom}
	seen := make(map[string]bool)
	for _, r := range scoped {
		union.Checked += r.Checked
		for _, v := range r.Violations {
			if !seen[v.String()] {
				seen[v.String()] = true
				union.Violations = append(union.Violations, v)
			}
		}
	}
	sortViolations(union.Violations)
	want := *full
	want.Checked *= mult
	requireSameReport(t, name, &want, union)
}

// A violation found by the full scan must be found by a delta pass whose
// dirty set contains either endpoint; an empty dirty set audits nothing.
func TestDeltaDirtySubsets(t *testing.T) {
	st, log := deltaTrace(t, 90, 30, 3)
	cfg := DefaultConfig()
	full := CheckAxiom1(st, log, cfg)
	if len(full.Violations) == 0 {
		t.Fatal("trace produced no Axiom 1 violations; test needs material")
	}
	v := full.Violations[0]
	var empty, delta *Report
	log.ReadLedger(func(d *eventlog.Ledger) {
		empty = Axiom1Pairs(st, d, cfg, nil)
		delta = Axiom1Pairs(st, d, cfg, []model.WorkerID{model.WorkerID(v.Subjects[0])})
	})
	if empty.Checked != 0 || len(empty.Violations) != 0 {
		t.Fatalf("empty dirty set still audited: %v", empty)
	}
	found := false
	for _, dv := range delta.Violations {
		if dv.String() == v.String() {
			found = true
		}
		// Every delta violation must touch the dirty worker.
		if dv.Subjects[0] != v.Subjects[0] && dv.Subjects[1] != v.Subjects[0] {
			t.Fatalf("delta reported a clean pair: %s", dv)
		}
	}
	if !found {
		t.Fatalf("delta with dirty %s missed violation %s", v.Subjects[0], v)
	}
	if delta.Checked >= full.Checked {
		t.Fatalf("delta checked %d pairs, full %d — no pruning happened", delta.Checked, full.Checked)
	}
}

// Axiom 5 over a trace folded in two parts, with a report read between
// them, matches the batch checker over the same trace folded at once.
func TestAxiom5FoldMatchesBatch(t *testing.T) {
	var events []eventlog.Event
	ev := func(typ eventlog.Type, w, task string, tm int64) {
		events = append(events, eventlog.Event{Type: typ, Worker: model.WorkerID(w), Task: model.TaskID(task), Time: tm})
	}
	ev(eventlog.TaskStarted, "w1", "t1", 1)
	ev(eventlog.TaskStarted, "w2", "t1", 1)
	ev(eventlog.TaskInterrupted, "w1", "t1", 3)
	ev(eventlog.TaskSubmitted, "w2", "t1", 4)
	ev(eventlog.TaskStarted, "w3", "t2", 5)
	ev(eventlog.TaskInterrupted, "w3", "t2", 6)
	ev(eventlog.TaskInterrupted, "w3", "t2", 7) // double interrupt: second is a no-op

	whole := eventlog.New()
	if err := whole.AppendBatch(append([]eventlog.Event(nil), events...)); err != nil {
		t.Fatal(err)
	}
	batch := CheckAxiom5(whole)
	mid := len(events) / 2
	split := eventlog.New()
	if err := split.AppendBatch(append([]eventlog.Event(nil), events[:mid]...)); err != nil {
		t.Fatal(err)
	}
	_ = CheckAxiom5(split) // a mid-trace report must not disturb the fold
	if err := split.AppendBatch(append([]eventlog.Event(nil), events[mid:]...)); err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, "axiom5", batch, CheckAxiom5(split))
	if batch.Checked != 3 || len(batch.Violations) != 2 {
		t.Fatalf("unexpected batch report: %v", batch)
	}
}

// Negative threshold fields are the explicit-zero sentinel: AccessThreshold
// -1 must behave as 0 (no overlap demanded at all), not as the 1.0 default
// that plain 0 selects.
func TestConfigExplicitZeroSentinel(t *testing.T) {
	s := twinStore(t)
	log := offerLog(map[string][]string{
		"w1": {"t1", "t2"},
		"w2": {}, // twin of w1 with no access at all
	})
	def := DefaultConfig()
	if rep := CheckAxiom1(s, log, def); len(rep.Violations) != 1 {
		t.Fatalf("default config: violations = %v", rep.Violations)
	}
	zero := DefaultConfig()
	zero.AccessThreshold = -1 // explicit 0: any overlap, even none, passes
	if rep := CheckAxiom1(s, log, zero); len(rep.Violations) != 0 {
		t.Fatalf("explicit-zero access threshold still violated: %v", rep.Violations)
	}
	// Explicit-zero pay tolerance demands exactly equal pay.
	exact := DefaultConfig()
	exact.PayTolerance = -1
	for _, c := range []*model.Contribution{
		{ID: "c1", Task: "t1", Worker: "w1", Text: "same answer", Quality: 0.9, Accepted: true, Paid: 1.0},
		{ID: "c2", Task: "t1", Worker: "w2", Text: "same answer", Quality: 0.9, Accepted: true, Paid: 1.005},
	} {
		if err := s.PutContribution(c); err != nil {
			t.Fatal(err)
		}
	}
	if rep := CheckAxiom3(s, exact); len(rep.Violations) != 1 {
		t.Fatalf("exact pay tolerance: violations = %v", rep.Violations)
	}
	// The 0.5% gap is inside the default 1% tolerance.
	if rep := CheckAxiom3(s, def); len(rep.Violations) != 0 {
		t.Fatalf("default pay tolerance: violations = %v", rep.Violations)
	}
}

// Axiom 1 violation details must report deduplicated offer-set sizes:
// repeating the same offer is not more access.
func TestAxiom1DetailDeduplicatesOfferCounts(t *testing.T) {
	s := twinStore(t)
	log := offerLog(map[string][]string{
		"w1": {"t1", "t2", "t1", "t1", "t2"}, // 2 distinct tasks offered 5 times
		"w2": {"t1"},
	})
	rep := CheckAxiom1(s, log, DefaultConfig())
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %v", rep.Violations)
	}
	want := "(|offers| 2 vs 1)"
	if !strings.Contains(rep.Violations[0].Detail, want) {
		t.Fatalf("detail %q does not contain %q", rep.Violations[0].Detail, want)
	}
}
