package experiments

import (
	"fmt"
	"time"

	"repro/internal/eventlog"
	"repro/internal/fairness"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/transparency"
	"repro/internal/workload"
)

// E7Params sizes the checker-scalability experiment.
type E7Params struct {
	// Sizes is the worker-count sweep.
	Sizes []int
	Seed  uint64
}

// DefaultE7Params returns the scale used in EXPERIMENTS.md.
func DefaultE7Params(seed uint64) E7Params {
	return E7Params{Sizes: []int{100, 300, 1000, 3000}, Seed: seed}
}

// e7Trace builds a store + offer log at a given worker scale with an
// assignment that produces some Axiom-1 violations (archetype-biased
// offers).
func e7Trace(workers int, seed uint64) (*store.Store, *eventlog.Log) {
	rng := stats.NewRNG(seed + 0xe7)
	pop := workload.GeneratePopulation(workload.PopulationSpec{
		Workers: workers, Archetypes: 8,
	}, rng.Split())
	batch := workload.GenerateTasks(workload.TaskSpec{Tasks: workers / 4, Quota: 2}, pop, rng.Split())
	st := store.New(pop.Universe)
	for _, r := range batch.Requesters {
		mustDo(st.PutRequester(r))
	}
	for _, w := range pop.Workers {
		mustDo(st.PutWorker(w))
	}
	for _, t := range batch.Tasks {
		mustDo(st.PutTask(t))
	}
	log := eventlog.New()
	// Offer each task to qualified workers, skipping every 53rd worker —
	// a sparse access bias the checker must find. (Density matters: a
	// pathologically biased platform makes violation *reporting*, not pair
	// *checking*, the bottleneck, which is not what this experiment
	// measures.)
	for wi, w := range pop.Workers {
		if wi%53 == 0 {
			continue
		}
		for _, t := range batch.Tasks {
			if w.Skills.Covers(t.Skills) {
				log.MustAppend(eventlog.Event{Type: eventlog.TaskOffered, Worker: w.ID, Task: t.ID})
			}
		}
	}
	return st, log
}

// E7CheckScale measures the fairness-check benchmark of §3.3.1: Axiom-1
// audit cost at increasing scale, exhaustive O(n²) pair scan vs the skill
// inverted-index pruning. Both variants must find the same violations; the
// table reports pair counts and wall time.
func E7CheckScale(p E7Params) *Table {
	t := &Table{
		ID:      "E7",
		Title:   "Axiom-1 checker scalability: exhaustive vs index-pruned pair generation",
		Columns: []string{"workers", "mode", "pairs-checked", "violations", "wall-time"},
		Notes: []string{
			"expected shape: identical violation counts; the indexed mode generates ~1/k of",
			"the candidate pairs (k = archetype count). Wall-time gains are bounded: truly",
			"similar pairs must be fully checked by both modes and dominate the audit cost,",
			"so pruning pays off exactly in proportion to how dissimilar the population is.",
		},
	}
	for _, n := range p.Sizes {
		st, log := e7Trace(n, p.Seed)
		for _, exhaustive := range []bool{true, false} {
			cfg := fairness.DefaultConfig()
			cfg.Exhaustive = exhaustive
			start := time.Now()
			rep := fairness.CheckAxiom1(st, log, cfg)
			elapsed := time.Since(start)
			mode := "indexed"
			if exhaustive {
				mode = "exhaustive"
			}
			t.AddRow(n, mode, rep.Checked, len(rep.Violations), elapsed.Round(time.Microsecond).String())
		}
	}
	return t
}

// E8Params sizes the rule-engine throughput experiment.
type E8Params struct {
	// RuleCounts is the policy-size sweep.
	RuleCounts []int
	// Evaluations per measurement.
	Evaluations int
	Seed        uint64
}

// DefaultE8Params returns the scale used in EXPERIMENTS.md.
func DefaultE8Params(seed uint64) E8Params {
	return E8Params{RuleCounts: []int{1, 10, 50, 100}, Evaluations: 2000, Seed: seed}
}

// SyntheticPolicy builds a well-formed policy with n rules cycling over the
// standard catalogue with a mix of triggers and conditions; used by E8 and
// the engine benchmarks.
func SyntheticPolicy(n int) *transparency.Policy {
	cat := transparency.StandardCatalogue()
	entries := cat.Entries()
	pol := &transparency.Policy{Name: fmt.Sprintf("synthetic-%d", n)}
	triggers := []transparency.Trigger{
		transparency.TriggerAlways, transparency.TriggerTaskView, transparency.TriggerPayment,
	}
	for i := 0; i < n; i++ {
		e := entries[i%len(entries)]
		r := &transparency.Rule{
			Field: e.Ref,
			To:    transparency.AudienceWorkers,
			On:    triggers[i%len(triggers)],
		}
		if i%4 == 3 {
			r.When = &transparency.BinaryExpr{
				Op:    ">=",
				Left:  &transparency.FieldExpr{Ref: transparency.FieldRef{Subject: transparency.SubjectWorker, Field: "completed"}},
				Right: &transparency.NumberExpr{Value: float64(i % 20)},
			}
		}
		pol.Rules = append(pol.Rules, r)
	}
	return pol
}

// E8Context returns the evaluation context used by E8 and the benchmarks.
func E8Context() *transparency.Context {
	return transparency.NewContext().
		SetNum(transparency.SubjectWorker, "completed", 12).
		SetNum(transparency.SubjectWorker, "performance", 0.8).
		SetNum(transparency.SubjectWorker, "acceptance_ratio", 0.9).
		SetNum(transparency.SubjectTask, "reward", 1.5)
}

// E8RuleEngine measures the declarative engine of §3.3.2: parse cost (via
// the canonical round-trip source) and evaluation throughput at increasing
// policy sizes.
func E8RuleEngine(p E8Params) *Table {
	t := &Table{
		ID:      "E8",
		Title:   "Declarative transparency rule engine throughput",
		Columns: []string{"rules", "parse-time", "evals", "eval-time-total", "evals-per-sec"},
		Notes: []string{
			"expected shape: parse and eval cost grow linearly in rule count;",
			"throughput stays far above any plausible platform event rate.",
		},
	}
	cat := transparency.StandardCatalogue()
	for _, n := range p.RuleCounts {
		pol := SyntheticPolicy(n)
		src := pol.String()

		start := time.Now()
		parsed, err := transparency.Parse(src)
		if err != nil {
			panic(err)
		}
		if errs := cat.Check(parsed); len(errs) > 0 {
			panic(errs[0])
		}
		parseTime := time.Since(start)

		ctx := E8Context()
		start = time.Now()
		for i := 0; i < p.Evaluations; i++ {
			if _, err := parsed.Evaluate(cat, ctx, transparency.AudienceWorkers, transparency.TriggerTaskView); err != nil {
				panic(err)
			}
		}
		evalTime := time.Since(start)
		perSec := float64(p.Evaluations) / evalTime.Seconds()
		t.AddRow(n, parseTime.Round(time.Microsecond).String(), p.Evaluations,
			evalTime.Round(time.Microsecond).String(), fmt.Sprintf("%.0f", perSec))
	}
	return t
}
