package experiments

import (
	"fmt"

	"repro/internal/assign"
	"repro/internal/fairness"
	"repro/internal/model"
	"repro/internal/pay"
	"repro/internal/similarity"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/workload"
)

// E9Params sizes the ablation experiment.
type E9Params struct {
	Workers int
	Tasks   int
	// Lambdas is the tradeoff sweep (default 0, 0.25, 0.5, 0.75, 1).
	Lambdas []float64
	Seed    uint64
}

// DefaultE9Params returns the scale used in EXPERIMENTS.md.
func DefaultE9Params(seed uint64) E9Params {
	return E9Params{
		Workers: 200, Tasks: 100,
		Lambdas: []float64{0, 0.25, 0.5, 0.75, 1},
		Seed:    seed,
	}
}

// E9Ablations covers three design-choice ablations in sections sharing one
// table:
//
//  1. similarity-measure choice in the Axiom-1 predicate (cosine vs
//     jaccard vs exact) — the paper leaves the measure platform-dependent;
//     the ablation shows how the choice moves the violation count on the
//     same trace;
//  2. the Tradeoff assigner's Lambda sweep — utility against income
//     balance with access fairness held fixed (full visibility);
//  3. enforcement cost — the number of offer grants RepairAxiom1 needs to
//     fix a requester-centric trace, and the Axiom-3 pay top-up each
//     compensation scheme owes.
func E9Ablations(p E9Params) *Table {
	t := &Table{
		ID:      "E9",
		Title:   fmt.Sprintf("Design ablations (%d workers, %d tasks)", p.Workers, p.Tasks),
		Columns: []string{"section", "variant", "metric-1", "metric-2", "metric-3"},
		Notes: []string{
			"section A (axiom1-measure): variant = similarity measure; metrics = worker",
			"pairs checked (the pairs whose skills meet the measure), violations,",
			"violation rate. Stricter measures check fewer pairs and find fewer violations.",
			"section B (tradeoff): variant = lambda; metrics = requester utility, income",
			"gini, axiom1 violations (always 0: visibility is full by construction).",
			"section C (repair): variant = repaired object; metrics per row in place.",
		},
	}

	// --- Section A: Axiom-1 similarity-measure ablation -----------------
	// A noisy population (workers flip one extra skill on occasionally) is
	// what separates the measures: exact equality finds no perturbed worker
	// similar to anyone, cosine/jaccard keep them with different strictness.
	// The pairs checked are those the skill join finds under the measure,
	// so they shrink with it.
	rngA := stats.NewRNG(p.Seed + 0xa)
	popA := workload.GeneratePopulation(workload.PopulationSpec{
		Workers: p.Workers, SkillNoise: 0.5,
		AcceptanceMean: 0.7, AcceptanceSpread: 0.3,
	}, rngA.Split())
	batchA := workload.GenerateTasks(workload.TaskSpec{
		Tasks: p.Tasks, Requesters: 5, Quota: 2, OverPublish: 1.5,
	}, popA, rngA.Split())
	stA := store.New(popA.Universe)
	for _, r := range batchA.Requesters {
		mustDo(stA.PutRequester(r))
	}
	for _, w := range popA.Workers {
		mustDo(stA.PutWorker(w))
	}
	for _, task := range batchA.Tasks {
		mustDo(stA.PutTask(task))
	}
	resA, err := (assign.RequesterCentric{}).Assign(&assign.Problem{
		Workers: popA.Workers, Tasks: batchA.Tasks, Capacity: 2,
		RNG: stats.NewRNG(p.Seed + 3),
	})
	if err != nil {
		panic(err)
	}
	// Threshold 0.85 is where the measures genuinely disagree on this
	// population: a worker with one extra skill scores 3/√12 ≈ 0.87 under
	// cosine (kept), 3/4 = 0.75 under Jaccard (excluded), and 0 under
	// exact equality (excluded).
	for _, m := range []similarity.VectorMeasure{
		similarity.MeasureCosine, similarity.MeasureJaccard, similarity.MeasureExact,
	} {
		cfg := fairness.DefaultConfig()
		cfg.SkillMeasure = m
		cfg.SkillThreshold = 0.85
		rep := fairness.Axiom1FromOffers(stA, resA.Offers, cfg)
		t.AddRow("A:axiom1-measure", m.Name+"@0.85", rep.Checked, len(rep.Violations), rep.ViolationRate())
	}

	// --- shared environment for sections B and C -------------------------
	pop, batch, st := e1Env(p.Workers, p.Tasks, p.Seed)
	res, err := (assign.RequesterCentric{}).Assign(&assign.Problem{
		Workers: pop.Workers, Tasks: batch.Tasks, Capacity: 2,
		RNG: stats.NewRNG(p.Seed + 3),
	})
	if err != nil {
		panic(err)
	}

	// --- Section B: Tradeoff lambda sweep --------------------------------
	for _, lambda := range p.Lambdas {
		tres, err := (assign.Tradeoff{Lambda: lambda}).Assign(&assign.Problem{
			Workers: pop.Workers, Tasks: batch.Tasks, Capacity: 2,
			RNG: stats.NewRNG(p.Seed + 5),
		})
		if err != nil {
			panic(err)
		}
		rewardByTask := make(map[model.TaskID]float64, len(batch.Tasks))
		for _, task := range batch.Tasks {
			rewardByTask[task.ID] = task.Reward
		}
		income := make(map[model.WorkerID]float64, len(pop.Workers))
		for _, w := range pop.Workers {
			income[w.ID] = 0
		}
		for _, a := range tres.Assignments {
			income[a.Worker] += rewardByTask[a.Task]
		}
		incomes := make([]float64, 0, len(income))
		for _, w := range pop.Workers {
			incomes = append(incomes, income[w.ID])
		}
		rep := fairness.Axiom1FromOffers(st, tres.Offers, fairness.DefaultConfig())
		t.AddRow("B:tradeoff", fmt.Sprintf("lambda=%.2f", lambda),
			tres.Utility, stats.Gini(incomes), len(rep.Violations))
	}

	// --- Section C: repair/enforcement cost ------------------------------
	cfg := fairness.DefaultConfig()
	before := fairness.Axiom1FromOffers(st, res.Offers, cfg)
	grants := fairness.RepairAxiom1(st, res.Offers, cfg)
	after := fairness.Axiom1FromOffers(st, fairness.ApplyGrants(res.Offers, grants), cfg)
	t.AddRow("C:repair-axiom1", "requester-centric trace",
		fmt.Sprintf("violations-before=%d", len(before.Violations)),
		fmt.Sprintf("grants=%d", len(grants)),
		fmt.Sprintf("violations-after=%d", len(after.Violations)))

	for _, scheme := range pay.Schemes() {
		stPay := e9PayTrace(p, scheme)
		adjs := fairness.RepairAxiom3(stPay, cfg)
		repBefore := fairness.CheckAxiom3(stPay, cfg)
		t.AddRow("C:repair-axiom3", scheme.Name(),
			fmt.Sprintf("violations=%d", len(repBefore.Violations)),
			fmt.Sprintf("top-ups=%d", len(adjs)),
			fmt.Sprintf("cost=%.2f", fairness.TotalAdjustment(adjs)))
	}
	return t
}

// e9PayTrace builds a store with contributions paid under the scheme, as in
// E3 but smaller.
func e9PayTrace(p E9Params, scheme pay.Scheme) *store.Store {
	rng := stats.NewRNG(p.Seed + 0xe9)
	pop := workload.GeneratePopulation(workload.PopulationSpec{Workers: 20}, rng.Split())
	batch := workload.GenerateTasks(workload.TaskSpec{Tasks: 8, Requesters: 2}, pop, rng.Split())
	st := store.New(pop.Universe)
	for _, r := range batch.Requesters {
		mustDo(st.PutRequester(r))
	}
	ids := make([]model.WorkerID, len(pop.Workers))
	for i, w := range pop.Workers {
		ids[i] = w.ID
		mustDo(st.PutWorker(w))
	}
	for _, task := range batch.Tasks {
		mustDo(st.PutTask(task))
		contribs, _ := workload.GenerateContributions(workload.ContributionSpec{
			Contributors: 20, Clusters: 3, QualityJitter: 0.15,
		}, task, ids, rng.Split())
		for _, c := range contribs {
			c.Accepted = c.Quality >= 0.6
		}
		pays := scheme.Pay(task, contribs)
		for i, c := range contribs {
			c.Paid = pays[i]
			mustDo(st.PutContribution(c))
		}
	}
	return st
}
