package experiments

import (
	"fmt"

	"repro/internal/complete"
	"repro/internal/eventlog"
	"repro/internal/fairness"
	"repro/internal/model"
	"repro/internal/retention"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transparency"
	"repro/internal/workload"
)

// E5Params sizes the task-completion experiment.
type E5Params struct {
	// Workers per task (all start; quota fills first-come).
	WorkersPerTask int
	Tasks          int
	// OverPublish factors to sweep (Published = Quota * factor).
	OverPublish []float64
	Seed        uint64
}

// DefaultE5Params returns the scale used in EXPERIMENTS.md.
func DefaultE5Params(seed uint64) E5Params {
	return E5Params{
		WorkersPerTask: 12, Tasks: 30,
		OverPublish: []float64{1.0, 1.5, 2.0, 3.0},
		Seed:        seed,
	}
}

// E5Completion reproduces the §3.1.1 survey scenario: requesters publish
// more assignments than they need; once the quota of acceptable responses
// arrives, the cancellation policy decides the fate of in-flight work. The
// experiment sweeps the over-publication factor under each policy and
// reports the interruption rate, wasted worker effort, and Axiom-5
// violations found by the checker on the emitted trace.
func E5Completion(p E5Params) *Table {
	t := &Table{
		ID:    "E5",
		Title: fmt.Sprintf("Worker fairness in task completion (%d tasks, %d workers/task)", p.Tasks, p.WorkersPerTask),
		Columns: []string{"policy", "over-publish", "interruption-rate", "wasted-effort",
			"axiom5-violations", "submissions"},
		Notes: []string{
			"expected shape: 'never' and 'grace' policies produce zero Axiom-5 violations;",
			"'on-quota' interruptions grow with the over-publication factor.",
		},
	}
	policies := []complete.CancellationPolicy{complete.CancelNever, complete.CancelGrace, complete.CancelOnQuota}
	for _, policy := range policies {
		for _, over := range p.OverPublish {
			rng := stats.NewRNG(p.Seed + 0xe5)
			log := eventlog.New()
			engine := complete.NewEngine(policy, log)
			quota := 4
			published := int(float64(quota)*over + 0.5)
			for ti := 0; ti < p.Tasks; ti++ {
				task := &model.Task{
					ID:        model.TaskID(fmt.Sprintf("t%03d", ti)),
					Requester: "r0",
					Skills:    model.NewSkillVector(1),
					Reward:    1,
					Quota:     quota,
					Published: published,
				}
				mustDo(engine.Post(task))
				// published slots get offered and started; workers finish
				// in random order one tick apart, so late workers are
				// in-flight when the quota fills.
				n := published
				if n > p.WorkersPerTask {
					n = p.WorkersPerTask
				}
				workers := make([]model.WorkerID, n)
				for wi := range workers {
					workers[wi] = model.WorkerID(fmt.Sprintf("w-%03d-%02d", ti, wi))
					mustDo(engine.Offer(task.ID, workers[wi]))
					mustDo(engine.Start(task.ID, workers[wi]))
				}
				engine.Advance(1)
				order := rng.Perm(len(workers))
				for _, wi := range order {
					w := workers[wi]
					if !engine.CanSubmitLate(task.ID, w) {
						continue
					}
					cid := model.ContributionID(fmt.Sprintf("%s-%s", task.ID, w))
					mustDo(engine.Submit(task.ID, w, cid, true))
					engine.Advance(1)
				}
			}
			m := engine.Metrics()
			rep := fairness.CheckAxiom5(log)
			t.AddRow(policy.String(), fmt.Sprintf("%.1fx", over),
				m.InterruptionRate(), m.WastedEffort, len(rep.Violations), m.Submissions)
		}
	}
	return t
}

// E6Params sizes the transparency→retention experiment.
type E6Params struct {
	Workers int
	Tasks   int
	Rounds  int
	Seed    uint64
}

// DefaultE6Params returns the scale used in EXPERIMENTS.md. The worker
// pool is deliberately scarce relative to task slots so that churn shows up
// in total platform output, not just in the retention rate.
func DefaultE6Params(seed uint64) E6Params {
	return E6Params{Workers: 60, Tasks: 240, Rounds: 6, Seed: seed}
}

// transparencyLevels returns named policies of increasing disclosure, from
// fully opaque to the full standard catalogue.
func transparencyLevels() []struct {
	name   string
	policy *transparency.Policy
} {
	return []struct {
		name   string
		policy *transparency.Policy
	}{
		{"opaque", nil},
		{"minimal", transparency.MustParse(`policy "minimal" {
			disclose task.reward to workers always;
		}`)},
		{"requester", transparency.MustParse(`policy "requester" {
			disclose task.reward to workers always;
			disclose requester.hourly_wage to workers always;
			disclose requester.payment_delay to workers always;
			disclose task.recruitment_criteria to workers on task_view;
			disclose task.rejection_criteria to workers on task_view;
		}`)},
		{"full", FullDisclosurePolicy()},
	}
}

// FullDisclosurePolicy discloses every standard-catalogue field to workers
// unconditionally — the transparency ceiling of E6.
func FullDisclosurePolicy() *transparency.Policy {
	cat := transparency.StandardCatalogue()
	pol := &transparency.Policy{Name: "full"}
	for _, e := range cat.Entries() {
		pol.Rules = append(pol.Rules, &transparency.Rule{
			Field: e.Ref, To: transparency.AudienceWorkers, On: transparency.TriggerAlways,
		})
	}
	return pol
}

// E6Retention runs the §4.1 controlled experiment: identical marketplaces
// under increasing transparency, reporting the paper's two objective
// measures (worker retention and mean contribution quality) plus the
// transparency score of each level.
func E6Retention(p E6Params) *Table {
	t := &Table{
		ID:    "E6",
		Title: fmt.Sprintf("Transparency vs retention & quality (%d workers, %d tasks, %d rounds)", p.Workers, p.Tasks, p.Rounds),
		Columns: []string{"policy", "transparency-score", "retention", "total-output",
			"mean-quality", "submitted", "income-gini"},
		Notes: []string{
			"expected shape: retention and total platform output (sum of accepted quality)",
			"increase monotonically with disclosure — the paper's hypothesis from [12,13,16].",
			"mean per-contribution quality can dip under full transparency: opaque platforms",
			"churn their weakest workers, a survivorship effect the totals column corrects for.",
		},
	}
	for _, level := range transparencyLevels() {
		rng := stats.NewRNG(p.Seed + 0xe6)
		pop := workload.GeneratePopulation(workload.PopulationSpec{
			Workers: p.Workers, AcceptanceMean: 0.6, AcceptanceSpread: 0.3,
		}, rng.Split())
		batch := workload.GenerateTasks(workload.TaskSpec{Tasks: p.Tasks, Quota: 2, OverPublish: 1.5}, pop, rng.Split())
		res, err := sim.Run(sim.Config{
			Population:        pop,
			Batch:             batch,
			Policy:            level.policy,
			Rounds:            p.Rounds,
			WorkerCapacity:    2,
			AcceptThreshold:   0.62,
			RetentionParams:   retention.Params{QualityCoupling: 0.5},
			Seed:              p.Seed,
			FlagLowAcceptance: true,
		})
		if err != nil {
			panic(err)
		}
		m := res.Metrics
		t.AddRow(level.name, m.TransparencyScore, m.RetentionRate, m.RequesterUtility,
			m.MeanQuality, m.Submitted, m.IncomeGini)
	}
	return t
}
