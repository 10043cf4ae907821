package experiments

import (
	"fmt"

	"repro/internal/assign"
	"repro/internal/eventlog"
	"repro/internal/fairness"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/workload"
)

// E1Params sizes the discriminatory-power experiment.
type E1Params struct {
	Workers int
	Tasks   int
	Seed    uint64
}

// DefaultE1Params returns the scale used in EXPERIMENTS.md.
func DefaultE1Params(seed uint64) E1Params {
	return E1Params{Workers: 400, Tasks: 200, Seed: seed}
}

// e1Env builds the shared population/tasks/store for E1/E2.
func e1Env(workers, tasks int, seed uint64) (*workload.Population, *workload.Batch, *store.Store) {
	rng := stats.NewRNG(seed + 0xe1)
	// A heterogeneous population (acceptance ratios spread over [0.4, 1.0])
	// is what gives requester-centric assignment something to discriminate
	// on; five requesters against four archetypes guarantees comparable
	// cross-requester task pairs for Axiom 2.
	pop := workload.GeneratePopulation(workload.PopulationSpec{
		Workers: workers, AcceptanceMean: 0.7, AcceptanceSpread: 0.3,
	}, rng.Split())
	batch := workload.GenerateTasks(workload.TaskSpec{
		Tasks: tasks, Requesters: 5, Quota: 2, OverPublish: 1.5,
	}, pop, rng.Split())
	st := store.New(pop.Universe)
	for _, r := range batch.Requesters {
		if err := st.PutRequester(r); err != nil {
			panic(err)
		}
	}
	for _, w := range pop.Workers {
		if err := st.PutWorker(w); err != nil {
			panic(err)
		}
	}
	for _, t := range batch.Tasks {
		if err := st.PutTask(t); err != nil {
			panic(err)
		}
	}
	return pop, batch, st
}

// E1Assignment assesses the discriminatory power of each assignment
// algorithm (§3.1.1, §4.2): Axiom-1 violation rate over similar-worker
// pairs, requester utility, income Gini (each assignment earns the task
// reward), and the share of workers left with no work.
func E1Assignment(p E1Params) *Table {
	pop, batch, st := e1Env(p.Workers, p.Tasks, p.Seed)
	t := &Table{
		ID:    "E1",
		Title: fmt.Sprintf("Discriminatory power of task assignment (%d workers, %d tasks)", p.Workers, p.Tasks),
		Columns: []string{"algorithm", "axiom1-violation-rate", "requester-utility",
			"income-gini", "jobless-rate", "assignments"},
		Notes: []string{
			"expected shape: self-appointment, worker-centric and fair-round-robin have zero",
			"Axiom-1 violations; requester-centric violates Axiom 1 and earns at least",
			"fair-round-robin's requester utility.",
		},
	}
	cfg := fairness.DefaultConfig()
	for _, a := range assign.All() {
		res, err := a.Assign(&assign.Problem{
			Workers: pop.Workers, Tasks: batch.Tasks, Capacity: 2,
			RNG: stats.NewRNG(p.Seed + 7),
		})
		if err != nil {
			panic(err)
		}
		rep := fairness.Axiom1FromOffers(st, res.Offers, cfg)

		rewardByTask := make(map[model.TaskID]float64, len(batch.Tasks))
		for _, task := range batch.Tasks {
			rewardByTask[task.ID] = task.Reward
		}
		income := make(map[model.WorkerID]float64, len(pop.Workers))
		for _, w := range pop.Workers {
			income[w.ID] = 0
		}
		for _, as := range res.Assignments {
			income[as.Worker] += rewardByTask[as.Task]
		}
		incomes := make([]float64, 0, len(income))
		jobless := 0
		for _, w := range pop.Workers {
			incomes = append(incomes, income[w.ID])
			if income[w.ID] == 0 {
				jobless++
			}
		}
		t.AddRow(a.Name(), rep.ViolationRate(), res.Utility,
			stats.Gini(incomes), float64(jobless)/float64(len(pop.Workers)), len(res.Assignments))
	}
	return t
}

// E2Params sizes the task-visibility experiment.
type E2Params struct {
	Workers int
	Tasks   int
	Seed    uint64
}

// DefaultE2Params returns the scale used in EXPERIMENTS.md.
func DefaultE2Params(seed uint64) E2Params {
	return E2Params{Workers: 300, Tasks: 120, Seed: seed}
}

// E2Visibility audits Axiom 2 per algorithm: do comparable tasks posted by
// different requesters reach the same audiences?
func E2Visibility(p E2Params) *Table {
	pop, batch, st := e1Env(p.Workers, p.Tasks, p.Seed)
	t := &Table{
		ID:    "E2",
		Title: fmt.Sprintf("Requester fairness in task visibility (%d workers, %d tasks)", p.Workers, p.Tasks),
		Columns: []string{"algorithm", "comparable-pairs", "axiom2-violation-rate",
			"mean-audience-size"},
		Notes: []string{
			"expected shape: full-visibility mechanisms (self-appointment, worker-centric,",
			"fair-round-robin) satisfy Axiom 2; slate- and pick-based mechanisms violate it.",
		},
	}
	cfg := fairness.DefaultConfig()
	for _, a := range assign.All() {
		res, err := a.Assign(&assign.Problem{
			Workers: pop.Workers, Tasks: batch.Tasks, Capacity: 2,
			RNG: stats.NewRNG(p.Seed + 11),
		})
		if err != nil {
			panic(err)
		}
		log := eventlog.New()
		audSize := make(map[model.TaskID]int)
		for _, w := range pop.Workers {
			for _, tid := range res.Offers[w.ID] {
				log.MustAppend(eventlog.Event{Type: eventlog.TaskOffered, Worker: w.ID, Task: tid})
				audSize[tid]++
			}
		}
		rep := fairness.CheckAxiom2(st, log, cfg)
		var meanAud float64
		if len(batch.Tasks) > 0 {
			total := 0
			for _, task := range batch.Tasks {
				total += audSize[task.ID]
			}
			meanAud = float64(total) / float64(len(batch.Tasks))
		}
		t.AddRow(a.Name(), rep.Checked, rep.ViolationRate(), meanAud)
	}
	return t
}
