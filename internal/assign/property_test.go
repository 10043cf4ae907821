package assign

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/stats"
)

// randomProblem builds a structurally random assignment instance.
func randomProblem(rng *stats.RNG) *Problem {
	m := 2 + rng.Intn(5)
	names := make([]string, m)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	nW := 1 + rng.Intn(12)
	nT := rng.Intn(10)
	var workers []*model.Worker
	for i := 0; i < nW; i++ {
		skills := model.NewSkillVector(m)
		for k := range skills {
			skills[k] = rng.Bool(0.5)
		}
		workers = append(workers, &model.Worker{
			ID:       model.WorkerID(fmt.Sprintf("w%02d", i)),
			Computed: model.Attributes{model.AttrAcceptanceRatio: model.Num(rng.Float64())},
			Skills:   skills,
		})
	}
	var tasks []*model.Task
	for i := 0; i < nT; i++ {
		skills := model.NewSkillVector(m)
		for k := range skills {
			skills[k] = rng.Bool(0.3)
		}
		tasks = append(tasks, &model.Task{
			ID:        model.TaskID(fmt.Sprintf("t%02d", i)),
			Requester: model.RequesterID(fmt.Sprintf("r%d", i%3)),
			Skills:    skills,
			Reward:    0.1 + rng.Float64()*2,
			Quota:     1 + rng.Intn(3),
			Published: 1 + rng.Intn(5),
		})
	}
	return &Problem{
		Workers:  workers,
		Tasks:    tasks,
		Capacity: 1 + rng.Intn(3),
		RNG:      rng.Split(),
	}
}

// problemInvariants checks the universal assigner contract on a result
// without a testing.T (for use inside quick properties).
func problemInvariants(p *Problem, res *Result) error {
	byW := make(map[model.WorkerID]*model.Worker)
	for _, w := range p.Workers {
		byW[w.ID] = w
	}
	byT := make(map[model.TaskID]*model.Task)
	for _, task := range p.Tasks {
		byT[task.ID] = task
	}
	load := make(map[model.WorkerID]int)
	slots := make(map[model.TaskID]int)
	seen := make(map[Assignment]bool)
	for _, a := range res.Assignments {
		w, ok := byW[a.Worker]
		if !ok {
			return fmt.Errorf("unknown worker %s", a.Worker)
		}
		task, ok := byT[a.Task]
		if !ok {
			return fmt.Errorf("unknown task %s", a.Task)
		}
		if !w.Skills.Covers(task.Skills) {
			return fmt.Errorf("unqualified assignment %v", a)
		}
		if seen[a] {
			return fmt.Errorf("duplicate assignment %v", a)
		}
		seen[a] = true
		load[a.Worker]++
		slots[a.Task]++
	}
	for w, n := range load {
		if n > p.capacity() {
			return fmt.Errorf("worker %s over capacity: %d", w, n)
		}
	}
	for tid, n := range slots {
		if n > byT[tid].EffectivePublished() {
			return fmt.Errorf("task %s over slots: %d", tid, n)
		}
	}
	// Offers must only reference real entities and cover all assignments.
	offered := make(map[Assignment]bool)
	for w, ts := range res.Offers {
		if _, ok := byW[w]; !ok {
			return fmt.Errorf("offer to unknown worker %s", w)
		}
		for _, tid := range ts {
			if _, ok := byT[tid]; !ok {
				return fmt.Errorf("offer of unknown task %s", tid)
			}
			offered[Assignment{Worker: w, Task: tid}] = true
		}
	}
	for a := range seen {
		if !offered[a] {
			return fmt.Errorf("assignment %v without offer", a)
		}
	}
	return nil
}

// Every assigner (including Tradeoff at several lambdas) must satisfy the
// contract on arbitrary random instances.
func TestAssignerInvariantsProperty(t *testing.T) {
	assigners := append(All(),
		Tradeoff{Lambda: 0}, Tradeoff{Lambda: 0.5}, Tradeoff{Lambda: 1},
		OnlineGreedy{SlateSize: 1}, OnlineGreedy{SlateSize: 10},
	)
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		p := randomProblem(rng)
		for _, a := range assigners {
			// Fresh RNG per assigner so failures reproduce in isolation.
			p.RNG = stats.NewRNG(seed + 1)
			res, err := a.Assign(p)
			if err != nil {
				t.Logf("%s: %v", a.Name(), err)
				return false
			}
			if err := problemInvariants(p, res); err != nil {
				t.Logf("%s on seed %d: %v", a.Name(), seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The optimal matcher must never do worse than greedy on requester utility.
func TestOptimalAtLeastGreedyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		p := randomProblem(rng)
		// Keep instances small: the exact min-cost flow is the slow side.
		if len(p.Workers) > 8 || len(p.Tasks) > 6 {
			return true
		}
		greedy, err := (RequesterCentric{}).Assign(p)
		if err != nil {
			return false
		}
		optimal, err := (RequesterCentric{Optimal: true}).Assign(p)
		if err != nil {
			return false
		}
		return optimal.Utility >= greedy.Utility-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Full-visibility assigners must produce identical offer sets for workers
// with identical skills — Axiom 1's access condition by construction.
func TestFullVisibilityOffersProperty(t *testing.T) {
	fullVisibility := []Assigner{SelfAppointment{}, WorkerCentric{}, FairRoundRobin{}, Tradeoff{}}
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		p := randomProblem(rng)
		for _, a := range fullVisibility {
			p.RNG = stats.NewRNG(seed + 2)
			res, err := a.Assign(p)
			if err != nil {
				return false
			}
			for i := 0; i < len(p.Workers); i++ {
				for j := i + 1; j < len(p.Workers); j++ {
					wi, wj := p.Workers[i], p.Workers[j]
					if !slices.Equal(wi.Skills, wj.Skills) {
						continue
					}
					if !sameTaskSet(res.Offers[wi.ID], res.Offers[wj.ID]) {
						t.Logf("%s: twins %s/%s offers differ: %v vs %v",
							a.Name(), wi.ID, wj.ID, res.Offers[wi.ID], res.Offers[wj.ID])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func sameTaskSet(a, b []model.TaskID) bool {
	as := make(map[model.TaskID]bool, len(a))
	for _, t := range a {
		as[t] = true
	}
	bs := make(map[model.TaskID]bool, len(b))
	for _, t := range b {
		bs[t] = true
	}
	if len(as) != len(bs) {
		return false
	}
	for t := range as {
		if !bs[t] {
			return false
		}
	}
	return true
}
