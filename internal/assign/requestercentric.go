package assign

import (
	"sort"

	"repro/internal/model"
)

// RequesterCentric allocates tasks "so as to maximize the total gain of the
// requester" (§3.1.1) — the assignment family the paper flags as
// potentially discriminatory to workers, because only the workers the
// requester values ever see an offer.
//
// With Optimal false the assigner is greedy: it sorts all (worker, task)
// pairs by utility and takes them subject to capacity. With Optimal true it
// solves the capacitated maximum-weight bipartite matching exactly as a
// min-cost flow (MaxWeightBMatching), which is the E-ablation comparator
// for the greedy heuristic.
type RequesterCentric struct {
	// Optimal selects the exact min-cost-flow matching instead of the
	// greedy heuristic.
	Optimal bool
}

// Name implements Assigner.
func (r RequesterCentric) Name() string {
	if r.Optimal {
		return "requester-centric-optimal"
	}
	return "requester-centric"
}

// Assign implements Assigner.
func (r RequesterCentric) Assign(p *Problem) (*Result, error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	if r.Optimal {
		return r.assignOptimal(p)
	}
	return r.assignGreedy(p)
}

func (r RequesterCentric) assignGreedy(p *Problem) (*Result, error) {
	res := &Result{Algorithm: r.Name(), Offers: make(map[model.WorkerID][]model.TaskID)}
	u := p.utility()
	workers := sortedWorkers(p.Workers)

	type edge struct {
		wi, ti int
		gain   float64
	}
	var edges []edge
	for wi, w := range workers {
		for ti, t := range p.Tasks {
			if g := u(w, t); g > 0 {
				edges = append(edges, edge{wi, ti, g})
			}
		}
	}
	sort.SliceStable(edges, func(a, b int) bool {
		if edges[a].gain != edges[b].gain {
			return edges[a].gain > edges[b].gain
		}
		if workers[edges[a].wi].ID != workers[edges[b].wi].ID {
			return workers[edges[a].wi].ID < workers[edges[b].wi].ID
		}
		return p.Tasks[edges[a].ti].ID < p.Tasks[edges[b].ti].ID
	})

	remaining := slots(p.Tasks)
	load := make([]int, len(workers))
	for _, e := range edges {
		if load[e.wi] >= p.capacity() || remaining[e.ti] == 0 {
			continue
		}
		w, t := workers[e.wi], p.Tasks[e.ti]
		// Requester-centric platforms only surface the task to the worker
		// they chose: the offer and the assignment coincide. This is
		// exactly the restricted visibility Axiom 1 catches.
		res.Offers[w.ID] = append(res.Offers[w.ID], t.ID)
		res.Assignments = append(res.Assignments, Assignment{Worker: w.ID, Task: t.ID})
		load[e.wi]++
		remaining[e.ti]--
	}
	res.Utility = scoreUtility(p, res.Assignments)
	return res, nil
}

func (r RequesterCentric) assignOptimal(p *Problem) (*Result, error) {
	res := &Result{Algorithm: r.Name(), Offers: make(map[model.WorkerID][]model.TaskID)}
	u := p.utility()
	workers := sortedWorkers(p.Workers)
	if len(workers) == 0 || len(p.Tasks) == 0 {
		res.Utility = 0
		return res, nil
	}

	gain := make([][]float64, len(workers))
	for i, w := range workers {
		gain[i] = make([]float64, len(p.Tasks))
		for j, t := range p.Tasks {
			gain[i][j] = u(w, t)
		}
	}
	workerCap := make([]int, len(workers))
	for i := range workerCap {
		workerCap[i] = p.capacity()
	}
	matched := MaxWeightBMatching(gain, workerCap, slots(p.Tasks))
	for pr := range matched {
		w, t := workers[pr[0]], p.Tasks[pr[1]]
		res.Assignments = append(res.Assignments, Assignment{Worker: w.ID, Task: t.ID})
	}
	for _, a := range res.Assignments {
		res.Offers[a.Worker] = append(res.Offers[a.Worker], a.Task)
	}
	sort.Slice(res.Assignments, func(a, b int) bool {
		if res.Assignments[a].Worker != res.Assignments[b].Worker {
			return res.Assignments[a].Worker < res.Assignments[b].Worker
		}
		return res.Assignments[a].Task < res.Assignments[b].Task
	})
	res.Utility = scoreUtility(p, res.Assignments)
	return res, nil
}
