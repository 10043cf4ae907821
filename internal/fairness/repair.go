package fairness

import (
	"sort"

	"repro/internal/model"
	"repro/internal/similarity"
	"repro/internal/store"
)

// This file implements the enforcement side of §3.3.1: the paper proposes
// the axioms both "for checking fairness ... in existing crowdsourcing
// systems and also for enforcing them by design". The Repair functions
// compute the minimal platform actions that bring a trace into compliance:
// extra offers for Axiom 1, pay top-ups for Axiom 3.

// OfferGrant is one additional offer the platform must make to satisfy
// Axiom 1.
type OfferGrant struct {
	Worker model.WorkerID
	Task   model.TaskID
}

// RepairAxiom1 computes the minimal additional offers that equalise access
// within every similarity class of workers: workers that are pairwise
// similar (under cfg's thresholds) are grouped by single-link closure, and
// every member of a group is granted the union of the group's offer sets.
// The input offers map is not modified; the returned grants are sorted.
//
// Granting the union is the only repair that never *removes* access (the
// alternative — intersecting offer sets — would fix the axiom by taking
// tasks away from workers, which trades one §3.1.1 harm for another).
func RepairAxiom1(st *store.Store, offers map[model.WorkerID][]model.TaskID, cfg Config) []OfferGrant {
	workers := st.Workers()
	skillThr := orDefault(cfg.SkillThreshold, 0.9)
	attrThr := orDefault(cfg.AttrThreshold, 0.9)
	measure := cfg.skillMeasure()
	policy := cfg.attrPolicy()

	similar := func(a, b *model.Worker) bool {
		return measure.Func(a.Skills, b.Skills) >= skillThr &&
			policy.Similarity(a.Declared, b.Declared) >= attrThr &&
			policy.Similarity(a.Computed, b.Computed) >= attrThr
	}

	// Union-find over similar pairs (single-link closure, matching the
	// transitive "same access" reading the checker enforces pairwise).
	parent := make([]int, len(workers))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < len(workers); i++ {
		for j := i + 1; j < len(workers); j++ {
			if similar(workers[i], workers[j]) {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[rj] = ri
				}
			}
		}
	}

	// Per group: union of offered tasks; grant the difference per member.
	groupTasks := make(map[int]map[model.TaskID]bool)
	for i, w := range workers {
		r := find(i)
		set := groupTasks[r]
		if set == nil {
			set = make(map[model.TaskID]bool)
			groupTasks[r] = set
		}
		for _, t := range offers[w.ID] {
			set[t] = true
		}
	}
	var grants []OfferGrant
	for i, w := range workers {
		have := make(map[model.TaskID]bool, len(offers[w.ID]))
		for _, t := range offers[w.ID] {
			have[t] = true
		}
		for t := range groupTasks[find(i)] {
			if !have[t] {
				grants = append(grants, OfferGrant{Worker: w.ID, Task: t})
			}
		}
	}
	sort.Slice(grants, func(a, b int) bool {
		if grants[a].Worker != grants[b].Worker {
			return grants[a].Worker < grants[b].Worker
		}
		return grants[a].Task < grants[b].Task
	})
	return grants
}

// ApplyGrants returns a new offers map with the grants added.
func ApplyGrants(offers map[model.WorkerID][]model.TaskID, grants []OfferGrant) map[model.WorkerID][]model.TaskID {
	out := make(map[model.WorkerID][]model.TaskID, len(offers))
	for w, ts := range offers {
		out[w] = append([]model.TaskID(nil), ts...)
	}
	for _, g := range grants {
		out[g.Worker] = append(out[g.Worker], g.Task)
	}
	return out
}

// AudienceGrant is one additional worker a task must be shown to in order
// to satisfy Axiom 2.
type AudienceGrant struct {
	Task   model.TaskID
	Worker model.WorkerID
}

// RepairAxiom2 computes the minimal audience extensions that equalise the
// visibility of comparable cross-requester tasks: tasks that are pairwise
// comparable (similar skills, comparable rewards, per cfg) are grouped by
// single-link closure and every task in a group is shown to the union of
// the group's audiences. Like RepairAxiom1, the repair only ever *adds*
// visibility.
func RepairAxiom2(st *store.Store, audience map[model.TaskID][]model.WorkerID, cfg Config) []AudienceGrant {
	tasks := st.Tasks()
	skillThr := orDefault(cfg.SkillThreshold, 0.9)
	rewardTol := orDefault(cfg.RewardTolerance, 0.1)
	measure := cfg.skillMeasure()

	comparable := func(a, b *model.Task) bool {
		if a.Requester == b.Requester {
			return false
		}
		return measure.Func(a.Skills, b.Skills) >= skillThr &&
			comparableRewards(a.Reward, b.Reward, rewardTol)
	}

	parent := make([]int, len(tasks))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < len(tasks); i++ {
		for j := i + 1; j < len(tasks); j++ {
			if comparable(tasks[i], tasks[j]) {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[rj] = ri
				}
			}
		}
	}

	groupAudience := make(map[int]map[model.WorkerID]bool)
	for i, t := range tasks {
		r := find(i)
		set := groupAudience[r]
		if set == nil {
			set = make(map[model.WorkerID]bool)
			groupAudience[r] = set
		}
		for _, w := range audience[t.ID] {
			set[w] = true
		}
	}
	var grants []AudienceGrant
	for i, t := range tasks {
		have := make(map[model.WorkerID]bool, len(audience[t.ID]))
		for _, w := range audience[t.ID] {
			have[w] = true
		}
		for w := range groupAudience[find(i)] {
			if !have[w] {
				grants = append(grants, AudienceGrant{Task: t.ID, Worker: w})
			}
		}
	}
	sort.Slice(grants, func(a, b int) bool {
		if grants[a].Task != grants[b].Task {
			return grants[a].Task < grants[b].Task
		}
		return grants[a].Worker < grants[b].Worker
	})
	return grants
}

// ApplyAudienceGrants returns a new audience map with the grants added.
func ApplyAudienceGrants(audience map[model.TaskID][]model.WorkerID, grants []AudienceGrant) map[model.TaskID][]model.WorkerID {
	out := make(map[model.TaskID][]model.WorkerID, len(audience))
	for t, ws := range audience {
		out[t] = append([]model.WorkerID(nil), ws...)
	}
	for _, g := range grants {
		out[g.Task] = append(out[g.Task], g.Worker)
	}
	return out
}

// PayAdjustment is one top-up payment owed to bring a contribution's pay up
// to its similarity cluster's maximum.
type PayAdjustment struct {
	Contribution model.ContributionID
	Worker       model.WorkerID
	Task         model.TaskID
	// Delta is the additional amount owed (always > 0).
	Delta float64
}

// RepairAxiom3 computes the pay top-ups that satisfy Axiom 3 without ever
// reducing anyone's pay: within each similarity cluster of contributions to
// the same task, every member is raised to the cluster maximum. This is the
// §3.1.1 wrongful-rejection remedy as a ledger operation — a rejected
// contribution that is demonstrably equivalent to an accepted one gets the
// accepted pay.
func RepairAxiom3(st *store.Store, cfg Config) []PayAdjustment {
	simThr := orDefault(cfg.ContributionThreshold, 0.8)
	var out []PayAdjustment
	for _, t := range st.Tasks() {
		contribs := st.ContributionsByTask(t.ID)
		n := len(contribs)
		if n < 2 {
			continue
		}
		parent := make([]int, n)
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		profiles := similarity.NewContributionProfiles(contribs)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if contribs[i].Worker == contribs[j].Worker {
					continue
				}
				if profiles.Similarity(i, j) >= simThr {
					ri, rj := find(i), find(j)
					if ri != rj {
						parent[rj] = ri
					}
				}
			}
		}
		maxPay := make(map[int]float64)
		for i, c := range contribs {
			r := find(i)
			if c.Paid > maxPay[r] {
				maxPay[r] = c.Paid
			}
		}
		for i, c := range contribs {
			if target := maxPay[find(i)]; target > c.Paid {
				out = append(out, PayAdjustment{
					Contribution: c.ID, Worker: c.Worker, Task: t.ID,
					Delta: target - c.Paid,
				})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Contribution < out[b].Contribution })
	return out
}

// TotalAdjustment sums the deltas — the cost to the requesters of bringing
// the trace into Axiom-3 compliance.
func TotalAdjustment(adjs []PayAdjustment) float64 {
	var t float64
	for _, a := range adjs {
		t += a.Delta
	}
	return t
}
