package experiments

import (
	"fmt"
	"time"

	"repro/internal/audit"
	"repro/internal/eventlog"
	"repro/internal/fairness"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/workload"
)

// E11Params sizes the incremental-audit experiment.
type E11Params struct {
	// Sizes is the worker-count sweep.
	Sizes []int
	// Rounds is the number of mutate-then-audit cycles per size.
	Rounds int
	// DirtyFrac is the fraction of workers mutated per round (the paper's
	// continuous-monitoring regime: a trickle of change between audits).
	DirtyFrac float64
	Seed      uint64
}

// DefaultE11Params returns the scale used in EXPERIMENTS.md.
func DefaultE11Params(seed uint64) E11Params {
	return E11Params{Sizes: []int{300, 1000}, Rounds: 6, DirtyFrac: 0.01, Seed: seed}
}

// E11IncrementalAudit measures the tentpole of the continuous-monitoring
// deployment: a platform whose state drifts a little every tick (DirtyFrac
// of workers mutate, a few offers land) is audited after every round, once
// by the full five-axiom rescan and once by the incremental engine
// (internal/audit) that re-checks only the pairs its changelog deltas
// dirtied. The table reports total wall time over all rounds for
// both modes, the speedup, and whether the reported violations stayed
// identical (they must — the engine's contract).
func E11IncrementalAudit(p E11Params) *Table {
	t := &Table{
		ID:    "E11",
		Title: fmt.Sprintf("Incremental vs full-rescan fairness audits (%d rounds, %.1f%% dirty/round)", p.Rounds, p.DirtyFrac*100),
		Columns: []string{"workers", "cold-start", "full-total", "incr-total",
			"speedup", "identical-violations"},
		Notes: []string{
			"expected shape: identical violations always; incremental total falls further",
			"behind the full rescan as the population grows, because delta passes scale",
			"with the dirty fraction while full passes scale with the candidate-pair count.",
		},
	}
	for _, n := range p.Sizes {
		rng := stats.NewRNG(p.Seed + 0xe11)
		pop := workload.GeneratePopulation(workload.PopulationSpec{
			Workers: n, Archetypes: 8,
		}, rng.Split())
		nTasks := n / 4
		if nTasks < 1 {
			nTasks = 1 // populations under four workers still get a task
		}
		batch := workload.GenerateTasks(workload.TaskSpec{
			Tasks: nTasks, Quota: 2,
		}, pop, rng.Split())
		st := store.New(pop.Universe)
		for _, r := range batch.Requesters {
			mustDo(st.PutRequester(r))
		}
		for _, w := range pop.Workers {
			mustDo(st.PutWorker(w))
		}
		for _, task := range batch.Tasks {
			mustDo(st.PutTask(task))
		}
		log := eventlog.New()
		for wi, w := range pop.Workers {
			if wi%53 == 0 {
				continue // sparse access bias: material for Axiom 1
			}
			for _, task := range batch.Tasks {
				if w.Skills.Covers(task.Skills) {
					log.MustAppend(eventlog.Event{Type: eventlog.TaskOffered, Worker: w.ID, Task: task.ID})
				}
			}
		}

		cfg := fairness.DefaultConfig()
		eng := audit.New(st, log, cfg)
		coldStart := time.Now()
		eng.Audit()
		cold := time.Since(coldStart)

		nDirty := int(float64(n) * p.DirtyFrac)
		if nDirty < 1 {
			nDirty = 1
		}
		var fullTotal, incrTotal time.Duration
		identical := true
		for round := 0; round < p.Rounds; round++ {
			for i := 0; i < nDirty; i++ {
				w, err := st.Worker(pop.Workers[rng.Intn(len(pop.Workers))].ID)
				mustDo(err)
				w.Computed[model.AttrAcceptanceRatio] = model.Num(rng.Float64())
				mustDo(st.UpdateWorker(w))
			}
			for i := 0; i < nDirty; i++ {
				log.MustAppend(eventlog.Event{
					Type:   eventlog.TaskOffered,
					Worker: pop.Workers[rng.Intn(len(pop.Workers))].ID,
					Task:   batch.Tasks[rng.Intn(len(batch.Tasks))].ID,
				})
			}
			start := time.Now()
			incr := eng.Audit()
			incrTotal += time.Since(start)
			start = time.Now()
			full := fairness.CheckAll(st, log, cfg)
			fullTotal += time.Since(start)
			if !audit.ViolationsEqual(incr, full) {
				identical = false
			}
		}
		speedup := 0.0
		if incrTotal > 0 {
			speedup = float64(fullTotal) / float64(incrTotal)
		}
		t.AddRow(n, cold.Round(time.Microsecond).String(),
			fullTotal.Round(time.Microsecond).String(),
			incrTotal.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1fx", speedup), identical)
	}
	return t
}
