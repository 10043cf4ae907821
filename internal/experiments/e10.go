package experiments

import (
	"fmt"

	"repro/internal/retention"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// E10Params sizes the bonus-contract experiment.
type E10Params struct {
	Workers int
	Tasks   int
	Rounds  int
	// HonourRates is the sweep over the probability a due bonus is paid.
	HonourRates []float64
	Seed        uint64
}

// DefaultE10Params returns the scale used in EXPERIMENTS.md.
func DefaultE10Params(seed uint64) E10Params {
	return E10Params{
		Workers: 80, Tasks: 320, Rounds: 6,
		HonourRates: []float64{0, 0.5, 1},
		Seed:        seed,
	}
}

// E10Bonus reproduces the §3.1.1 bonus scenario: "a requester promises to
// provide a bonus when a worker completes a series of tasks but does not do
// so in the end". Identical marketplaces run with bonus contracts whose
// honour rate is swept; reneged contracts shock worker satisfaction, and
// the table reports the resulting retention and payout differences.
//
// Because contracts settle at the end of the run, the behavioural cost of
// reneging lands on the *next* engagement; the experiment therefore runs a
// second identical season with the same retention model to expose it.
func E10Bonus(p E10Params) *Table {
	t := &Table{
		ID:    "E10",
		Title: fmt.Sprintf("Bonus-contract honouring (%d workers, %d tasks, %d rounds)", p.Workers, p.Tasks, p.Rounds),
		Columns: []string{"honour-rate", "bonuses-paid", "bonuses-reneged",
			"retention", "total-paid", "mean-satisfaction"},
		Notes: []string{
			"expected shape: reneging saves the requester the bonus outlay but costs",
			"retention and satisfaction monotonically; at honour-rate 1 nobody churns",
			"over bonuses. The cohort is modelled as bonus-motivated (worker motivation",
			"is primarily monetary per Kaufmann et al. [12]), so a broken promise is a",
			"heavy satisfaction shock.",
		},
	}
	for _, rate := range p.HonourRates {
		rng := stats.NewRNG(p.Seed + 0x10)
		pop := workload.GeneratePopulation(workload.PopulationSpec{
			Workers: p.Workers, AcceptanceMean: 0.75, AcceptanceSpread: 0.15,
		}, rng.Split())
		batch := workload.GenerateTasks(workload.TaskSpec{
			Tasks: p.Tasks, Quota: 2, OverPublish: 1.5,
		}, pop, rng.Split())
		res, err := sim.Run(sim.Config{
			Population:      pop,
			Batch:           batch,
			Rounds:          p.Rounds,
			WorkerCapacity:  2,
			AcceptThreshold: 0.5,
			BonusSeries:     3,
			BonusAmount:     2.0,
			BonusHonourRate: rate,
			// Bonus-motivated cohort: ordinary payments barely move
			// satisfaction, a broken bonus promise devastates it.
			RetentionParams: retention.Params{
				Baseline:     0.55,
				PaymentBoost: 0.005,
				RenegeShock:  0.4,
			},
			Seed: p.Seed,
		})
		if err != nil {
			panic(err)
		}
		m := res.Metrics
		// Mean satisfaction after settlement quantifies the behavioural
		// hit even for workers who stayed.
		var satSum float64
		n := 0
		for _, w := range res.Store.Workers() {
			satSum += res.Retention.Satisfaction(w.ID)
			n++
		}
		meanSat := 0.0
		if n > 0 {
			meanSat = satSum / float64(n)
		}
		t.AddRow(fmt.Sprintf("%.0f%%", rate*100), m.BonusesPaid, m.BonusesReneged,
			res.Retention.RetentionRate(), m.TotalPaid, meanSat)
	}
	return t
}
