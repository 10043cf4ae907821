package experiments

import (
	"fmt"

	"repro/internal/detect"
	"repro/internal/fairness"
	"repro/internal/model"
	"repro/internal/pay"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/workload"
)

// E3Params sizes the compensation-fairness experiment.
type E3Params struct {
	Contributors int
	Clusters     int
	Tasks        int
	Seed         uint64
}

// DefaultE3Params returns the scale used in EXPERIMENTS.md.
func DefaultE3Params(seed uint64) E3Params {
	return E3Params{Contributors: 30, Clusters: 3, Tasks: 20, Seed: seed}
}

// E3Compensation audits Axiom 3 under each compensation scheme: similar
// contributions to the same task must be paid equally. Contributions are
// generated in controlled similarity clusters with per-cluster quality, so
// quality-based pay (which tracks quality, not similarity) pays near-equal
// within clusters while fixed pay diverges only through rejections and the
// similarity-fair scheme equalises by construction.
func E3Compensation(p E3Params) *Table {
	t := &Table{
		ID:    "E3",
		Title: fmt.Sprintf("Compensation fairness (%d tasks × %d contributors, %d clusters)", p.Tasks, p.Contributors, p.Clusters),
		Columns: []string{"scheme", "pairs-checked", "axiom3-violation-rate",
			"mean-pay", "total-paid"},
		Notes: []string{
			"expected shape: similarity-fair drives Axiom-3 violations to zero;",
			"fixed pay violates through accept/reject asymmetry on similar work;",
			"quality-based violates where in-cluster quality noise crosses the pay tolerance.",
		},
	}
	for _, scheme := range pay.Schemes() {
		rng := stats.NewRNG(p.Seed + 0xe3)
		pop := workload.GeneratePopulation(workload.PopulationSpec{Workers: p.Contributors}, rng.Split())
		batch := workload.GenerateTasks(workload.TaskSpec{Tasks: p.Tasks, Requesters: 2}, pop, rng.Split())
		st := store.New(pop.Universe)
		for _, r := range batch.Requesters {
			mustDo(st.PutRequester(r))
		}
		ids := make([]model.WorkerID, len(pop.Workers))
		for i, w := range pop.Workers {
			ids[i] = w.ID
			mustDo(st.PutWorker(w))
		}
		var totalPaid float64
		var n int
		for _, task := range batch.Tasks {
			mustDo(st.PutTask(task))
			contribs, _ := workload.GenerateContributions(workload.ContributionSpec{
				Contributors: p.Contributors, Clusters: p.Clusters,
				QualityJitter: 0.15,
			}, task, ids, rng.Split())
			// Mark the lowest-quality cluster rejected under a 0.6 bar to
			// create the accept/reject asymmetry of §3.1.1.
			for _, c := range contribs {
				c.Accepted = c.Quality >= 0.6
			}
			pays := scheme.Pay(task, contribs)
			for i, c := range contribs {
				c.Paid = pays[i]
				totalPaid += pays[i]
				n++
				mustDo(st.PutContribution(c))
			}
		}
		rep := fairness.CheckAxiom3(st, fairness.DefaultConfig())
		meanPay := 0.0
		if n > 0 {
			meanPay = totalPaid / float64(n)
		}
		t.AddRow(scheme.Name(), rep.Checked, rep.ViolationRate(), meanPay, totalPaid)
	}
	return t
}

// E4Params sizes the malicious-worker detection experiment.
type E4Params struct {
	Workers   int
	Questions int
	// SpamFractions is the sweep; defaults to 0.1–0.5 in steps of 0.1,
	// bracketing the ~40% figure of Vuurens et al.
	SpamFractions []float64
	// SpamModels selects the malicious behaviours swept (default both
	// random and uniform spammers, the Vuurens taxonomy).
	SpamModels []workload.SpamModel
	Threshold  float64
	Seed       uint64
}

// DefaultE4Params returns the scale used in EXPERIMENTS.md.
func DefaultE4Params(seed uint64) E4Params {
	return E4Params{
		Workers: 200, Questions: 50,
		SpamFractions: []float64{0.1, 0.2, 0.3, 0.4, 0.5},
		SpamModels:    []workload.SpamModel{workload.SpamRandom, workload.SpamUniform},
		Threshold:     0.5,
		Seed:          seed,
	}
}

// E4Detection sweeps the spammer fraction and behaviour model and scores
// each detector's precision/recall/F1 — the Axiom 4 capability, quantified.
// The model dimension exposes each detector's blind spot: agreement-based
// detection cannot see uniform spammers (they agree with each other), and
// entropy-based detection cannot see random spammers (their answers look
// maximally varied). Gold questions are robust to both.
func E4Detection(p E4Params) *Table {
	models := p.SpamModels
	if len(models) == 0 {
		models = []workload.SpamModel{workload.SpamRandom}
	}
	t := &Table{
		ID:      "E4",
		Title:   fmt.Sprintf("Malicious-worker detection (%d workers, %d questions, threshold %.2f)", p.Workers, p.Questions, p.Threshold),
		Columns: []string{"detector", "spam-model", "spam-fraction", "precision", "recall", "f1"},
		Notes: []string{
			"expected shape: gold questions are robust to both spammer models; each",
			"crowd-signal detector has its complementary blind spot — agreement and",
			"majority-deviation miss uniform spammers as their share grows (they agree with",
			"each other and can *become* the majority), label-entropy misses random spammers.",
		},
	}
	for _, det := range detect.Detectors() {
		for _, m := range models {
			for _, frac := range p.SpamFractions {
				rng := stats.NewRNG(p.Seed + 0xe4 + uint64(frac*1000) + uint64(m))
				gen := workload.GenerateAnswers(workload.AnswerSpec{
					Workers: p.Workers, Questions: p.Questions,
					SpamFraction: frac, SpamModel: m,
				}, rng)
				scores := det.Score(gen.Set)
				flagged := detect.Classify(scores, p.Threshold)
				ev := detect.Evaluate(flagged, gen.Spammers)
				t.AddRow(det.Name(), m.String(), fmt.Sprintf("%.0f%%", frac*100),
					ev.Precision(), ev.Recall(), ev.F1())
			}
		}
	}
	return t
}

func mustDo(err error) {
	if err != nil {
		panic(err)
	}
}
