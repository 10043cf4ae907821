// Package repro's root benchmark suite regenerates experiments E1–E9 at
// reduced scale under testing.B, plus micro-benchmarks for the hot
// primitives (similarity measures, candidate-pair generation, assignment,
// rule evaluation) and the incremental-audit comparison
// (BenchmarkAuditFullRescan vs BenchmarkAuditIncremental). Run with:
//
//	go test -bench=. -benchmem
//
// The experiment tables themselves come from `crowdfair experiments`
// (committed as EXPERIMENTS.md); these benchmarks measure the cost of
// regenerating them and of the underlying kernels.
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/assign"
	"repro/internal/audit"
	"repro/internal/eventlog"
	"repro/internal/experiments"
	"repro/internal/fairness"
	"repro/internal/model"
	"repro/internal/pay"
	"repro/internal/sim"
	"repro/internal/similarity"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/transparency"
	"repro/internal/workload"
)

const benchSeed = 42

// --- One benchmark per experiment table (E1–E8) ---

func BenchmarkE1Assignment(b *testing.B) {
	p := experiments.E1Params{Workers: 200, Tasks: 100, Seed: benchSeed}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.E1Assignment(p)
	}
}

func BenchmarkE2Visibility(b *testing.B) {
	p := experiments.E2Params{Workers: 150, Tasks: 60, Seed: benchSeed}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.E2Visibility(p)
	}
}

func BenchmarkE3Compensation(b *testing.B) {
	p := experiments.E3Params{Contributors: 20, Clusters: 3, Tasks: 10, Seed: benchSeed}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.E3Compensation(p)
	}
}

func BenchmarkE4Detection(b *testing.B) {
	p := experiments.E4Params{
		Workers: 100, Questions: 40,
		SpamFractions: []float64{0.2, 0.4}, Threshold: 0.5, Seed: benchSeed,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.E4Detection(p)
	}
}

func BenchmarkE5Completion(b *testing.B) {
	p := experiments.E5Params{
		WorkersPerTask: 10, Tasks: 20, OverPublish: []float64{1.0, 2.0}, Seed: benchSeed,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.E5Completion(p)
	}
}

func BenchmarkE6Retention(b *testing.B) {
	p := experiments.E6Params{Workers: 30, Tasks: 60, Rounds: 3, Seed: benchSeed}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.E6Retention(p)
	}
}

func BenchmarkE7CheckScale(b *testing.B) {
	p := experiments.E7Params{Sizes: []int{100, 300}, Seed: benchSeed}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.E7CheckScale(p)
	}
}

func BenchmarkE8RuleEngine(b *testing.B) {
	p := experiments.E8Params{RuleCounts: []int{1, 20, 50}, Evaluations: 200, Seed: benchSeed}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.E8RuleEngine(p)
	}
}

func BenchmarkE9Ablations(b *testing.B) {
	p := experiments.E9Params{Workers: 80, Tasks: 40, Lambdas: []float64{0, 0.5, 1}, Seed: benchSeed}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.E9Ablations(p)
	}
}

func BenchmarkRepairAxiom1(b *testing.B) {
	pop, batch, st := benchEnv(200, 100)
	res, err := (assign.RequesterCentric{}).Assign(&assign.Problem{
		Workers: pop.Workers, Tasks: batch.Tasks, Capacity: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := fairness.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fairness.RepairAxiom1(st, res.Offers, cfg)
	}
}

// --- Incremental audit engine: mutate-then-audit, full rescan vs delta ---

// auditBenchTrace builds the E11-style monitoring workload: a clustered
// population with biased offers, i.e. standing Axiom 1 material.
func auditBenchTrace(b *testing.B, workers int) (*store.Store, *eventlog.Log, *workload.Population, *workload.Batch, *stats.RNG) {
	b.Helper()
	rng := stats.NewRNG(benchSeed)
	pop := workload.GeneratePopulation(workload.PopulationSpec{
		Workers: workers, Archetypes: 8,
	}, rng.Split())
	batch := workload.GenerateTasks(workload.TaskSpec{Tasks: workers / 4, Quota: 2}, pop, rng.Split())
	st := store.New(pop.Universe)
	for _, r := range batch.Requesters {
		if err := st.PutRequester(r); err != nil {
			b.Fatal(err)
		}
	}
	for _, w := range pop.Workers {
		if err := st.PutWorker(w); err != nil {
			b.Fatal(err)
		}
	}
	for _, t := range batch.Tasks {
		if err := st.PutTask(t); err != nil {
			b.Fatal(err)
		}
	}
	log := eventlog.New()
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
	return st, log, pop, batch, rng
}

// benchmarkMutateThenAudit dirties ~1% of the workers (attribute updates
// plus fresh offers) per iteration, then audits all five axioms — either
// with the from-scratch full rescan or through the incremental engine. The
// two must report identical violations; the incremental mode is the
// tentpole's headline number (≥5× at 1k workers / 1% dirty).
func benchmarkMutateThenAudit(b *testing.B, workers int, incremental bool) {
	st, log, pop, batch, rng := auditBenchTrace(b, workers)
	cfg := fairness.DefaultConfig()
	var eng *audit.Engine
	if incremental {
		eng = audit.New(st, log, cfg)
		eng.Audit() // cold start outside the timed loop
	}
	nDirty := workers / 100
	if nDirty < 1 {
		nDirty = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < nDirty; j++ {
			w, err := st.Worker(pop.Workers[rng.Intn(len(pop.Workers))].ID)
			if err != nil {
				b.Fatal(err)
			}
			w.Computed[model.AttrAcceptanceRatio] = model.Num(rng.Float64())
			if err := st.UpdateWorker(w); err != nil {
				b.Fatal(err)
			}
			log.MustAppend(eventlog.Event{
				Type:   eventlog.TaskOffered,
				Worker: pop.Workers[rng.Intn(len(pop.Workers))].ID,
				Task:   batch.Tasks[rng.Intn(len(batch.Tasks))].ID,
			})
		}
		if incremental {
			eng.Audit()
		} else {
			fairness.CheckAll(st, log, cfg)
		}
	}
}

func BenchmarkAuditFullRescan(b *testing.B)     { benchmarkMutateThenAudit(b, 1000, false) }
func BenchmarkAuditIncremental(b *testing.B)    { benchmarkMutateThenAudit(b, 1000, true) }
func BenchmarkAuditFullRescan300(b *testing.B)  { benchmarkMutateThenAudit(b, 300, false) }
func BenchmarkAuditIncremental300(b *testing.B) { benchmarkMutateThenAudit(b, 300, true) }

// --- Audit publication: a pass costs what it changed, not what stands ---

// publishBenchEngine builds a primed engine over ≥ 20k standing violations:
// 100 tasks, each answered identically by the same 30 workers and paid at
// two rates, so every task holds 15×15 Axiom 3 violations.
func publishBenchEngine(b *testing.B) (*store.Store, *audit.Engine, []*model.Contribution) {
	b.Helper()
	u := model.MustUniverse("go", "nlp")
	st, log := store.New(u), eventlog.New()
	if err := st.PutRequester(&model.Requester{ID: "r1"}); err != nil {
		b.Fatal(err)
	}
	for w := 0; w < 30; w++ {
		if err := st.PutWorker(&model.Worker{ID: model.WorkerID(fmt.Sprintf("w%02d", w)), Skills: u.MustVector("go")}); err != nil {
			b.Fatal(err)
		}
	}
	var contribs []*model.Contribution
	for t := 0; t < 100; t++ {
		tid := model.TaskID(fmt.Sprintf("t%03d", t))
		if err := st.PutTask(&model.Task{ID: tid, Requester: "r1", Skills: u.MustVector("go"), Reward: 1}); err != nil {
			b.Fatal(err)
		}
		for w := 0; w < 30; w++ {
			c := &model.Contribution{
				ID:   model.ContributionID(fmt.Sprintf("c%03d-%02d", t, w)),
				Task: tid, Worker: model.WorkerID(fmt.Sprintf("w%02d", w)),
				Text: "the canonical answer", Quality: 0.7, Paid: []float64{0.5, 2.0}[w%2],
			}
			if err := st.PutContribution(c); err != nil {
				b.Fatal(err)
			}
			contribs = append(contribs, c)
		}
	}
	eng := audit.New(st, log, fairness.DefaultConfig())
	standing := 0
	for _, r := range eng.Audit() {
		standing += len(r.Violations)
	}
	if standing < 20000 {
		b.Fatalf("only %d standing violations, want >= 20000", standing)
	}
	return st, eng, contribs
}

// benchmarkAuditPublish times one pass including its fingerprint. With
// dirty=false nothing moved since the last pass: no violation may be
// rendered, sorted or copied, so ns/op and allocs/op are small constants
// whatever stands. With dirty=true each iteration first re-pays one
// contribution: one task's 225 violations are retracted and re-found, the
// ones naming the re-paid contribution change, and one merge republishes.
func benchmarkAuditPublish(b *testing.B, dirty bool) {
	st, eng, contribs := publishBenchEngine(b)
	var pass audit.Pass
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dirty {
			c := contribs[(i*31)%len(contribs)]
			c.Paid = 2.5 - c.Paid
			if err := st.UpdateContribution(c); err != nil {
				b.Fatal(err)
			}
		}
		pass = eng.AuditPass()
		if !dirty && pass.Changed != 0 {
			b.Fatalf("quiet pass changed %d violations", pass.Changed)
		}
	}
	b.StopTimer()
	if want := audit.Fingerprint(pass.Reports); pass.Fingerprint != want {
		b.Fatalf("running fingerprint %s != from-scratch %s", pass.Fingerprint, want)
	}
}

func BenchmarkAuditPublishQuiet(b *testing.B)    { benchmarkAuditPublish(b, false) }
func BenchmarkAuditPublishOneDirty(b *testing.B) { benchmarkAuditPublish(b, true) }

// --- Store: contended mutation ---

// contendedStoreEnv builds a populated store plus disjoint per-goroutine
// worker groups, so the benchmark contends on the store's lock rather than
// on individual entities.
func contendedStoreEnv(b *testing.B, goroutines int) (*store.Store, *eventlog.Log, [][]*model.Worker) {
	b.Helper()
	rng := stats.NewRNG(benchSeed)
	pop := workload.GeneratePopulation(workload.PopulationSpec{
		Workers: 2048, Archetypes: 8,
	}, rng.Split())
	st := store.New(pop.Universe)
	if err := st.BulkPutWorkers(pop.Workers); err != nil {
		b.Fatal(err)
	}
	groups := make([][]*model.Worker, goroutines)
	for i, w := range pop.Workers {
		groups[i%goroutines] = append(groups[i%goroutines], w)
	}
	return st, eventlog.New(), groups
}

// benchmarkStoreContendedMutate measures raw mutation throughput with 8
// goroutines hammering UpdateWorker on the store's one write lock,
// optionally with a concurrent incremental auditor reading the changelog
// under the same lock.
func benchmarkStoreContendedMutate(b *testing.B, withAudit bool) {
	const goroutines = 8
	st, log, groups := contendedStoreEnv(b, goroutines)
	stop := make(chan struct{})
	auditDone := make(chan struct{})
	if withAudit {
		eng := audit.New(st, log, fairness.DefaultConfig())
		eng.Audit() // cold start outside the timed loop
		go func() {
			defer close(auditDone)
			for {
				select {
				case <-stop:
					return
				default:
					eng.Audit()
				}
			}
		}()
	}
	perG := b.N/goroutines + 1
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ws := groups[g]
			for i := 0; i < perG; i++ {
				w := ws[i%len(ws)]
				w.Computed[model.AttrAcceptanceRatio] = model.Num(float64(i%100) / 100)
				if err := st.UpdateWorker(w); err != nil {
					b.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	b.StopTimer()
	if withAudit {
		close(stop)
		<-auditDone
	}
}

func BenchmarkStoreContendedMutate(b *testing.B)      { benchmarkStoreContendedMutate(b, false) }
func BenchmarkStoreContendedMutateAudit(b *testing.B) { benchmarkStoreContendedMutate(b, true) }

// --- Kernel micro-benchmarks ---

func benchEnv(workers, tasks int) (*workload.Population, *workload.Batch, *store.Store) {
	rng := stats.NewRNG(benchSeed)
	pop := workload.GeneratePopulation(workload.PopulationSpec{Workers: workers}, rng.Split())
	batch := workload.GenerateTasks(workload.TaskSpec{Tasks: tasks, Requesters: 5, Quota: 2}, pop, rng.Split())
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

func BenchmarkAssigners(b *testing.B) {
	pop, batch, _ := benchEnv(200, 100)
	for _, a := range assign.All() {
		b.Run(a.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := a.Assign(&assign.Problem{
					Workers: pop.Workers, Tasks: batch.Tasks, Capacity: 2,
					RNG: stats.NewRNG(benchSeed),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAxiom1Check(b *testing.B) {
	pop, batch, st := benchEnv(400, 100)
	res, err := (assign.FairRoundRobin{}).Assign(&assign.Problem{
		Workers: pop.Workers, Tasks: batch.Tasks, Capacity: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name       string
		exhaustive bool
	}{{"indexed", false}, {"exhaustive", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := fairness.DefaultConfig()
			cfg.Exhaustive = mode.exhaustive
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fairness.Axiom1FromOffers(st, res.Offers, cfg)
			}
		})
	}
}

func BenchmarkSimilarityMeasures(b *testing.B) {
	u := model.MustUniverse("a", "b", "c", "d", "e", "f", "g", "h")
	x := u.MustVector("a", "c", "e", "g").Pack()
	y := u.MustVector("a", "c", "f", "h").Pack()
	for _, m := range []similarity.VectorMeasure{
		similarity.MeasureCosine, similarity.MeasureJaccard, similarity.MeasureHamming,
	} {
		b.Run(m.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Func(x, y)
			}
		})
	}
}

func BenchmarkNGramSimilarity(b *testing.B) {
	a := "the quick brown fox jumps over the lazy dog near the river bank at dawn"
	c := "the quick brown fox leaps over the lazy cat near the river bend at dusk"
	b.Run("profile-build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			similarity.NewNGramProfile(a, 3)
		}
	})
	b.Run("compare", func(b *testing.B) {
		pa := similarity.NewNGramProfile(a, 3)
		pc := similarity.NewNGramProfile(c, 3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pa.Similarity(pc)
		}
	})
}

func BenchmarkPaySchemes(b *testing.B) {
	rng := stats.NewRNG(benchSeed)
	pop := workload.GeneratePopulation(workload.PopulationSpec{Workers: 30}, rng.Split())
	batch := workload.GenerateTasks(workload.TaskSpec{Tasks: 1}, pop, rng.Split())
	ids := make([]model.WorkerID, len(pop.Workers))
	for i, w := range pop.Workers {
		ids[i] = w.ID
	}
	contribs, _ := workload.GenerateContributions(workload.ContributionSpec{
		Contributors: 30, Clusters: 3, QualityJitter: 0.1,
	}, batch.Tasks[0], ids, rng.Split())
	for _, s := range pay.Schemes() {
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Pay(batch.Tasks[0], contribs)
			}
		})
	}
}

func BenchmarkPolicyParse(b *testing.B) {
	src := experiments.SyntheticPolicy(50).String()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := transparency.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPolicyEvaluate(b *testing.B) {
	pol := experiments.SyntheticPolicy(50)
	cat := transparency.StandardCatalogue()
	ctx := experiments.E8Context()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pol.Evaluate(cat, ctx, transparency.AudienceWorkers, transparency.TriggerTaskView); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarketplaceRound(b *testing.B) {
	rng := stats.NewRNG(benchSeed)
	pop := workload.GeneratePopulation(workload.PopulationSpec{Workers: 100}, rng.Split())
	batch := workload.GenerateTasks(workload.TaskSpec{Tasks: 50, Quota: 2}, pop, rng.Split())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := sim.Run(sim.Config{
			Population: pop, Batch: batch, Rounds: 1, Seed: benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreInserts(b *testing.B) {
	u := model.MustUniverse("a", "b", "c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := store.New(u)
		for j := 0; j < 100; j++ {
			w := &model.Worker{
				ID:     model.WorkerID(fmt.Sprintf("w%04d", j)),
				Skills: u.MustVector("a"),
			}
			if err := st.PutWorker(w); err != nil {
				b.Fatal(err)
			}
		}
	}
}
