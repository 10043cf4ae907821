package workload

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/similarity"
	"repro/internal/stats"
)

func TestGeneratePopulationShape(t *testing.T) {
	pop := GeneratePopulation(PopulationSpec{Workers: 40}, stats.NewRNG(1))
	if len(pop.Workers) != 40 {
		t.Fatalf("workers = %d", len(pop.Workers))
	}
	// Default 4 archetypes × 3 skills = 12-skill universe.
	if pop.Universe.Size() != 12 {
		t.Fatalf("universe = %d", pop.Universe.Size())
	}
	// Every worker carries declared country and computed acceptance ratio.
	for _, w := range pop.Workers {
		if _, ok := w.Declared["country"]; !ok {
			t.Fatalf("worker %s missing country", w.ID)
		}
		ratio, ok := w.Computed["acceptance_ratio"]
		if !ok || ratio.Num < 0 || ratio.Num > 1 {
			t.Fatalf("worker %s acceptance ratio = %v", w.ID, ratio)
		}
	}
}

func TestGeneratePopulationArchetypesAreSimilar(t *testing.T) {
	pop := GeneratePopulation(PopulationSpec{Workers: 20}, stats.NewRNG(2))
	// Same-archetype workers have identical skills (no noise by default);
	// different archetypes are disjoint.
	byArch := make(map[int][]int)
	for i, w := range pop.Workers {
		byArch[pop.Archetype[w.ID]] = append(byArch[pop.Archetype[w.ID]], i)
	}
	for arch, idxs := range byArch {
		for _, i := range idxs[1:] {
			if !slices.Equal(pop.Workers[idxs[0]].Skills, pop.Workers[i].Skills) {
				t.Fatalf("archetype %d skills differ", arch)
			}
		}
	}
	if similarity.Cosine(pop.Workers[0].SkillBits(), pop.Workers[1].SkillBits()) != 0 {
		t.Fatal("adjacent workers should be different archetypes (round-robin)")
	}
}

func TestGeneratePopulationDeterministic(t *testing.T) {
	a := GeneratePopulation(PopulationSpec{Workers: 15, SkillNoise: 0.3}, stats.NewRNG(7))
	b := GeneratePopulation(PopulationSpec{Workers: 15, SkillNoise: 0.3}, stats.NewRNG(7))
	if !reflect.DeepEqual(a.Workers, b.Workers) {
		t.Fatal("same seed produced different populations")
	}
}

func TestGenerateTasksShape(t *testing.T) {
	rng := stats.NewRNG(3)
	pop := GeneratePopulation(PopulationSpec{Workers: 20}, rng.Split())
	batch := GenerateTasks(TaskSpec{Tasks: 30, Requesters: 5, Quota: 2, OverPublish: 1.5}, pop, rng.Split())
	if len(batch.Tasks) != 30 || len(batch.Requesters) != 5 {
		t.Fatalf("batch = %d tasks, %d requesters", len(batch.Tasks), len(batch.Requesters))
	}
	for _, task := range batch.Tasks {
		if task.Quota != 2 || task.Published != 3 {
			t.Fatalf("task %s quota/published = %d/%d", task.ID, task.Quota, task.Published)
		}
		if task.Reward < 1.0 || task.Reward > 1.05 {
			t.Fatalf("task %s reward = %v", task.ID, task.Reward)
		}
	}
	// Every task must have at least one qualified worker.
	for _, task := range batch.Tasks {
		qualified := false
		for _, w := range pop.Workers {
			if w.Skills.Covers(task.Skills) {
				qualified = true
				break
			}
		}
		if !qualified {
			t.Fatalf("task %s has no qualified workers", task.ID)
		}
	}
}

func TestGenerateTasksComparableCrossRequesterPairsExist(t *testing.T) {
	rng := stats.NewRNG(4)
	pop := GeneratePopulation(PopulationSpec{Workers: 8}, rng.Split())
	batch := GenerateTasks(TaskSpec{Tasks: 20, Requesters: 5}, pop, rng.Split())
	found := false
	for i := 0; i < len(batch.Tasks) && !found; i++ {
		for j := i + 1; j < len(batch.Tasks); j++ {
			a, b := batch.Tasks[i], batch.Tasks[j]
			if a.Requester != b.Requester && slices.Equal(a.Skills, b.Skills) {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no comparable cross-requester task pairs (Axiom 2 needs them)")
	}
}

func TestGenerateAnswersSpamFraction(t *testing.T) {
	rng := stats.NewRNG(5)
	gen := GenerateAnswers(AnswerSpec{Workers: 100, Questions: 10, SpamFraction: 0.4}, rng)
	spammers := 0
	for _, isSpam := range gen.Spammers {
		if isSpam {
			spammers++
		}
	}
	if spammers != 40 {
		t.Fatalf("spammers = %d, want 40", spammers)
	}
	if len(gen.Set.Answers) != 100*10 {
		t.Fatalf("answers = %d", len(gen.Set.Answers))
	}
	if len(gen.Set.Gold) == 0 || len(gen.Set.Gold) == 10 {
		t.Fatalf("gold questions = %d, want a strict subset", len(gen.Set.Gold))
	}
}

func TestGenerateAnswersHonestAccuracy(t *testing.T) {
	rng := stats.NewRNG(6)
	gen := GenerateAnswers(AnswerSpec{
		Workers: 50, Questions: 40, SpamFraction: 0, HonestAccuracy: 0.9,
	}, rng)
	correct, total := 0, 0
	for _, a := range gen.Set.Answers {
		total++
		if a.Label == a.Question%gen.Set.Labels {
			correct++
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.85 || acc > 0.95 {
		t.Fatalf("honest accuracy = %v, want ~0.9", acc)
	}
}

func TestGenerateContributionsClusters(t *testing.T) {
	rng := stats.NewRNG(7)
	pop := GeneratePopulation(PopulationSpec{Workers: 12}, rng.Split())
	batch := GenerateTasks(TaskSpec{Tasks: 1}, pop, rng.Split())
	contribs, clusters := GenerateContributions(ContributionSpec{
		Contributors: 12, Clusters: 3,
	}, batch.Tasks[0], workerIDs(pop), rng.Split())
	if len(contribs) != 12 {
		t.Fatalf("contributions = %d", len(contribs))
	}
	// Same-cluster contributions must be highly similar; cross-cluster not.
	for i := 0; i < len(contribs); i++ {
		for j := i + 1; j < len(contribs); j++ {
			sim := similarity.ContributionSimilarity(contribs[i], contribs[j])
			same := clusters[contribs[i].ID] == clusters[contribs[j].ID]
			if same && sim < 0.8 {
				t.Fatalf("same-cluster similarity = %v", sim)
			}
			if !same && sim > 0.95 {
				t.Fatalf("cross-cluster similarity = %v", sim)
			}
		}
	}
}

func TestGenerateContributionsQuality(t *testing.T) {
	rng := stats.NewRNG(8)
	pop := GeneratePopulation(PopulationSpec{Workers: 6}, rng.Split())
	batch := GenerateTasks(TaskSpec{Tasks: 1}, pop, rng.Split())
	contribs, clusters := GenerateContributions(ContributionSpec{
		Contributors: 6, Clusters: 2, QualityByCluster: []float64{1.0, 0.3},
	}, batch.Tasks[0], workerIDs(pop), rng.Split())
	for _, c := range contribs {
		want := []float64{1.0, 0.3}[clusters[c.ID]]
		if c.Quality != want {
			t.Fatalf("contribution %s quality = %v, want %v", c.ID, c.Quality, want)
		}
	}
}

func TestGenerateContributionsValidate(t *testing.T) {
	rng := stats.NewRNG(9)
	pop := GeneratePopulation(PopulationSpec{Workers: 5}, rng.Split())
	batch := GenerateTasks(TaskSpec{Tasks: 1}, pop, rng.Split())
	contribs, _ := GenerateContributions(ContributionSpec{Contributors: 5, Clusters: 2},
		batch.Tasks[0], workerIDs(pop), rng.Split())
	for _, c := range contribs {
		if err := c.Validate(); err != nil {
			t.Fatalf("generated contribution invalid: %v", err)
		}
	}
}

func TestPopulationValidatesAgainstUniverse(t *testing.T) {
	pop := GeneratePopulation(PopulationSpec{Workers: 10, SkillNoise: 0.5}, stats.NewRNG(10))
	for _, w := range pop.Workers {
		if err := w.Validate(pop.Universe); err != nil {
			t.Fatalf("generated worker invalid: %v", err)
		}
	}
	batch := GenerateTasks(TaskSpec{Tasks: 10}, pop, stats.NewRNG(11))
	for _, task := range batch.Tasks {
		if err := task.Validate(pop.Universe); err != nil {
			t.Fatalf("generated task invalid: %v", err)
		}
	}
	for _, r := range batch.Requesters {
		if err := r.Validate(); err != nil {
			t.Fatalf("generated requester invalid: %v", err)
		}
	}
}

func TestGenerateTasksIDsUnique(t *testing.T) {
	rng := stats.NewRNG(12)
	pop := GeneratePopulation(PopulationSpec{Workers: 4}, rng.Split())
	batch := GenerateTasks(TaskSpec{Tasks: 50}, pop, rng.Split())
	seen := map[string]bool{}
	for _, task := range batch.Tasks {
		if seen[string(task.ID)] {
			t.Fatalf("duplicate task id %s", task.ID)
		}
		seen[string(task.ID)] = true
	}
}

// workerIDs extracts the population's worker ids in order.
func workerIDs(pop *Population) []model.WorkerID {
	out := make([]model.WorkerID, len(pop.Workers))
	for i, w := range pop.Workers {
		out[i] = w.ID
	}
	return out
}
