package fairness

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/store"
)

func TestRepairAxiom1GrantsUnion(t *testing.T) {
	s := twinStore(t)
	offers := map[model.WorkerID][]model.TaskID{
		"w1": {"t1", "t2"},
		"w2": {"t1"},
	}
	grants := RepairAxiom1(s, offers, DefaultConfig())
	if len(grants) != 1 || grants[0].Worker != "w2" || grants[0].Task != "t2" {
		t.Fatalf("grants = %v", grants)
	}
	// After applying the grants, the checker must pass.
	repaired := ApplyGrants(offers, grants)
	rep := Axiom1FromOffers(s, repaired, DefaultConfig())
	if !rep.Satisfied() {
		t.Fatalf("repair incomplete: %v", rep.Violations)
	}
	// The original offers map must be untouched.
	if len(offers["w2"]) != 1 {
		t.Fatal("input offers mutated")
	}
}

func TestRepairAxiom1NeverRemovesAccess(t *testing.T) {
	s := twinStore(t)
	offers := map[model.WorkerID][]model.TaskID{
		"w1": {"t1"},
		"w2": {"t2"},
	}
	grants := RepairAxiom1(s, offers, DefaultConfig())
	repaired := ApplyGrants(offers, grants)
	// Both twins end with both tasks; nothing was taken away.
	for _, w := range []model.WorkerID{"w1", "w2"} {
		if len(repaired[w]) != 2 {
			t.Fatalf("worker %s offers = %v", w, repaired[w])
		}
	}
}

func TestRepairAxiom1NoViolationsNoGrants(t *testing.T) {
	s := twinStore(t)
	offers := map[model.WorkerID][]model.TaskID{
		"w1": {"t1"},
		"w2": {"t1"},
	}
	if grants := RepairAxiom1(s, offers, DefaultConfig()); len(grants) != 0 {
		t.Fatalf("grants on a compliant trace: %v", grants)
	}
}

func TestRepairAxiom1TransitiveGroups(t *testing.T) {
	// Three mutually similar workers with pairwise-different offers must
	// all converge on the union.
	u := model.MustUniverse("go")
	s := store.New(u)
	if err := s.PutRequester(&model.Requester{ID: "r"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w := &model.Worker{
			ID:       model.WorkerID(fmt.Sprintf("w%d", i)),
			Computed: model.Attributes{model.AttrAcceptanceRatio: model.Num(0.9)},
			Skills:   u.MustVector("go"),
		}
		if err := s.PutWorker(w); err != nil {
			t.Fatal(err)
		}
		task := &model.Task{ID: model.TaskID(fmt.Sprintf("t%d", i)), Requester: "r", Skills: u.MustVector("go"), Reward: 1}
		if err := s.PutTask(task); err != nil {
			t.Fatal(err)
		}
	}
	offers := map[model.WorkerID][]model.TaskID{
		"w0": {"t0"}, "w1": {"t1"}, "w2": {"t2"},
	}
	grants := RepairAxiom1(s, offers, DefaultConfig())
	if len(grants) != 6 { // each worker gains the two tasks it lacks
		t.Fatalf("grants = %v", grants)
	}
	rep := Axiom1FromOffers(s, ApplyGrants(offers, grants), DefaultConfig())
	if !rep.Satisfied() {
		t.Fatalf("transitive repair incomplete: %v", rep.Violations)
	}
}

func TestRepairAxiom3TopsUpToMax(t *testing.T) {
	s := twinStore(t)
	same := "identical answer text for the similarity check to cluster on"
	for i, paid := range []float64{2.0, 1.0, 0.0} {
		worker := model.WorkerID(fmt.Sprintf("w%d", i+1))
		if i == 2 {
			worker = "w3"
		}
		c := &model.Contribution{
			ID: model.ContributionID(fmt.Sprintf("c%d", i)), Task: "t1",
			Worker: worker, Text: same, Quality: 0.9,
			Accepted: i == 0, Paid: paid,
		}
		if err := s.PutContribution(c); err != nil {
			t.Fatal(err)
		}
	}
	adjs := RepairAxiom3(s, DefaultConfig())
	if len(adjs) != 2 {
		t.Fatalf("adjustments = %v", adjs)
	}
	if math.Abs(TotalAdjustment(adjs)-3.0) > 1e-9 { // (2-1) + (2-0)
		t.Fatalf("total = %v, want 3", TotalAdjustment(adjs))
	}
	// Deltas are always positive and target the cluster max.
	for _, a := range adjs {
		if a.Delta <= 0 {
			t.Fatalf("non-positive delta: %v", a)
		}
	}
}

func TestRepairAxiom3AfterApplySatisfies(t *testing.T) {
	s := twinStore(t)
	same := "identical answer text"
	for i, paid := range []float64{2.0, 0.5} {
		c := &model.Contribution{
			ID: model.ContributionID(fmt.Sprintf("c%d", i)), Task: "t1",
			Worker: model.WorkerID(fmt.Sprintf("w%d", i+1)),
			Text:   same, Quality: 0.9, Accepted: true, Paid: paid,
		}
		if err := s.PutContribution(c); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	adjs := RepairAxiom3(s, cfg)
	// Apply the top-ups back into the store.
	for _, a := range adjs {
		c, err := s.Contribution(a.Contribution)
		if err != nil {
			t.Fatal(err)
		}
		c.Paid += a.Delta
		if err := s.UpdateContribution(c); err != nil {
			t.Fatal(err)
		}
	}
	if rep := CheckAxiom3(s, cfg); !rep.Satisfied() {
		t.Fatalf("repair incomplete: %v", rep.Violations)
	}
}

func TestRepairAxiom3IgnoresDissimilar(t *testing.T) {
	s := twinStore(t)
	texts := []string{"databases and indexing", "zzz qqq unrelated spam"}
	for i, text := range texts {
		c := &model.Contribution{
			ID: model.ContributionID(fmt.Sprintf("c%d", i)), Task: "t1",
			Worker: model.WorkerID(fmt.Sprintf("w%d", i+1)),
			Text:   text, Quality: 0.9, Accepted: true, Paid: float64(i),
		}
		if err := s.PutContribution(c); err != nil {
			t.Fatal(err)
		}
	}
	if adjs := RepairAxiom3(s, DefaultConfig()); len(adjs) != 0 {
		t.Fatalf("dissimilar contributions adjusted: %v", adjs)
	}
}
