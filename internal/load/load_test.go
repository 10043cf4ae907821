package load

import (
	"reflect"
	"testing"

	"repro/crowdfair"
)

// TestBuildPlanDeterministic is the plan reproducibility contract: two
// plans from equal (spec, seed) are deeply equal — ids, payload bytes,
// request ordering, everything.
func TestBuildPlanDeterministic(t *testing.T) {
	spec := MixSpec{Workers: 30, Tasks: 10, Requests: 500}
	a := BuildPlan(spec, 99)
	b := BuildPlan(spec, 99)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (spec, seed) produced different plans")
	}
	c := BuildPlan(spec, 100)
	if reflect.DeepEqual(a.Requests, c.Requests) {
		t.Fatal("different seeds produced identical request sequences")
	}
}

// TestPlanReferencesOnlySeedEntities asserts the shed-safety invariant:
// every measured mutation references seed-phase entities only, so a shed
// request can never invalidate a later one.
func TestPlanReferencesOnlySeedEntities(t *testing.T) {
	p := BuildPlan(MixSpec{Workers: 20, Tasks: 8, Requests: 600}, 7)
	workers := map[string]bool{}
	for _, w := range p.Workers {
		workers[string(w.ID)] = true
	}
	tasks := map[string]bool{}
	for _, tk := range p.Tasks {
		tasks[string(tk.ID)] = true
	}
	contribWorkers := map[string]bool{}
	offerWorkers := map[string]bool{}
	muts, reads := 0, 0
	for i := range p.Requests {
		r := &p.Requests[i]
		switch {
		case r.contrib != nil:
			muts++
			if !tasks[string(r.contrib.Task)] || !workers[string(r.contrib.Worker)] {
				t.Fatalf("request %d references non-seed entities: %+v", i, r.contrib)
			}
			contribWorkers[string(r.contrib.Worker)] = true
		case r.worker != nil:
			muts++
			if !workers[string(r.worker.ID)] {
				t.Fatalf("request %d updates non-seed worker %s", i, r.worker.ID)
			}
		case r.offer != nil:
			muts++
			if !tasks[string(r.offer.Task)] || !workers[string(r.offer.Worker)] {
				t.Fatalf("request %d offers non-seed entities: %+v", i, r.offer)
			}
			offerWorkers[string(r.offer.Worker)] = true
		default:
			reads++
		}
	}
	if muts == 0 || reads == 0 {
		t.Fatalf("degenerate mix: %d mutations, %d reads", muts, reads)
	}
	if muts != p.Mutations() {
		t.Fatalf("Mutations() = %d, counted %d", p.Mutations(), muts)
	}
	// Offers and submissions must draw from disjoint worker halves — the
	// invariant that keeps the temporal axioms order-insensitive.
	for w := range contribWorkers {
		if offerWorkers[w] {
			t.Fatalf("worker %s both submits and receives offers", w)
		}
	}
}

// TestOracleReproducible pins that the serial oracle itself is a pure
// function of the plan.
func TestOracleReproducible(t *testing.T) {
	p := BuildPlan(MixSpec{Workers: 16, Tasks: 6, Requests: 120}, 3)
	cfg := crowdfair.DefaultAuditConfig()
	a, err := p.Oracle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Oracle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a == "" || a != b {
		t.Fatalf("oracle fingerprints %q vs %q", a, b)
	}
}
