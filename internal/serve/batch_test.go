package serve

import (
	"errors"
	"testing"

	"repro/crowdfair"
	"repro/internal/model"
	"repro/internal/store"
)

// TestContribScreenReadsInPlace bounds the allocations of screening one
// contribution whose id is new, whose task exists and whose worker does not:
// all three existence probes run, and none may copy the entity it finds (a
// cloned task is a struct and a skill vector; a cloned worker adds two
// attribute maps). What remains is the screen's own bookkeeping and the one
// not-found error it reports.
func TestContribScreenReadsInPlace(t *testing.T) {
	u := crowdfair.NewUniverse("s0", "s1", "s2")
	p := crowdfair.NewPlatform(u)
	if err := p.AddRequester(&model.Requester{ID: "r1"}); err != nil {
		t.Fatal(err)
	}
	if err := p.PostTask(&model.Task{ID: "t1", Requester: "r1", Skills: u.MustVector("s0"), Reward: 1}); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Platform: p, AuditEvery: -1})
	o := &op{
		kind:    opAddContribution,
		contrib: &model.Contribution{ID: "c1", Task: "t1", Worker: "nobody", Quality: 0.5},
		done:    make(chan error, 1),
	}
	g := []*op{o}
	var err error
	allocs := testing.AllocsPerRun(200, func() {
		s.applyContribAdds(g)
		err = <-o.done
	})
	if !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("screen outcome = %v, want not-found for the worker", err)
	}
	if allocs > 6 {
		t.Fatalf("screening one contribution allocated %.0f times, want <= 6", allocs)
	}
	t.Logf("allocs per screened contribution: %.0f", allocs)
}
