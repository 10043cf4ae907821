package crowdfair

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/store"
)

// TestOfferScreenReadsInPlace bounds the allocations of screening an offer
// (offeredTask, behind Offer and OfferBatch): the existence probes must not
// copy the task and worker they find (a
// cloned task is a struct and a skill vector; a cloned worker adds two
// attribute maps). A valid offer then screens without allocating, and a
// dangling reference costs only the wrapped not-found error, whose text is
// the store's own.
func TestOfferScreenReadsInPlace(t *testing.T) {
	p := demoPlatform(t)
	var err error
	valid := testing.AllocsPerRun(200, func() {
		_, err = p.offeredTask("t1", "w1")
	})
	if err != nil {
		t.Fatal(err)
	}
	if valid != 0 {
		t.Fatalf("screening a valid offer allocated %.0f times, want 0", valid)
	}

	events := p.Log().Len()
	for _, tc := range []struct {
		o    Offer
		want string
	}{
		{Offer{Task: "t1", Worker: "nobody"}, "worker nobody: store: not found"},
		{Offer{Task: "nothing", Worker: "w1"}, "task nothing: store: not found"},
	} {
		tc := tc
		dangling := testing.AllocsPerRun(200, func() { _, err = p.offeredTask(tc.o.Task, tc.o.Worker) })
		if !errors.Is(err, store.ErrNotFound) || err.Error() != tc.want {
			t.Fatalf("offeredTask(%+v) = %v, want %q wrapping store.ErrNotFound", tc.o, err, tc.want)
		}
		// The wrapped error alone: 3 allocations, 4 under the race detector.
		if dangling > 4 {
			t.Fatalf("screening %+v allocated %.0f times, want <= 4 (the error alone)", tc.o, dangling)
		}
		if err := p.OfferBatch([]Offer{{Task: "t1", Worker: "w2"}, tc.o}); err == nil || err.Error() != tc.want {
			t.Fatalf("OfferBatch with %+v = %v, want %q", tc.o, err, tc.want)
		}
	}
	if n := p.Log().Len(); n != events {
		t.Fatalf("trace grew %d -> %d events: a rejected batch must append nothing", events, n)
	}
}

// TestRecordContributionsReadsInPlace bounds the allocations of rejecting one
// contribution whose task exists and whose worker does not: the store's
// reference probes (store.checkContribRefs) must not copy the task they find
// (a cloned task is a struct and a skill vector). What remains is the
// one-element slice and the wrapped not-found error.
func TestRecordContributionsReadsInPlace(t *testing.T) {
	p := demoPlatform(t)
	version, events := p.Version(), p.Log().Len()
	c := &Contribution{ID: "c1", Task: "t1", Worker: "nobody", Quality: 0.5}
	var err error
	allocs := testing.AllocsPerRun(200, func() {
		err = p.RecordContributions([]*Contribution{c})
	})
	if !errors.Is(err, store.ErrNotFound) || !strings.Contains(err.Error(), "worker nobody") {
		t.Fatalf("RecordContributions = %v, want not-found for the worker", err)
	}
	// 5 allocations, 6 under the race detector; a cloned task adds 2.
	if allocs > 6 {
		t.Fatalf("rejecting one contribution allocated %.0f times, want <= 6", allocs)
	}
	if p.Version() != version || p.Log().Len() != events {
		t.Fatal("a rejected contribution changed the store or the trace")
	}
	t.Logf("allocs per rejected contribution: %.0f", allocs)
}
