package reviews

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
)

func TestPostAndAggregate(t *testing.T) {
	b := NewBoard()
	if err := b.Post(Review{
		Worker: "w1", Requester: "r1",
		Scores: [4]int{5, 4, 3, 2},
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Post(Review{
		Worker: "w2", Requester: "r1",
		Scores: [4]int{3, 4, 5, 4},
	}); err != nil {
		t.Fatal(err)
	}
	agg, ok := b.Aggregate("r1")
	if !ok || agg.Reviews != 2 {
		t.Fatalf("aggregate = %+v, %v", agg, ok)
	}
	if agg.Mean[AxisPay] != 4 || agg.Mean[AxisSpeed] != 4 {
		t.Fatalf("means = %v", agg.Mean)
	}
	if math.Abs(agg.Overall()-3.75) > 1e-9 {
		t.Fatalf("overall = %v", agg.Overall())
	}
	if !strings.Contains(agg.String(), "3.75 overall") {
		t.Fatalf("rendering = %s", agg)
	}
}

func TestPostIsIdempotentPerWorker(t *testing.T) {
	b := NewBoard()
	for i := 0; i < 5; i++ {
		if err := b.Post(Review{Worker: "w1", Requester: "r1", Scores: [4]int{1, 1, 1, 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if agg, _ := b.Aggregate("r1"); agg.Reviews != 1 {
		t.Fatalf("count = %d, want 1 (revisions, not stacking)", agg.Reviews)
	}
	// A revised review replaces the old scores.
	if err := b.Post(Review{Worker: "w1", Requester: "r1", Scores: [4]int{5, 5, 5, 5}}); err != nil {
		t.Fatal(err)
	}
	agg, _ := b.Aggregate("r1")
	if agg.Overall() != 5 {
		t.Fatalf("revised overall = %v", agg.Overall())
	}
}

func TestPostValidation(t *testing.T) {
	b := NewBoard()
	cases := []Review{
		{Worker: "", Requester: "r", Scores: [4]int{3, 0, 0, 0}},
		{Worker: "w", Requester: "", Scores: [4]int{3, 0, 0, 0}},
		{Worker: "w", Requester: "r", Scores: [4]int{6, 0, 0, 0}},
		{Worker: "w", Requester: "r", Scores: [4]int{-1, 0, 0, 0}},
		{Worker: "w", Requester: "r"}, // rates nothing
	}
	for i, r := range cases {
		if err := b.Post(r); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := b.Post(Review{Worker: "w", Requester: "r", Scores: [4]int{9, 0, 0, 0}}); !errors.Is(err, ErrBadScore) {
		t.Errorf("error = %v", err)
	}
}

func TestPartialAxes(t *testing.T) {
	b := NewBoard()
	// Only pay is rated by one worker, only fairness by another.
	if err := b.Post(Review{Worker: "w1", Requester: "r1", Scores: [4]int{4, 0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := b.Post(Review{Worker: "w2", Requester: "r1", Scores: [4]int{0, 2, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	agg, _ := b.Aggregate("r1")
	if agg.Mean[AxisPay] != 4 || agg.Mean[AxisFairness] != 2 {
		t.Fatalf("means = %v", agg.Mean)
	}
	if agg.Mean[AxisSpeed] != 0 {
		t.Fatalf("unrated axis mean = %v", agg.Mean[AxisSpeed])
	}
	if agg.Overall() != 3 {
		t.Fatalf("overall = %v", agg.Overall())
	}
}

func TestAggregateMissing(t *testing.T) {
	b := NewBoard()
	if _, ok := b.Aggregate("ghost"); ok {
		t.Fatal("aggregate for unreviewed requester")
	}
}

func TestRankOrdering(t *testing.T) {
	b := NewBoard()
	mustPost := func(w, r string, s int) {
		if err := b.Post(Review{Worker: model.WorkerID(w), Requester: model.RequesterID(r), Scores: [4]int{s, s, s, s}}); err != nil {
			t.Fatal(err)
		}
	}
	mustPost("w1", "mediocre", 3)
	mustPost("w1", "great", 5)
	mustPost("w1", "awful", 1)
	rank := b.Rank()
	if len(rank) != 3 || rank[0].Requester != "great" || rank[2].Requester != "awful" {
		t.Fatalf("rank = %v", rank)
	}
}

func TestReviewFromExperience(t *testing.T) {
	// Full wage, full acceptance, instant payment: all fives.
	r := ReviewFromExperience("w1", "r1", 10, 10, 1.0, 0, 48)
	if r.Scores[AxisPay] != 5 || r.Scores[AxisFairness] != 5 || r.Scores[AxisSpeed] != 5 {
		t.Fatalf("best-case review = %v", r.Scores)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// Starvation wages, mass rejection, slowest payment: all ones.
	r = ReviewFromExperience("w1", "r2", 1, 10, 0.1, 48, 48)
	if r.Scores[AxisPay] != 1 || r.Scores[AxisFairness] != 1 || r.Scores[AxisSpeed] != 1 {
		t.Fatalf("worst-case review = %v", r.Scores)
	}
	// Degenerate parameters fall back to neutral scores.
	r = ReviewFromExperience("w1", "r3", 5, 0, 0.5, 0, 0)
	if r.Scores[AxisPay] != 3 || r.Scores[AxisSpeed] != 3 {
		t.Fatalf("degenerate review = %v", r.Scores)
	}
}

func TestBoardConcurrency(t *testing.T) {
	b := NewBoard()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r := Review{
					Worker:    model.WorkerID(fmt.Sprintf("w-%d-%d", g, i)),
					Requester: model.RequesterID(fmt.Sprintf("r%d", i%4)),
					Scores:    [4]int{1 + i%5, 0, 0, 0},
				}
				if err := b.Post(r); err != nil {
					t.Error(err)
					return
				}
				b.Rank()
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, agg := range b.Rank() {
		total += agg.Reviews
	}
	if total != 400 {
		t.Fatalf("reviews = %d, want 400", total)
	}
}

func TestAxisStrings(t *testing.T) {
	for a := AxisPay; a < numAxes; a++ {
		if strings.Contains(a.String(), "axis(") {
			t.Errorf("axis %d has no name", a)
		}
	}
}
