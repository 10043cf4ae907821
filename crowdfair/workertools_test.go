package crowdfair

import (
	"testing"

	"repro/internal/eventlog"
)

// tracedPlatform builds a platform whose trace contains two requesters
// with contrasting pay behaviour.
func tracedPlatform(t *testing.T) *Platform {
	t.Helper()
	u := NewUniverse("s")
	p := NewPlatform(u)
	for _, r := range []RequesterID{"good", "bad"} {
		if err := p.AddRequester(&Requester{ID: r}); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []WorkerID{"w1", "w2"} {
		if err := p.AddWorker(&Worker{ID: w, Skills: u.MustVector("s")}); err != nil {
			t.Fatal(err)
		}
	}
	now := int64(1)
	add := func(e Event) {
		e.Time = now
		if err := p.AppendEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		req  RequesterID
		task TaskID
		pay  float64
	}{
		{"good", "tg", 2.0},
		{"bad", "tb", 0.2},
	} {
		add(Event{Type: eventlog.TaskPosted, Task: tc.task, Requester: tc.req})
		for _, w := range []WorkerID{"w1", "w2"} {
			cid := ContributionID(string(tc.task) + "-" + string(w))
			add(Event{Type: eventlog.TaskStarted, Task: tc.task, Worker: w})
			now += 4
			add(Event{Type: eventlog.TaskSubmitted, Task: tc.task, Worker: w, Contribution: cid})
			if tc.pay > 0 {
				add(Event{Type: eventlog.PaymentIssued, Task: tc.task, Worker: w, Contribution: cid, Amount: tc.pay})
			}
			now++
		}
	}
	return p
}

func TestHourlyWages(t *testing.T) {
	p := tracedPlatform(t)
	wages := p.HourlyWages()
	if len(wages) != 2 {
		t.Fatalf("wages = %v", wages)
	}
	if wages["good"] <= wages["bad"] {
		t.Fatalf("good %v should out-pay bad %v", wages["good"], wages["bad"])
	}
	rank := p.RankRequestersByWage()
	if len(rank) != 2 || rank[0] != "good" {
		t.Fatalf("rank = %v", rank)
	}
}

func TestWageReportEpisodes(t *testing.T) {
	p := tracedPlatform(t)
	rep := p.WageReport()
	if len(rep.Episodes) != 4 {
		t.Fatalf("episodes = %d", len(rep.Episodes))
	}
	if est := rep.ByWorker["w1"]; est == nil || est.Episodes != 2 {
		t.Fatalf("w1 estimate = %+v", est)
	}
}

func TestReviewsFromTrace(t *testing.T) {
	p := tracedPlatform(t)
	board, err := p.ReviewsFromTrace(3.0)
	if err != nil {
		t.Fatal(err)
	}
	goodAgg, _ := board.Aggregate("good")
	badAgg, _ := board.Aggregate("bad")
	if goodAgg.Reviews != 2 || badAgg.Reviews != 2 {
		t.Fatalf("counts = %d/%d", goodAgg.Reviews, badAgg.Reviews)
	}
	rank := board.Rank()
	if len(rank) != 2 || rank[0].Requester != "good" {
		t.Fatalf("rank = %v", rank)
	}
	if goodAgg.Mean[AxisPay] <= badAgg.Mean[AxisPay] {
		t.Fatalf("pay ratings inverted: %v vs %v", goodAgg.Mean[AxisPay], badAgg.Mean[AxisPay])
	}
}

func TestReviewsFromSimulatedTrace(t *testing.T) {
	res, err := Simulate(SimulationSpec{Workers: 30, Tasks: 20, Rounds: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	board, err := res.Platform.ReviewsFromTrace(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(board.Rank()) == 0 {
		t.Fatal("no reviews from simulated trace")
	}
}
