package fairness_test

import (
	"fmt"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/store"
)

// refTrace builds a small seeded platform with material for every axiom:
// clustered skills with jitter, a few skill-less workers, and offer sets
// that are equal for twins, empty or random (Axiom 1); comparable and
// incomparable rewards across requesters (Axiom 2); jittered answers at
// diverging pay, some by the same worker twice (Axiom 3); low-acceptance
// workers of whom only some are flagged (Axiom 4); and started work that is
// submitted, interrupted or left in flight (Axiom 5).
func refTrace(tb testing.TB, seed uint64, workers, tasks int) (*store.Store, *eventlog.Log) {
	tb.Helper()
	names := make([]string, 12)
	for i := range names {
		names[i] = fmt.Sprintf("s%02d", i)
	}
	u := model.MustUniverse(names...)
	st := store.NewSharded(u, 3)
	rng := stats.NewRNG(seed)
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	reqs := []model.RequesterID{"r1", "r2", "r3"}
	for _, r := range reqs {
		must(st.PutRequester(&model.Requester{ID: r}))
	}
	skills := func(c int) model.SkillVector {
		if c == 4 {
			return u.MustVector() // skill-less
		}
		v := u.MustVector(names[3*c], names[3*c+1], names[3*c+2])
		if rng.Bool(0.25) {
			v[rng.Intn(len(names))] = true
		}
		return v
	}
	log := eventlog.New()
	emit := func(e eventlog.Event) { log.MustAppend(e) }
	for i := 0; i < workers; i++ {
		w := &model.Worker{
			ID:       model.WorkerID(fmt.Sprintf("w%03d", i)),
			Declared: model.Attributes{"country": model.Str([]string{"jp", "fr"}[rng.Intn(2)])},
			Computed: model.Attributes{},
			Skills:   skills(rng.Intn(5)),
		}
		if !rng.Bool(0.2) {
			w.Computed[model.AttrAcceptanceRatio] = model.Num([]float64{0.3, 0.35, 0.8, 0.85}[rng.Intn(4)])
		}
		must(st.PutWorker(w))
		if rng.Bool(0.3) {
			emit(eventlog.Event{Type: eventlog.WorkerFlagged, Worker: w.ID})
		}
	}
	for i := 0; i < tasks; i++ {
		must(st.PutTask(&model.Task{
			ID:        model.TaskID(fmt.Sprintf("t%03d", i)),
			Requester: reqs[rng.Intn(len(reqs))],
			Skills:    skills(rng.Intn(5)),
			Reward:    []float64{0, 1, 1.05, 2}[rng.Intn(4)],
		}))
	}
	ws, ts := st.Workers(), st.Tasks()
	for _, w := range ws {
		// A worker is shown every task they qualify for (so twins see equal
		// sets), nothing, or a random sliver.
		mode := rng.Intn(4)
		for _, t := range ts {
			if mode == 0 && w.Skills.Covers(t.Skills) || mode > 1 && rng.Bool(0.15) {
				emit(eventlog.Event{Type: eventlog.TaskOffered, Worker: w.ID, Task: t.ID})
			}
		}
	}
	words := []string{"careful", "quick", "steady", "bold"}
	cn := 0
	for ti, t := range ts {
		for k := 0; k < 1+rng.Intn(4); k++ {
			cn++
			w := ws[rng.Intn(len(ws))]
			if k > 0 && rng.Bool(0.2) {
				w = ws[(ti*7)%len(ws)] // a second answer by the same worker
			}
			c := &model.Contribution{
				ID: model.ContributionID(fmt.Sprintf("c%04d", cn)), Task: t.ID, Worker: w.ID,
				Text:        fmt.Sprintf("answer to %s is %s", t.ID, words[rng.Intn(len(words))]),
				Paid:        []float64{0, 0.5, 0.5, 1}[rng.Intn(4)],
				SubmittedAt: int64(rng.Intn(5)),
			}
			if ti%5 == 0 {
				c.Text, c.Ranking = "", []string{"a", "b", "c", words[rng.Intn(len(words))]}
			}
			must(st.PutContribution(c))
			emit(eventlog.Event{Type: eventlog.TaskStarted, Worker: w.ID, Task: t.ID, Time: int64(cn)})
			switch rng.Intn(3) {
			case 0:
				emit(eventlog.Event{Type: eventlog.TaskInterrupted, Worker: w.ID, Task: t.ID, Time: int64(cn) + 1})
			case 1:
				emit(eventlog.Event{Type: eventlog.TaskSubmitted, Worker: w.ID, Task: t.ID, Time: int64(cn) + 1})
			}
		}
	}
	return st, log
}
