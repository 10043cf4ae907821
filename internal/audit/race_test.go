package audit

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/eventlog"
	"repro/internal/fairness"
	"repro/internal/model"
	"repro/internal/store"
)

// TestAuditUnderConcurrentMutation runs incremental audits while several
// writers insert workers, tasks, offers, and contributions concurrently.
// Under -race this pins down that the engine performs no torn reads; in
// either mode it asserts the engine's convergence contract — once mutation
// stops, the next incremental audit matches a from-scratch full audit.
func TestAuditUnderConcurrentMutation(t *testing.T) {
	u := model.MustUniverse("go", "nlp")
	st := store.New(u)
	log := eventlog.New()
	if err := st.PutRequester(&model.Requester{ID: "r1"}); err != nil {
		t.Fatal(err)
	}
	if err := st.PutRequester(&model.Requester{ID: "r2"}); err != nil {
		t.Fatal(err)
	}
	cfg := fairness.DefaultConfig()
	eng := New(st, log, cfg)
	eng.Audit() // prime before the storm

	const writers = 4
	const perWriter = 60
	var wg sync.WaitGroup
	stop := make(chan struct{})
	auditDone := make(chan error, 1)
	go func() {
		defer close(auditDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Mid-storm there is no full scan to compare with, but every
			// pass's running fingerprint must match its own reports.
			if p := eng.AuditPass(); p.Fingerprint != Fingerprint(p.Reports) {
				t.Errorf("mid-storm pass: running fingerprint %s != from-scratch %s", p.Fingerprint, Fingerprint(p.Reports))
			}
			time.Sleep(time.Millisecond)
		}
	}()

	skills := []string{"go", "nlp"}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			req := model.RequesterID(fmt.Sprintf("r%d", 1+g%2))
			for i := 0; i < perWriter; i++ {
				wid := model.WorkerID(fmt.Sprintf("w%d-%04d", g, i))
				w := &model.Worker{
					ID:       wid,
					Declared: model.Attributes{"country": model.Str([]string{"jp", "fr"}[i%2])},
					Computed: model.Attributes{model.AttrAcceptanceRatio: model.Num([]float64{0.3, 0.8}[(i/2)%2])},
					Skills:   u.MustVector(skills[i%len(skills)]),
				}
				if err := st.PutWorker(w); err != nil {
					t.Error(err)
					return
				}
				tid := model.TaskID(fmt.Sprintf("t%d-%04d", g, i))
				task := &model.Task{
					ID: tid, Requester: req,
					Skills: u.MustVector(skills[i%len(skills)]),
					Reward: []float64{1.0, 1.02}[i%2],
				}
				if err := st.PutTask(task); err != nil {
					t.Error(err)
					return
				}
				log.MustAppend(eventlog.Event{Type: eventlog.TaskOffered, Worker: wid, Task: tid})
				if i%3 == 0 {
					c := &model.Contribution{
						ID:     model.ContributionID(fmt.Sprintf("c%d-%04d", g, i)),
						Task:   tid,
						Worker: wid,
						Text:   "the canonical answer",
						Paid:   []float64{0.5, 2.0}[i%2],
					}
					if err := st.PutContribution(c); err != nil {
						t.Error(err)
						return
					}
				}
				if i%5 == 0 {
					w.Computed[model.AttrAcceptanceRatio] = model.Num(0.4)
					if err := st.UpdateWorker(w); err != nil {
						t.Error(err)
						return
					}
				}
				if i%7 == 0 {
					log.MustAppend(eventlog.Event{Type: eventlog.WorkerFlagged, Worker: wid})
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-auditDone
	if t.Failed() {
		return
	}

	requirePass(t, 0, eng.AuditPass(), fairness.CheckAll(st, log, cfg))
}
