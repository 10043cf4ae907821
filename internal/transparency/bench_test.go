package transparency

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/model"
)

// churnPolicy is the audited platform policy of crowdbench's audit_churn
// workload: seven always-rules and two triggered ones.
const churnPolicy = `policy "bench-platform" {
    disclose requester.hourly_wage to workers always;
    disclose requester.payment_delay to workers always;
    disclose task.recruitment_criteria to workers on task_view;
    disclose task.rejection_criteria to workers on task_view;
    disclose task.reward to workers always;
    disclose worker.performance to workers always;
    disclose worker.acceptance_ratio to workers always;
    disclose platform.requester_rating to public always;
    disclose platform.auto_approval_delay to workers always;
}`

// churnTrace builds a trace of audit_churn's shape: 30k joined workers,
// 1,500 tasks of 150 requesters, 70k offers, and nine in ten subjects
// disclosed their Axiom 6/7 fields — ~158k events.
func churnTrace() []eventlog.Event {
	rng := rand.New(rand.NewSource(1))
	const workers, tasks, requesters, offers = 30000, 1500, 150, 70000
	var evs []eventlog.Event
	disclose := func(e eventlog.Event, fields ...string) {
		if rng.Float64() >= 0.9 {
			return
		}
		for _, f := range fields {
			e.Type, e.Field = eventlog.Disclosure, f
			evs = append(evs, e)
		}
	}
	wid := func(i int) model.WorkerID { return model.WorkerID(fmt.Sprintf("w%06d", i)) }
	for i := 0; i < workers; i++ {
		evs = append(evs, eventlog.Event{Type: eventlog.WorkerJoined, Worker: wid(i)})
	}
	for i := 0; i < tasks; i++ {
		evs = append(evs, eventlog.Event{Type: eventlog.TaskPosted,
			Task: model.TaskID(fmt.Sprintf("t%05d", i)), Requester: model.RequesterID(fmt.Sprintf("r%04d", i%requesters))})
	}
	for i := 0; i < offers; i++ {
		evs = append(evs, eventlog.Event{Type: eventlog.TaskOffered,
			Task: model.TaskID(fmt.Sprintf("t%05d", rng.Intn(tasks))), Worker: wid(rng.Intn(workers))})
	}
	for i := 0; i < requesters; i++ {
		disclose(eventlog.Event{Requester: model.RequesterID(fmt.Sprintf("r%04d", i))}, "requester.hourly_wage", "requester.payment_delay")
	}
	for i := 0; i < tasks; i++ {
		disclose(eventlog.Event{Task: model.TaskID(fmt.Sprintf("t%05d", i)), Requester: model.RequesterID(fmt.Sprintf("r%04d", i%requesters))},
			"task.recruitment_criteria", "task.rejection_criteria")
	}
	for i := 0; i < workers; i++ {
		disclose(eventlog.Event{Worker: wid(i)}, "worker.performance", "worker.acceptance_ratio")
	}
	return evs
}

// gapSink and reportSink keep the benchmarked calls' results live.
var (
	gapSink    Gaps
	reportSink *AxiomReport
)

// BenchmarkPolicyCompliance audits the audit_churn policy against a
// ~158k-event trace: cold is a log's first read, which folds the whole
// trace; warm is a read after 15 more disclosures.
func BenchmarkPolicyCompliance(b *testing.B) {
	pol := MustParse(churnPolicy)
	trace := churnTrace()
	load := func() *eventlog.Log {
		l := eventlog.New()
		if err := l.AppendBatch(append([]eventlog.Event(nil), trace...)); err != nil {
			b.Fatal(err)
		}
		return l
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			l := load()
			b.StartTimer()
			gapSink = PolicyCompliance(pol, l)
		}
	})
	b.Run("warm", func(b *testing.B) {
		l := load()
		PolicyCompliance(pol, l)
		rng := rand.New(rand.NewSource(2))
		more := make([]eventlog.Event, 15)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for j := range more {
				more[j] = eventlog.Event{Type: eventlog.Disclosure, Worker: model.WorkerID(fmt.Sprintf("w%06d", rng.Intn(30000))), Field: "worker.performance"}
			}
			if err := l.AppendBatch(more); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			gapSink = PolicyCompliance(pol, l)
		}
	})
}

// BenchmarkTransparencyRound is one audit_churn transparency round on a
// warm ledger: CheckAxiom6 and CheckAxiom7 over the standard catalogue
// and PolicyCompliance of the platform policy, after 15 more disclosures.
func BenchmarkTransparencyRound(b *testing.B) {
	cat, pol := StandardCatalogue(), MustParse(churnPolicy)
	l := eventlog.New()
	if err := l.AppendBatch(churnTrace()); err != nil {
		b.Fatal(err)
	}
	PolicyCompliance(pol, l)
	rng := rand.New(rand.NewSource(2))
	more := make([]eventlog.Event, 15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := range more {
			more[j] = eventlog.Event{Type: eventlog.Disclosure, Worker: model.WorkerID(fmt.Sprintf("w%06d", rng.Intn(30000))), Field: "worker.performance"}
		}
		if err := l.AppendBatch(more); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		reportSink = CheckAxiom6(cat, l)
		reportSink = CheckAxiom7(cat, l)
		gapSink = PolicyCompliance(pol, l)
	}
}
