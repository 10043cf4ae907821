package transparency

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/model"
)

// The reference below restates Axioms 6–7 and PolicyCompliance as naive
// loops over a copy of the trace: for every required field and every
// subject, scan the whole trace for a disclosure. It shares nothing with
// the checkers except the catalogue and the policy AST.

// refDisclosed reports whether any disclosure event matching about
// disclosed field.
func refDisclosed(evs []eventlog.Event, field string, about func(eventlog.Event) bool) bool {
	for _, e := range evs {
		if e.Type == eventlog.Disclosure && e.Field == field && about(e) {
			return true
		}
	}
	return false
}

// refSeen returns, sorted, the distinct ids pick yields for events whose
// type is one of types.
func refSeen(evs []eventlog.Event, pick func(eventlog.Event) string, types ...eventlog.Type) []string {
	seen := map[string]bool{}
	var ids []string
	for _, e := range evs {
		for _, t := range types {
			if e.Type == t && !seen[pick(e)] {
				seen[pick(e)] = true
				ids = append(ids, pick(e))
			}
		}
	}
	sort.Strings(ids)
	return ids
}

// refReport is an axiom report in rendered form.
type refReport struct {
	missing []FieldRef
	detail  []string
}

func refAxiom6(cat *Catalogue, log *eventlog.Log) refReport {
	evs := log.Events()
	var rep refReport
	for _, ref := range cat.RequiredFor(6) {
		before := len(rep.detail)
		switch ref.Subject {
		case SubjectRequester:
			for _, r := range refSeen(evs, func(e eventlog.Event) string { return string(e.Requester) }, eventlog.TaskPosted) {
				if !refDisclosed(evs, ref.String(), func(e eventlog.Event) bool { return e.Requester != "" && string(e.Requester) == r && e.Task == "" }) {
					rep.detail = append(rep.detail, fmt.Sprintf("requester %s never disclosed %s", r, ref))
				}
			}
		case SubjectTask:
			for _, t := range refSeen(evs, func(e eventlog.Event) string { return string(e.Task) }, eventlog.TaskPosted) {
				if !refDisclosed(evs, ref.String(), func(e eventlog.Event) bool { return e.Task != "" && string(e.Task) == t }) {
					owner := ""
					for _, e := range evs {
						if e.Type == eventlog.TaskPosted && string(e.Task) == t {
							owner = string(e.Requester)
						}
					}
					rep.detail = append(rep.detail, fmt.Sprintf("task %s (requester %s) never disclosed %s", t, owner, ref))
				}
			}
		}
		if len(rep.detail) > before {
			rep.missing = append(rep.missing, ref)
		}
	}
	return rep
}

func refAxiom7(cat *Catalogue, log *eventlog.Log) refReport {
	evs := log.Events()
	var rep refReport
	workers := refSeen(evs, func(e eventlog.Event) string { return string(e.Worker) },
		eventlog.WorkerJoined, eventlog.TaskStarted, eventlog.TaskSubmitted)
	for _, ref := range cat.RequiredFor(7) {
		if ref.Subject != SubjectWorker {
			continue
		}
		before := len(rep.detail)
		for _, w := range workers {
			if !refDisclosed(evs, ref.String(), func(e eventlog.Event) bool { return e.Worker != "" && string(e.Worker) == w }) {
				rep.detail = append(rep.detail, fmt.Sprintf("platform never disclosed %s to worker %s", ref, w))
			}
		}
		if len(rep.detail) > before {
			rep.missing = append(rep.missing, ref)
		}
	}
	return rep
}

func refCompliance(p *Policy, log *eventlog.Log) []string {
	evs := log.Events()
	workers := refSeen(evs, func(e eventlog.Event) string { return string(e.Worker) }, eventlog.WorkerJoined)
	var out []string
	for _, r := range p.Rules {
		if r.On != TriggerAlways || r.When != nil || (r.To != AudienceWorkers && r.To != AudiencePublic) {
			continue
		}
		for _, w := range workers {
			if !refDisclosed(evs, r.Field.String(), func(e eventlog.Event) bool { return e.Worker != "" && string(e.Worker) == w }) {
				out = append(out, fmt.Sprintf("policy %q promises %s to workers always, but worker %s never saw it", p.Name, r.Field, w))
			}
		}
	}
	return out
}

// list copies gaps out of a Gaps snapshot, in order.
func list(g Gaps) []Gap {
	var out []Gap
	for i := 0; i < g.Len(); i++ {
		out = append(out, g.At(i))
	}
	return out
}

func rendered(gaps []Gap) []string {
	var out []string
	for _, g := range gaps {
		out = append(out, g.String())
	}
	return out
}

// refCatalogue is the standard catalogue plus required refs the checkers
// must skip (Axiom 6 over a worker field, Axiom 7 over a task field) and
// a required field no trace ever discloses.
func refCatalogue(t testing.TB) *Catalogue {
	entries := StandardCatalogue().Entries()
	entries = append(entries,
		CatalogueEntry{Ref: FieldRef{SubjectWorker, "f3"}, Axiom6: true},
		CatalogueEntry{Ref: FieldRef{SubjectTask, "f5"}, Axiom7: true},
		CatalogueEntry{Ref: FieldRef{SubjectWorker, "never"}, Axiom7: true},
		CatalogueEntry{Ref: FieldRef{SubjectTask, "f6"}, Axiom6: true},
	)
	cat, err := NewCatalogue(entries...)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// refPolicy has duplicate always-rules, an out-of-catalogue field, and
// rules compliance must skip (triggered, conditional, to requesters).
func refPolicy() *Policy {
	always := func(s Subject, f string, to Audience) *Rule {
		return &Rule{Field: FieldRef{s, f}, To: to, On: TriggerAlways}
	}
	return &Policy{Name: `ref "quoted"`, Rules: []*Rule{
		always(SubjectWorker, "performance", AudienceWorkers),
		always(SubjectRequester, "hourly_wage", AudienceWorkers),
		always(SubjectWorker, "performance", AudienceWorkers),
		always(SubjectPlatform, "requester_rating", AudiencePublic),
		always(SubjectWorker, "f70", AudienceWorkers),
		always(SubjectTask, "reward", AudienceRequesters),
		{Field: FieldRef{SubjectTask, "reward"}, To: AudienceWorkers, On: TriggerTaskView},
		{Field: FieldRef{SubjectWorker, "acceptance_ratio"}, To: AudienceWorkers, On: TriggerAlways,
			When: &BinaryExpr{Op: ">", Left: &FieldExpr{Ref: FieldRef{SubjectWorker, "completed"}}, Right: &NumberExpr{Value: 3}}},
	}}
}

// randomTrace draws n events over small id pools so subjects recur. It
// includes empty worker ids on TaskStarted and WorkerJoined, tasks
// re-posted by another requester, disclosures that name several subjects
// at once, and disclosures of 80 fields outside the catalogue.
func randomTrace(rng *rand.Rand, n int) []eventlog.Event {
	catFields := []string{}
	for _, e := range StandardCatalogue().Entries() {
		catFields = append(catFields, e.Ref.String())
	}
	catFields = append(catFields, "worker.f3", "task.f5", "task.f6", "worker.f70")
	subjects := []string{"worker", "task", "requester", "platform"}
	worker := func() model.WorkerID { return model.WorkerID(fmt.Sprintf("w%d", rng.Intn(12))) }
	task := func() model.TaskID { return model.TaskID(fmt.Sprintf("t%d", rng.Intn(8))) }
	requester := func() model.RequesterID { return model.RequesterID(fmt.Sprintf("r%d", rng.Intn(4))) }
	evs := make([]eventlog.Event, 0, n)
	for len(evs) < n {
		var e eventlog.Event
		switch k := rng.Intn(20); {
		case k < 3:
			e = eventlog.Event{Type: eventlog.WorkerJoined, Worker: worker()}
			if rng.Intn(30) == 0 {
				e.Worker = ""
			}
		case k < 5:
			e = eventlog.Event{Type: eventlog.TaskStarted, Worker: worker(), Task: task()}
			if rng.Intn(10) == 0 {
				e.Worker = ""
			}
		case k < 6:
			e = eventlog.Event{Type: eventlog.TaskSubmitted, Worker: worker(), Task: task()}
		case k < 8:
			e = eventlog.Event{Type: eventlog.TaskPosted, Task: task(), Requester: requester()}
		case k < 9:
			e = eventlog.Event{Type: eventlog.TaskOffered, Worker: worker(), Task: task()}
		default:
			e = eventlog.Event{Type: eventlog.Disclosure}
			if rng.Intn(3) == 0 {
				e.Field = fmt.Sprintf("%s.f%d", subjects[rng.Intn(len(subjects))], rng.Intn(80))
			} else {
				e.Field = catFields[rng.Intn(len(catFields))]
			}
			switch rng.Intn(6) {
			case 0, 1:
				e.Worker = worker()
			case 2:
				e.Task, e.Requester = task(), requester()
			case 3:
				e.Requester = requester()
			case 4:
				e.Task = task()
			default:
				e.Worker, e.Task, e.Requester = worker(), task(), requester()
			}
		}
		e.Time = int64(len(evs) / 3)
		evs = append(evs, e)
	}
	return evs
}

// appendChunks appends evs to l in random-sized chunks, alternating
// Append and AppendBatch, calling check after each chunk.
func appendChunks(t *testing.T, rng *rand.Rand, l *eventlog.Log, evs []eventlog.Event, check func()) {
	t.Helper()
	for len(evs) > 0 {
		k := 1 + rng.Intn(25)
		if k > len(evs) {
			k = len(evs)
		}
		if rng.Intn(2) == 0 {
			if err := l.AppendBatch(append([]eventlog.Event(nil), evs[:k]...)); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, e := range evs[:k] {
				l.MustAppend(e)
			}
		}
		evs = evs[k:]
		check()
	}
}

// checkAgainstReference compares all three checkers with the reference on
// l, rendered gap text byte for byte.
func checkAgainstReference(t *testing.T, cat *Catalogue, pol *Policy, l *eventlog.Log) {
	t.Helper()
	for _, c := range []struct {
		got  *AxiomReport
		want refReport
	}{
		{CheckAxiom6(cat, l), refAxiom6(cat, l)},
		{CheckAxiom7(cat, l), refAxiom7(cat, l)},
	} {
		if got := rendered(list(c.got.Detail)); !reflect.DeepEqual(got, c.want.detail) {
			t.Fatalf("Axiom %d after %d events:\n got %q\nwant %q", c.got.Axiom, l.Len(), got, c.want.detail)
		}
		if !reflect.DeepEqual(c.got.Missing, c.want.missing) {
			t.Fatalf("Axiom %d missing after %d events: got %v want %v", c.got.Axiom, l.Len(), c.got.Missing, c.want.missing)
		}
		if c.got.Satisfied() != (len(c.want.detail) == 0) {
			t.Fatalf("Axiom %d Satisfied = %v with %d reference gaps", c.got.Axiom, c.got.Satisfied(), len(c.want.detail))
		}
	}
	if got, want := rendered(list(PolicyCompliance(pol, l))), refCompliance(pol, l); !reflect.DeepEqual(got, want) {
		t.Fatalf("compliance after %d events:\n got %q\nwant %q", l.Len(), got, want)
	}
}

// TestTransparencyMatchesReference holds the three checkers to the naive
// reference on seeded random traces, re-checking the same log after every
// chunk of appends so the ledger's incremental advance is what is tested.
func TestTransparencyMatchesReference(t *testing.T) {
	cat, pol := refCatalogue(t), refPolicy()
	maxFields, emptyStarts, reposts := 0, 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		evs := randomTrace(rng, 100+rng.Intn(300))
		fields := map[string]bool{}
		owner := map[model.TaskID]model.RequesterID{}
		for _, e := range evs {
			switch e.Type {
			case eventlog.Disclosure:
				fields[e.Field] = true
			case eventlog.TaskStarted:
				if e.Worker == "" {
					emptyStarts++
				}
			case eventlog.TaskPosted:
				if r, ok := owner[e.Task]; ok && r != e.Requester {
					reposts++
				}
				owner[e.Task] = e.Requester
			}
		}
		if len(fields) > maxFields {
			maxFields = len(fields)
		}
		l := eventlog.New()
		appendChunks(t, rng, l, evs, func() {
			checkAgainstReference(t, cat, pol, l)
		})
	}
	if maxFields <= 64 || emptyStarts == 0 || reposts == 0 {
		t.Fatalf("traces miss a case: max %d distinct fields (want > 64), %d starts by an empty worker id, %d tasks re-posted by another requester",
			maxFields, emptyStarts, reposts)
	}
}

// TestTransparencyMetamorphic checks that appending the disclosure a gap
// lacks removes exactly that gap (every copy of it, for duplicate rules)
// and nothing else.
func TestTransparencyMetamorphic(t *testing.T) {
	cat, pol := refCatalogue(t), refPolicy()
	checkers := []func(*eventlog.Log) []Gap{
		func(l *eventlog.Log) []Gap { return list(CheckAxiom6(cat, l).Detail) },
		func(l *eventlog.Log) []Gap { return list(CheckAxiom7(cat, l).Detail) },
		func(l *eventlog.Log) []Gap { return list(PolicyCompliance(pol, l)) },
	}
	closed := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := eventlog.New()
		if err := l.AppendBatch(randomTrace(rng, 200)); err != nil {
			t.Fatal(err)
		}
		for c, check := range checkers {
			for step := 0; step < 5; step++ {
				before := check(l)
				var open []Gap
				for _, g := range before {
					if g.ID != "" {
						open = append(open, g)
					}
				}
				if len(open) == 0 {
					break
				}
				g := open[rng.Intn(len(open))]
				e := eventlog.Event{Time: l.LastTime(), Type: eventlog.Disclosure, Field: g.Field.String()}
				switch g.Subject {
				case SubjectWorker:
					e.Worker = model.WorkerID(g.ID)
				case SubjectTask:
					e.Task = model.TaskID(g.ID)
				case SubjectRequester:
					e.Requester = model.RequesterID(g.ID)
				}
				l.MustAppend(e)
				var want []Gap
				for _, h := range before {
					if h != g {
						want = append(want, h)
					}
				}
				if got := check(l); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d checker %d: closing %v:\n got %v\nwant %v", seed, c, g, got, want)
				}
				closed++
			}
		}
	}
	if closed < 100 {
		t.Fatalf("only %d gaps closed; the traces are too compliant to test anything", closed)
	}
}

// TestTransparencyUnderConcurrentAppends runs the checkers from several
// goroutines while several writers call AppendBatch, then holds the final
// log to the reference.
func TestTransparencyUnderConcurrentAppends(t *testing.T) {
	cat, pol := refCatalogue(t), refPolicy()
	l := eventlog.New()
	var writers, readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		evs := randomTrace(rng, 400)
		writers.Add(1)
		go func() {
			defer writers.Done()
			for len(evs) > 0 {
				k := 1 + rng.Intn(20)
				if k > len(evs) {
					k = len(evs)
				}
				batch := append([]eventlog.Event(nil), evs[:k]...)
				for i := range batch {
					batch[i].Time = 0
				}
				if err := l.AppendBatch(batch); err != nil {
					t.Error(err)
					return
				}
				evs = evs[k:]
			}
		}()
	}
	done := make(chan struct{})
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				CheckAxiom6(cat, l)
				CheckAxiom7(cat, l)
				PolicyCompliance(pol, l)
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	checkAgainstReference(t, cat, pol, l)
}
