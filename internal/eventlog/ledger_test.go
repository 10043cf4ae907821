package eventlog

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/model"
)

// ledgerTrace is a seeded trace over small id pools, so offers repeat,
// starts are submitted, interrupted twice or never, and disclosures land on
// subjects with and without roles.
func ledgerTrace(rng *rand.Rand, n int) []Event {
	types := []Type{TaskOffered, TaskOffered, TaskOffered, WorkerFlagged, TaskStarted, TaskStarted,
		TaskSubmitted, TaskInterrupted, TaskInterrupted, TaskPosted, WorkerJoined, Disclosure, PaymentIssued}
	id := func(prefix string, pool int) string { return fmt.Sprintf("%s%d", prefix, rng.Intn(pool)) }
	events := make([]Event, n)
	for i := range events {
		e := Event{Time: int64(i / 3), Type: types[rng.Intn(len(types))]}
		e.Worker = model.WorkerID(id("w", 12))
		e.Task = model.TaskID(id("t", 9))
		e.Requester = model.RequesterID(id("r", 3))
		if e.Type == Disclosure {
			e.Field = id("f", 4)
			switch rng.Intn(3) {
			case 0:
				e.Task = ""
			case 1:
				e.Worker = ""
			}
		}
		events[i] = e
	}
	return events
}

// ledgerImage is everything a Ledger holds but its lock.
func ledgerImage(d *Ledger) []any {
	return []any{d.pos, d.fields, d.kinds, d.owner, d.offers, d.audience, d.edges,
		d.flagged, d.flags, d.open, d.starts, d.interruptions}
}

func foldAll(events ...[]Event) *Log {
	l := New()
	for _, part := range events {
		if err := l.AppendBatch(append([]Event(nil), part...)); err != nil {
			panic(err)
		}
		l.ReadLedger(func(*Ledger) {})
	}
	return l
}

// Folding any prefix of a trace and then the rest equals folding the whole
// trace at once: access sets, flags, Axiom 5 state, disclosure bits and
// roles, at every split point. The since-lists from p hold exactly what the
// events from p on added to a fold of the prefix before p.
func TestLedgerFoldSplitsMatchOneShot(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		events := ledgerTrace(rand.New(rand.NewSource(seed)), 240)
		var want []any
		foldAll(events).ReadLedger(func(d *Ledger) {
			want = ledgerImage(d)
			if len(d.edges) == 0 || len(d.flags) == 0 || len(d.interruptions) == 0 || len(d.open) == 0 {
				t.Fatalf("seed %d: trace exercises too little: %d edges, %d flags, %d interruptions, %d open",
					seed, len(d.edges), len(d.flags), len(d.interruptions), len(d.open))
			}
		})
		for k := 0; k <= len(events); k++ {
			var edges []Edge
			var flags []Flag
			foldAll(events[:k]).ReadLedger(func(d *Ledger) { edges, flags = d.edges, d.flags })
			foldAll(events[:k], events[k:]).ReadLedger(func(d *Ledger) {
				if got := ledgerImage(d); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: split at %d:\n got %v\nwant %v", seed, k, got, want)
				}
				if got := append(append([]Edge(nil), edges...), d.EdgesSince(k)...); !reflect.DeepEqual(got, d.edges) {
					t.Fatalf("seed %d: edges before %d plus EdgesSince(%d) = %v, want %v", seed, k, k, got, d.edges)
				}
				if got := append(append([]Flag(nil), flags...), d.FlagsSince(k)...); !reflect.DeepEqual(got, d.flags) {
					t.Fatalf("seed %d: flags before %d plus FlagsSince(%d) = %v, want %v", seed, k, k, got, d.flags)
				}
			})
		}
	}
}

// Folds racing appends from several writers end where a one-shot fold of
// the final trace ends.
func TestLedgerFoldUnderConcurrentAppends(t *testing.T) {
	l := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for _, e := range ledgerTrace(rng, 150) {
				// Another writer may move the clock between the read and
				// the append; retry at the newer time.
				for {
					e.Time = l.LastTime()
					if _, err := l.Append(e); err == nil {
						break
					}
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l.ReadLedger(func(d *Ledger) {
					_ = d.EdgesSince(d.Pos() / 2)
					_ = d.Offers("w1")
				})
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	var got, want []any
	l.ReadLedger(func(d *Ledger) { got = ledgerImage(d) })
	foldAll(l.Events()).ReadLedger(func(d *Ledger) { want = ledgerImage(d) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent fold:\n got %v\nwant %v", got, want)
	}
}

// A repeated offer adds no access edge, and events other than offers add
// none either.
func TestLedgerDedupsOffers(t *testing.T) {
	l := New()
	l.MustAppend(Event{Type: TaskOffered, Worker: "w1", Task: "t1"})
	l.MustAppend(Event{Type: TaskOffered, Worker: "w1", Task: "t1"})
	l.MustAppend(Event{Type: TaskSubmitted, Worker: "w1", Task: "t2"})
	l.MustAppend(Event{Type: TaskOffered, Worker: "w2", Task: "t1"})
	l.ReadLedger(func(d *Ledger) {
		if got := d.EdgesSince(0); !reflect.DeepEqual(got, []Edge{{0, 0, 0}, {1, 0, 3}}) {
			t.Fatalf("edges = %v", got)
		}
		if got := d.EdgesSince(1); len(got) != 1 || got[0].At != 3 {
			t.Fatalf("edges since 1 = %v", got)
		}
		if got := d.Offers("w1"); len(got) != 1 {
			t.Fatalf("offers to w1 = %v, want one task", got)
		}
		if got := d.Audience("t1"); !reflect.DeepEqual(got, []int32{0, 1}) {
			t.Fatalf("audience of t1 = %v", got)
		}
		if d.Offers("w9") != nil || d.Audience("t2") != nil {
			t.Fatal("an unoffered subject has access")
		}
	})
}
