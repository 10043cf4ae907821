package store

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/model"
)

// TestBulkMutationsMatchSequential pins that the bulk paths produce the
// same final state as per-entity calls, and the same changelog version for
// version: a bulk call applies its items in order under one lock.
func TestBulkMutationsMatchSequential(t *testing.T) {
	u := model.MustUniverse("go", "sql")
	mkWorkers := func(n int) []*model.Worker {
		ws := make([]*model.Worker, n)
		for i := range ws {
			ws[i] = &model.Worker{
				ID:     model.WorkerID(fmt.Sprintf("w%04d", i)),
				Skills: u.MustVector([]string{"go", "sql"}[i%2]),
			}
		}
		return ws
	}
	seqSt := New(u)
	bulkSt := New(u)
	ws := mkWorkers(200)
	for _, w := range ws {
		if err := seqSt.PutWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := bulkSt.BulkPutWorkers(ws); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqSt.Workers(), bulkSt.Workers()) {
		t.Fatal("bulk insert state differs from sequential")
	}
	if bulkSt.Version() != uint64(len(ws)) {
		t.Fatalf("bulk version = %d, want %d", bulkSt.Version(), len(ws))
	}
	// Duplicate detection still works through the bulk path.
	if err := bulkSt.BulkPutWorkers(ws[:3]); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("bulk duplicate error = %v", err)
	}
	// Bulk updates land exactly like sequential ones.
	for _, w := range ws {
		w.Skills = u.MustVector("go")
	}
	if err := bulkSt.BulkUpdateWorkers(ws); err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if err := seqSt.UpdateWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(seqSt.Workers(), bulkSt.Workers()) {
		t.Fatal("bulk update state differs from sequential")
	}
	seqLog, _ := seqSt.ChangesSince(0)
	bulkLog, _ := bulkSt.ChangesSince(0)
	if len(seqLog) != 2*len(ws) || !reflect.DeepEqual(seqLog, bulkLog) {
		t.Fatalf("bulk changelog (%d records) differs from sequential (%d)", len(bulkLog), len(seqLog))
	}
	// Referential checks hold through bulk task inserts.
	if err := bulkSt.BulkPutTasks([]*model.Task{
		{ID: "t1", Requester: "ghost", Skills: u.MustVector("go")},
	}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("orphan bulk task error = %v", err)
	}
}

// TestMergedChangesGapFreeUnderConcurrentMutators is the -race stress test
// for the changelog contract: while writers mutate concurrently, a
// cursor-driven reader must only ever observe a version-ordered, gap-free
// stream, and once the writers stop it must drain to exactly the final
// version.
func TestMergedChangesGapFreeUnderConcurrentMutators(t *testing.T) {
	u := model.MustUniverse("go", "sql")
	s := New(u)
	const writers = 6
	const perWriter = 300

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				w := &model.Worker{
					ID:     model.WorkerID(fmt.Sprintf("w%d-%04d", g, i)),
					Skills: u.MustVector([]string{"go", "sql"}[i%2]),
				}
				if err := s.PutWorker(w); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					if err := s.UpdateWorker(w); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var cursor uint64
	seen := 0
	consume := func() {
		changes, ok := s.ChangesSince(cursor)
		if !ok {
			t.Error("changelog truncated mid-run (cap should cover the whole stream)")
			return
		}
		for i, c := range changes {
			if c.Version != cursor+1+uint64(i) {
				t.Errorf("gap or disorder: change %d has version %d, cursor %d", i, c.Version, cursor)
				return
			}
		}
		if len(changes) > 0 {
			cursor = changes[len(changes)-1].Version
			seen += len(changes)
		}
	}
	for {
		select {
		case <-done:
			// Writers stopped: one final read must drain everything.
			consume()
			want := s.Version()
			if cursor != want || uint64(seen) != want {
				t.Fatalf("drained to version %d (%d changes), want %d", cursor, seen, want)
			}
			return
		default:
			consume()
			if t.Failed() {
				return
			}
		}
	}
}

// TestShardRingOverflowTruncation pins ring truncation: once the ring
// overflows, reads past its drop point report truncation, and reads from
// the newest dropped version on succeed.
func TestShardRingOverflowTruncation(t *testing.T) {
	u := model.MustUniverse("go")
	s := New(u)
	s.SetChangelogCap(4)
	if err := s.PutRequester(&model.Requester{ID: "r1"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		id := model.WorkerID(fmt.Sprintf("w%02d", i))
		if err := s.PutWorker(&model.Worker{ID: id, Skills: u.MustVector("go")}); err != nil {
			t.Fatal(err)
		}
	}

	// Versions: 1 = requester, 2..11 = workers. The ring retains 8..11 and
	// has dropped up to 7.
	for _, v := range []uint64{0, 6} {
		if _, ok := s.ChangesSince(v); ok {
			t.Fatalf("ChangesSince(%d): expected truncation after the overflow", v)
		}
	}
	changes, ok := s.ChangesSince(7)
	if !ok || len(changes) != 4 {
		t.Fatalf("ChangesSince(7) = %v, %v; want the 4 retained changes", changes, ok)
	}
	for i, c := range changes {
		if c.Version != uint64(8+i) {
			t.Errorf("retained change %d: version %d, want %d", i, c.Version, 8+i)
		}
	}
	if v := s.Version(); v != 11 {
		t.Errorf("version = %d, want 11", v)
	}
}

// TestContributionIndexOrderAfterUpdate pins that the (SubmittedAt, ID)
// index order survives updates that move the sort key — the sorted-at-
// insert replacement for the old per-read sort.
func TestContributionIndexOrderAfterUpdate(t *testing.T) {
	s := seeded(t)
	for i, at := range []int64{7, 2, 5, 2} {
		c := &model.Contribution{
			ID: model.ContributionID(fmt.Sprintf("c%d", i)), Task: "t1", Worker: "w1",
			Quality: 0.5, SubmittedAt: at,
		}
		if err := s.PutContribution(c); err != nil {
			t.Fatal(err)
		}
	}
	c, err := s.Contribution("c0")
	if err != nil {
		t.Fatal(err)
	}
	c.SubmittedAt = 1 // move 7 -> 1: must re-sort to the front
	if err := s.UpdateContribution(c); err != nil {
		t.Fatal(err)
	}
	got := s.ContributionsByTask("t1")
	var prev *model.Contribution
	for _, cc := range got {
		if prev != nil && !contribOrderLess(prev, cc) {
			t.Fatalf("order violated: %s@%d before %s@%d", prev.ID, prev.SubmittedAt, cc.ID, cc.SubmittedAt)
		}
		prev = cc
	}
	if got[0].ID != "c0" || got[0].SubmittedAt != 1 {
		t.Fatalf("moved contribution not first: %v@%d", got[0].ID, got[0].SubmittedAt)
	}
}
