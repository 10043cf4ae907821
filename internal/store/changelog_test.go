package store

import (
	"fmt"
	"testing"

	"repro/internal/model"
)

func changelogStore(t *testing.T) *Store {
	t.Helper()
	u := model.MustUniverse("a", "b")
	s := New(u)
	if err := s.PutRequester(&model.Requester{ID: "r1"}); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestChangelogRecordsEveryMutation(t *testing.T) {
	s := changelogStore(t)
	w := &model.Worker{ID: "w1", Skills: s.Universe().MustVector("a")}
	if err := s.PutWorker(w); err != nil {
		t.Fatal(err)
	}
	if err := s.PutTask(&model.Task{ID: "t1", Requester: "r1", Skills: s.Universe().MustVector("a")}); err != nil {
		t.Fatal(err)
	}
	c := &model.Contribution{ID: "c1", Task: "t1", Worker: "w1", Quality: 0.5}
	if err := s.PutContribution(c); err != nil {
		t.Fatal(err)
	}
	c.Paid = 1.0
	if err := s.UpdateContribution(c); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateWorker(w); err != nil {
		t.Fatal(err)
	}

	changes, ok := s.ChangesSince(0)
	if !ok {
		t.Fatal("changelog reported truncation on a fresh store")
	}
	want := []struct {
		op     Op
		entity Entity
	}{
		{OpInsert, EntityRequester},
		{OpInsert, EntityWorker},
		{OpInsert, EntityTask},
		{OpInsert, EntityContribution},
		{OpUpdate, EntityContribution},
		{OpUpdate, EntityWorker},
	}
	if len(changes) != len(want) {
		t.Fatalf("changes = %d, want %d: %v", len(changes), len(want), changes)
	}
	for i, c := range changes {
		if c.Version != uint64(i+1) {
			t.Errorf("change %d: version %d, want %d", i, c.Version, i+1)
		}
		if c.Op != want[i].op || c.Entity != want[i].entity {
			t.Errorf("change %d: %v %v, want %v %v", i, c.Op, c.Entity, want[i].op, want[i].entity)
		}
	}
	// Contribution changes carry their touched neighbours.
	if changes[3].Task != "t1" || changes[3].Worker != "w1" || changes[3].Contribution != "c1" {
		t.Errorf("contribution change ids = %+v", changes[3])
	}
	// Incremental read from the middle.
	tail, ok := s.ChangesSince(4)
	if !ok || len(tail) != 2 {
		t.Fatalf("ChangesSince(4) = %v, %v", tail, ok)
	}
	if tail[0].Version != 5 {
		t.Errorf("tail starts at version %d, want 5", tail[0].Version)
	}
	// At or beyond head: empty and complete.
	if tail, ok = s.ChangesSince(s.Version()); !ok || tail != nil {
		t.Fatalf("ChangesSince(head) = %v, %v", tail, ok)
	}
}

func TestChangelogTruncationSignal(t *testing.T) {
	// The cap is an exact retention window, so the eviction boundary is
	// predictable change by change.
	u := model.MustUniverse("a", "b")
	s := New(u)
	if err := s.PutRequester(&model.Requester{ID: "r1"}); err != nil {
		t.Fatal(err)
	}
	s.SetChangelogCap(4)
	for i := 0; i < 10; i++ {
		w := &model.Worker{
			ID:     model.WorkerID(fmt.Sprintf("w%02d", i)),
			Skills: s.Universe().MustVector("a"),
		}
		if err := s.PutWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	// 11 mutations total (requester + 10 workers); only 4 retained.
	if _, ok := s.ChangesSince(0); ok {
		t.Fatal("expected truncation for a version past the retention window")
	}
	if _, ok := s.ChangesSince(6); ok {
		t.Fatal("expected truncation: change 7 was evicted")
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
	// Shrinking the cap drops oldest-first; growing keeps what is retained.
	s.SetChangelogCap(2)
	if cs, ok := s.ChangesSince(9); !ok || len(cs) != 2 {
		t.Fatalf("after shrink: ChangesSince(9) = %v, %v", cs, ok)
	}
	s.SetChangelogCap(0)
	if _, ok := s.ChangesSince(s.Version() - 1); ok {
		t.Fatal("cap 0 must report truncation for any past version")
	}
}

// TestShardChangesSinceCursorAtHead pins the boundary semantics of the
// cursor API: a cursor exactly at the watermark (or the exact drop boundary
// after an overflow) reads as complete-and-empty, not as truncation.
func TestShardChangesSinceCursorAtHead(t *testing.T) {
	u := model.MustUniverse("a")
	s := New(u)
	s.SetChangelogCap(4)
	for i := 0; i < 10; i++ {
		w := &model.Worker{ID: model.WorkerID(fmt.Sprintf("w%02d", i)), Skills: u.MustVector("a")}
		if err := s.PutWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	head := s.Version()
	// Exactly at the head: empty and complete.
	if chs, ok := s.ChangesSince(head); !ok || len(chs) != 0 {
		t.Fatalf("cursor at head = (%v, %v), want (empty, true)", chs, ok)
	}
	// Beyond the head: still complete.
	if chs, ok := s.ChangesSince(head + 5); !ok || len(chs) != 0 {
		t.Fatalf("cursor past head = (%v, %v), want (empty, true)", chs, ok)
	}
	// The ring overflowed (10 records, cap 4): a zero cursor is truncated,
	// but a cursor exactly at the newest dropped version is complete — it
	// has seen everything the ring no longer retains.
	if _, ok := s.ChangesSince(0); ok {
		t.Fatal("zero cursor survived a ring overflow")
	}
	retained, ok := s.ChangesSince(head - 1)
	if !ok || len(retained) != 1 || retained[0].Version != head {
		t.Fatalf("cursor at head-1 = (%v, %v), want the head record", retained, ok)
	}
	all, ok := s.ChangesSince(boundary(s))
	if !ok || len(all) != 4 {
		t.Fatalf("cursor at drop boundary = (%d records, %v), want (4, true)", len(all), ok)
	}
}

// boundary returns the newest dropped version of the ring: the version
// just before its oldest retained record.
func boundary(s *Store) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring.droppedMax
}

// TestShardChangesSinceOutOfRange pins the width stub: shard 0 is the
// store's changelog, and any other index reads as total truncation
// instead of panicking.
func TestShardChangesSinceOutOfRange(t *testing.T) {
	s := changelogStore(t)
	if chs, ok := s.ShardChangesSince(0, 0); !ok || len(chs) != 1 {
		t.Fatalf("ShardChangesSince(0, 0) = (%v, %v), want the requester insert", chs, ok)
	}
	for _, idx := range []int{-1, 1, 99} {
		if chs, ok := s.ShardChangesSince(idx, 0); ok || chs != nil {
			t.Fatalf("ShardChangesSince(%d) = (%v, %v), want (nil, false)", idx, chs, ok)
		}
	}
}

// TestShardChangesSinceOverflowRacingBulkPut drives a cursor-based reader
// against bulk writers overflowing a tiny ring: every complete read must
// be dense and past the cursor, and every truncation signal must be
// recoverable by rescanning from the store's version — the audit engine's
// exact consumption pattern.
func TestShardChangesSinceOverflowRacingBulkPut(t *testing.T) {
	u := model.MustUniverse("a", "b")
	s := New(u)
	s.SetChangelogCap(8)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for batch := 0; batch < 60; batch++ {
			ws := make([]*model.Worker, 20)
			for i := range ws {
				ws[i] = &model.Worker{
					ID:     model.WorkerID(fmt.Sprintf("w%03d-%02d", batch, i)),
					Skills: u.MustVector([]string{"a", "b"}[i%2]),
				}
			}
			if err := s.BulkPutWorkers(ws); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var cursor uint64
	truncations := 0
	for {
		chs, ok := s.ChangesSince(cursor)
		if !ok {
			// The ring dropped records past the cursor mid-race: the
			// documented fallback is a rescan from the version.
			truncations++
			cursor = s.Version()
		}
		for _, c := range chs {
			if c.Version != cursor+1 {
				t.Fatalf("version %d does not follow cursor %d", c.Version, cursor)
			}
			cursor = c.Version
		}
		select {
		case <-done:
			if t.Failed() {
				t.FailNow()
			}
			// Writers stopped: rescanning from the version and reading
			// once more must drain exactly to the head.
			if chs, ok := s.ChangesSince(s.Version()); !ok || len(chs) != 0 {
				t.Fatalf("not drained at the version: (%v, %v)", chs, ok)
			}
			if total := len(s.Workers()); total != 60*20 {
				t.Fatalf("store holds %d workers, want %d", total, 60*20)
			}
			// With cap 8 and a 1200-record stream, the racing reader
			// must have been truncated at least once for the test to have
			// exercised the contested path.
			if truncations == 0 {
				t.Log("warning: reader never observed truncation (timing-dependent)")
			}
			return
		default:
		}
	}
}
