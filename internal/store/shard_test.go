package store

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/stats"
)

// applyMutationStream drives a deterministic mixed mutation sequence —
// inserts and updates across all four tables — against the store. The same
// seed produces the same sequence, so two stores differing only in shard
// count receive identical mutations in identical order.
func applyMutationStream(t *testing.T, s *Store, seed uint64, n int) {
	t.Helper()
	u := s.Universe()
	rng := stats.NewRNG(seed)
	reqs := []model.RequesterID{"r1", "r2", "r3"}
	for _, r := range reqs {
		if err := s.PutRequester(&model.Requester{ID: r}); err != nil {
			t.Fatal(err)
		}
	}
	skills := [][]string{{"go"}, {"sql"}, {"go", "nlp"}, {"nlp", "sql"}}
	var wn, tn, cn int
	addWorker := func() {
		wn++
		w := &model.Worker{
			ID:     model.WorkerID(fmt.Sprintf("w%05d", wn)),
			Skills: u.MustVector(skills[rng.Intn(len(skills))]...),
		}
		if err := s.PutWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	addTask := func() {
		tn++
		task := &model.Task{
			ID:        model.TaskID(fmt.Sprintf("t%05d", tn)),
			Requester: reqs[rng.Intn(len(reqs))],
			Skills:    u.MustVector(skills[rng.Intn(len(skills))]...),
			Reward:    1 + rng.Float64(),
		}
		if err := s.PutTask(task); err != nil {
			t.Fatal(err)
		}
	}
	addWorker()
	addTask()
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0:
			addWorker()
		case 1:
			addTask()
		case 2:
			cn++
			c := &model.Contribution{
				ID:          model.ContributionID(fmt.Sprintf("c%05d", cn)),
				Task:        model.TaskID(fmt.Sprintf("t%05d", 1+rng.Intn(tn))),
				Worker:      model.WorkerID(fmt.Sprintf("w%05d", 1+rng.Intn(wn))),
				Quality:     rng.Float64(),
				SubmittedAt: int64(rng.Intn(50)),
			}
			if err := s.PutContribution(c); err != nil {
				t.Fatal(err)
			}
		case 3:
			w, err := s.Worker(model.WorkerID(fmt.Sprintf("w%05d", 1+rng.Intn(wn))))
			if err != nil {
				t.Fatal(err)
			}
			w.Skills = u.MustVector(skills[rng.Intn(len(skills))]...)
			if err := s.UpdateWorker(w); err != nil {
				t.Fatal(err)
			}
		case 4:
			if cn == 0 {
				addWorker()
				continue
			}
			c, err := s.Contribution(model.ContributionID(fmt.Sprintf("c%05d", 1+rng.Intn(cn))))
			if err != nil {
				t.Fatal(err)
			}
			c.Paid = rng.Float64()
			c.Accepted = true
			if err := s.UpdateContribution(c); err != nil {
				t.Fatal(err)
			}
		case 5:
			addTask()
		}
	}
}

// TestShardCountDeterminism pins the tentpole's core contract: a store is
// semantically shard-count-invariant. The same sequential mutation stream
// must produce byte-identical entity tables, index views, and — because
// sequential mutation allocates versions in call order — an identical
// version-ordered merged changelog at every shard count, including the
// single-lock layout.
func TestShardCountDeterminism(t *testing.T) {
	u := model.MustUniverse("go", "sql", "nlp")
	build := func(shards int) *Store {
		s := NewSharded(u, shards)
		applyMutationStream(t, s, 1234, 400)
		return s
	}
	base := build(1)
	baseChanges, ok := base.ChangesSince(0)
	if !ok {
		t.Fatal("baseline changelog truncated")
	}
	for _, shards := range []int{2, 3, 8, 13} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := build(shards)
			if s.ShardCount() != shards {
				t.Fatalf("ShardCount = %d", s.ShardCount())
			}
			if !reflect.DeepEqual(s.Workers(), base.Workers()) {
				t.Error("workers differ from single-shard store")
			}
			if !reflect.DeepEqual(s.Tasks(), base.Tasks()) {
				t.Error("tasks differ from single-shard store")
			}
			if !reflect.DeepEqual(s.Requesters(), base.Requesters()) {
				t.Error("requesters differ from single-shard store")
			}
			if !reflect.DeepEqual(s.Contributions(), base.Contributions()) {
				t.Error("contributions differ from single-shard store")
			}
			for _, task := range base.Tasks() {
				if !reflect.DeepEqual(s.ContributionsByTask(task.ID), base.ContributionsByTask(task.ID)) {
					t.Errorf("contributions of %s differ", task.ID)
				}
			}
			if s.Version() != base.Version() {
				t.Fatalf("version = %d, want %d", s.Version(), base.Version())
			}
			changes, ok := s.ChangesSince(0)
			if !ok {
				t.Fatal("merged changelog truncated")
			}
			if !reflect.DeepEqual(changes, baseChanges) {
				t.Fatalf("merged changelog differs: %d vs %d records", len(changes), len(baseChanges))
			}
			// Snapshot round-trips across shard counts too.
			if !reflect.DeepEqual(s.Snapshot(), base.Snapshot()) {
				t.Error("snapshots differ")
			}
		})
	}
}

// TestBulkMutationsMatchSequential pins that the shard-parallel bulk paths
// produce the same final state as per-entity calls (modulo version
// assignment order, which concurrent fan-out does not promise).
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
	seqSt := NewSharded(u, 4)
	bulkSt := NewSharded(u, 4)
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
	// Referential checks hold through bulk task inserts.
	if err := bulkSt.BulkPutTasks([]*model.Task{
		{ID: "t1", Requester: "ghost", Skills: u.MustVector("go")},
	}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("orphan bulk task error = %v", err)
	}
}

// TestMergedChangesGapFreeUnderConcurrentMutators is the -race stress test
// for the merged changelog contract: while writers mutate across shards, a
// cursor-driven reader must only ever observe a version-ordered, gap-free
// stream, and once the writers stop it must drain to exactly the final
// version.
func TestMergedChangesGapFreeUnderConcurrentMutators(t *testing.T) {
	u := model.MustUniverse("go", "sql")
	s := NewSharded(u, 8)
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

// workerIDForShard finds an id that hashes to the wanted shard.
func workerIDForShard(t *testing.T, s *Store, shard int, tag int) model.WorkerID {
	t.Helper()
	for i := 0; i < 10000; i++ {
		id := model.WorkerID(fmt.Sprintf("w%d-%04d", tag, i))
		if s.shardIndex(string(id)) == shard {
			return id
		}
	}
	t.Fatal("no id found for shard")
	return ""
}

// TestShardRingOverflowTruncation pins per-shard truncation: when one
// shard's ring overflows, merged reads past its drop point report
// truncation, the untouched shard stays individually complete, and reads
// from beyond the dropped version still succeed.
func TestShardRingOverflowTruncation(t *testing.T) {
	u := model.MustUniverse("go")
	s := NewSharded(u, 2)
	s.SetChangelogCap(4)

	// Land the requester in shard 1 and all workers in shard 0, so shard
	// 0's ring is the only one overflowing.
	var req model.RequesterID
	for i := 0; ; i++ {
		id := model.RequesterID(fmt.Sprintf("r%03d", i))
		if s.shardIndex(string(id)) == 1 {
			req = id
			break
		}
	}
	if err := s.PutRequester(&model.Requester{ID: req}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		id := workerIDForShard(t, s, 0, i)
		if err := s.PutWorker(&model.Worker{ID: id, Skills: u.MustVector("go")}); err != nil {
			t.Fatal(err)
		}
	}

	// Versions: 1 = requester (shard 1), 2..11 = workers (shard 0).
	// Shard 0 retains versions 8..11 and has dropped up to 7.
	if _, ok := s.ChangesSince(0); ok {
		t.Fatal("expected merged truncation after shard 0 overflow")
	}
	if _, ok := s.ChangesSince(6); ok {
		t.Fatal("expected merged truncation: shard 0 dropped version 7")
	}
	if _, ok := s.ShardChangesSince(0, 6); ok {
		t.Fatal("expected shard 0 truncation at version 6")
	}
	if ch, ok := s.ShardChangesSince(1, 0); !ok || len(ch) != 1 || ch[0].Version != 1 {
		t.Fatalf("shard 1 should be complete from 0: %v, %v", ch, ok)
	}
	changes, ok := s.ChangesSince(7)
	if !ok || len(changes) != 4 {
		t.Fatalf("ChangesSince(7) = %v, %v; want the 4 retained shard-0 changes", changes, ok)
	}
	for i, c := range changes {
		if c.Version != uint64(8+i) {
			t.Errorf("retained change %d: version %d, want %d", i, c.Version, 8+i)
		}
	}
	if v := s.ShardVersion(0); v != 11 {
		t.Errorf("shard 0 watermark = %d, want 11", v)
	}
	if v := s.ShardVersion(1); v != 1 {
		t.Errorf("shard 1 watermark = %d, want 1", v)
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
