package store

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/model"
)

func testUniverse() *model.Universe {
	return model.MustUniverse("go", "sql", "nlp")
}

func seeded(t *testing.T) *Store {
	t.Helper()
	u := testUniverse()
	s := New(u)
	if err := s.PutRequester(&model.Requester{ID: "r1"}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutWorker(&model.Worker{ID: "w1", Skills: u.MustVector("go", "sql")}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutWorker(&model.Worker{ID: "w2", Skills: u.MustVector("nlp")}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutTask(&model.Task{ID: "t1", Requester: "r1", Skills: u.MustVector("go"), Reward: 1}); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutAndGetWorker(t *testing.T) {
	s := seeded(t)
	w, err := s.Worker("w1")
	if err != nil {
		t.Fatal(err)
	}
	if w.ID != "w1" || !w.Skills[0] {
		t.Fatalf("worker = %+v", w)
	}
	if _, err := s.Worker("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing worker error = %v", err)
	}
}

func TestPutWorkerDuplicate(t *testing.T) {
	s := seeded(t)
	err := s.PutWorker(&model.Worker{ID: "w1", Skills: testUniverse().MustVector()})
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate error = %v", err)
	}
}

func TestPutWorkerInvalid(t *testing.T) {
	s := seeded(t)
	err := s.PutWorker(&model.Worker{ID: "", Skills: testUniverse().MustVector()})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("invalid error = %v", err)
	}
}

func TestStoreClonesOnWrite(t *testing.T) {
	u := testUniverse()
	s := New(u)
	w := &model.Worker{ID: "w1", Skills: u.MustVector("go"), Computed: model.Attributes{"x": model.Num(1)}}
	if err := s.PutWorker(w); err != nil {
		t.Fatal(err)
	}
	w.Computed["x"] = model.Num(99)
	w.Skills[0] = false
	got, _ := s.Worker("w1")
	if got.Computed["x"].Num != 1 || !got.Skills[0] {
		t.Fatal("store shares storage with caller")
	}
}

func TestStoreClonesOnRead(t *testing.T) {
	s := seeded(t)
	a, _ := s.Worker("w1")
	a.Skills[0] = false
	b, _ := s.Worker("w1")
	if !b.Skills[0] {
		t.Fatal("read result shares storage with store")
	}
}

func TestUpdateWorkerReindexes(t *testing.T) {
	s := seeded(t)
	u := s.Universe()
	w, _ := s.Worker("w1")
	w.Skills = u.MustVector("nlp")
	if err := s.UpdateWorker(w); err != nil {
		t.Fatal(err)
	}
	if got := s.PeekWorker("w1").Skills; !slices.Equal(got, u.MustVector("nlp")) {
		t.Fatalf("skills after update = %v", got)
	}
	if ws := s.Workers(); len(ws) != 2 || !slices.Equal(ws[0].Skills, u.MustVector("nlp")) {
		t.Fatalf("workers after update = %v", ws)
	}
}

func TestUpdateWorkerNotFound(t *testing.T) {
	s := seeded(t)
	err := s.UpdateWorker(&model.Worker{ID: "ghost", Skills: testUniverse().MustVector()})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("error = %v", err)
	}
}

func TestWorkersSorted(t *testing.T) {
	s := seeded(t)
	ws := s.Workers()
	if len(ws) != 2 || ws[0].ID != "w1" || ws[1].ID != "w2" {
		t.Fatalf("workers = %v", ws)
	}
	if s.WorkerCount() != 2 {
		t.Fatalf("count = %d", s.WorkerCount())
	}
}

func TestTaskRequiresRequester(t *testing.T) {
	u := testUniverse()
	s := New(u)
	err := s.PutTask(&model.Task{ID: "t", Requester: "ghost", Skills: u.MustVector()})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("orphan task error = %v", err)
	}
}

func TestTasksByRequesterAndSkill(t *testing.T) {
	s := seeded(t)
	u := s.Universe()
	if err := s.PutTask(&model.Task{ID: "t2", Requester: "r1", Skills: u.MustVector("go", "nlp")}); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, task := range s.Tasks() {
		if task.Requester == "r1" {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("tasks by requester = %d", n)
	}
	if got := s.PeekTask("t2").Skills; !slices.Equal(got, u.MustVector("go", "nlp")) {
		t.Fatalf("t2 skills = %v", got)
	}
}

func TestContributionReferentialIntegrity(t *testing.T) {
	s := seeded(t)
	base := model.Contribution{ID: "c1", Task: "t1", Worker: "w1", Quality: 0.5}
	ghostTask := base
	ghostTask.Task = "ghost"
	if err := s.PutContribution(&ghostTask); !errors.Is(err, ErrNotFound) {
		t.Errorf("ghost task error = %v", err)
	}
	ghostWorker := base
	ghostWorker.Worker = "ghost"
	if err := s.PutContribution(&ghostWorker); !errors.Is(err, ErrNotFound) {
		t.Errorf("ghost worker error = %v", err)
	}
	if err := s.PutContribution(&base); err != nil {
		t.Fatal(err)
	}
	if err := s.PutContribution(&base); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate error = %v", err)
	}
}

func TestContributionsOrderedBySubmission(t *testing.T) {
	s := seeded(t)
	for i, at := range []int64{5, 1, 3} {
		c := &model.Contribution{
			ID: model.ContributionID(fmt.Sprintf("c%d", i)), Task: "t1", Worker: "w1",
			Quality: 0.5, SubmittedAt: at,
		}
		if err := s.PutContribution(c); err != nil {
			t.Fatal(err)
		}
	}
	cs := s.ContributionsByTask("t1")
	if len(cs) != 3 || cs[0].SubmittedAt != 1 || cs[2].SubmittedAt != 5 {
		t.Fatalf("order = %v,%v,%v", cs[0].SubmittedAt, cs[1].SubmittedAt, cs[2].SubmittedAt)
	}
}

func TestUpdateContribution(t *testing.T) {
	s := seeded(t)
	c := &model.Contribution{ID: "c1", Task: "t1", Worker: "w1", Quality: 0.5}
	if err := s.PutContribution(c); err != nil {
		t.Fatal(err)
	}
	c.Paid = 2.5
	c.Accepted = true
	if err := s.UpdateContribution(c); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Contribution("c1")
	if got.Paid != 2.5 || !got.Accepted {
		t.Fatalf("update lost: %+v", got)
	}
	// Task/worker are immutable.
	c.Worker = "w2"
	if err := s.UpdateContribution(c); !errors.Is(err, ErrInvalid) {
		t.Errorf("immutable field change error = %v", err)
	}
}

func TestVersionBumps(t *testing.T) {
	s := seeded(t)
	v := s.Version()
	if err := s.PutRequester(&model.Requester{ID: "r2"}); err != nil {
		t.Fatal(err)
	}
	if s.Version() != v+1 {
		t.Fatalf("version did not bump: %d -> %d", v, s.Version())
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	u := testUniverse()
	s := New(u)
	if err := s.PutRequester(&model.Requester{ID: "r1"}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := model.WorkerID(fmt.Sprintf("w-%d-%d", g, i))
				if err := s.PutWorker(&model.Worker{ID: id, Skills: u.MustVector("go")}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Workers()
				s.WorkerCount()
			}
		}()
	}
	wg.Wait()
	if s.WorkerCount() != 200 {
		t.Fatalf("workers = %d, want 200", s.WorkerCount())
	}
}
