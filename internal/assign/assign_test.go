package assign

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/stats"
)

// testProblem builds a small two-archetype marketplace: workers w0/w1 know
// "go", workers w2/w3 know "nlp"; two go-tasks and two nlp-tasks with one
// slot each.
func testProblem() *Problem {
	u := model.MustUniverse("go", "nlp")
	mkWorker := func(id string, ratio float64, skills ...string) *model.Worker {
		return &model.Worker{
			ID:       model.WorkerID(id),
			Computed: model.Attributes{model.AttrAcceptanceRatio: model.Num(ratio)},
			Skills:   u.MustVector(skills...),
		}
	}
	mkTask := func(id string, reward float64, skills ...string) *model.Task {
		return &model.Task{
			ID: model.TaskID(id), Requester: "r1",
			Skills: u.MustVector(skills...), Reward: reward,
		}
	}
	return &Problem{
		Workers: []*model.Worker{
			mkWorker("w0", 0.9, "go"),
			mkWorker("w1", 0.6, "go"),
			mkWorker("w2", 0.9, "nlp"),
			mkWorker("w3", 0.6, "nlp"),
		},
		Tasks: []*model.Task{
			mkTask("t0", 1.0, "go"),
			mkTask("t1", 2.0, "go"),
			mkTask("t2", 1.0, "nlp"),
			mkTask("t3", 2.0, "nlp"),
		},
		RNG: stats.NewRNG(1),
	}
}

// checkInvariants verifies properties every assigner must satisfy.
func checkInvariants(t *testing.T, p *Problem, res *Result) {
	t.Helper()
	byW := make(map[model.WorkerID]*model.Worker)
	for _, w := range p.Workers {
		byW[w.ID] = w
	}
	byT := make(map[model.TaskID]*model.Task)
	for _, task := range p.Tasks {
		byT[task.ID] = task
	}
	cap := p.capacity()
	load := make(map[model.WorkerID]int)
	slots := make(map[model.TaskID]int)
	seen := make(map[Assignment]bool)
	for _, a := range res.Assignments {
		w, ok := byW[a.Worker]
		if !ok {
			t.Fatalf("%s: assignment to unknown worker %s", res.Algorithm, a.Worker)
		}
		task, ok := byT[a.Task]
		if !ok {
			t.Fatalf("%s: assignment to unknown task %s", res.Algorithm, a.Task)
		}
		if !w.Skills.Covers(task.Skills) {
			t.Errorf("%s: unqualified worker %s assigned to %s", res.Algorithm, a.Worker, a.Task)
		}
		if seen[a] {
			t.Errorf("%s: duplicate assignment %v", res.Algorithm, a)
		}
		seen[a] = true
		load[a.Worker]++
		slots[a.Task]++
	}
	for w, n := range load {
		if n > cap {
			t.Errorf("%s: worker %s over capacity: %d > %d", res.Algorithm, w, n, cap)
		}
	}
	for tid, n := range slots {
		if n > byT[tid].EffectivePublished() {
			t.Errorf("%s: task %s over published slots: %d", res.Algorithm, tid, n)
		}
	}
	// Every assignment must have been offered (visible) to its worker.
	for _, a := range res.Assignments {
		found := false
		for _, tid := range res.Offers[a.Worker] {
			if tid == a.Task {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: assignment %v without a matching offer", res.Algorithm, a)
		}
	}
}

func TestAllAssignersInvariants(t *testing.T) {
	for _, a := range All() {
		t.Run(a.Name(), func(t *testing.T) {
			p := testProblem()
			res, err := a.Assign(p)
			if err != nil {
				t.Fatal(err)
			}
			checkInvariants(t, p, res)
			if res.Algorithm != a.Name() {
				t.Errorf("algorithm label = %q", res.Algorithm)
			}
		})
	}
}

func TestAllAssignersDeterministic(t *testing.T) {
	for _, name := range []string{"self-appointment", "requester-centric", "requester-centric-optimal", "worker-centric", "fair-round-robin", "online-greedy"} {
		a, ok := ByName(name)
		if !ok {
			t.Fatalf("assigner %q missing", name)
		}
		p1, p2 := testProblem(), testProblem()
		r1, err := a.Assign(p1)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := a.Assign(p2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1.Assignments, r2.Assignments) {
			t.Errorf("%s: non-deterministic assignments", name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown assigner resolved")
	}
}

func TestValidateRejectsDuplicates(t *testing.T) {
	p := testProblem()
	p.Workers = append(p.Workers, p.Workers[0])
	if _, err := (SelfAppointment{}).Assign(p); err == nil {
		t.Error("duplicate worker accepted")
	}
	p = testProblem()
	p.Tasks = append(p.Tasks, p.Tasks[0])
	if _, err := (SelfAppointment{}).Assign(p); err == nil {
		t.Error("duplicate task accepted")
	}
}

func TestNoWorkersError(t *testing.T) {
	if _, err := (SelfAppointment{}).Assign(&Problem{}); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("error = %v", err)
	}
}

func TestSelfAppointmentFullVisibility(t *testing.T) {
	p := testProblem()
	res, err := SelfAppointment{}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	// Every worker must see every task they qualify for.
	if len(res.Offers["w0"]) != 2 || len(res.Offers["w2"]) != 2 {
		t.Fatalf("offers = %v", res.Offers)
	}
}

func TestRequesterCentricPrefersHighUtilityWorkers(t *testing.T) {
	p := testProblem()
	res, err := RequesterCentric{}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	// With capacity 1 and two go-tasks for two go-workers, the
	// high-acceptance worker w0 must be assigned before w1 gets anything;
	// both end up assigned, but w0's offer set is non-empty first. The
	// utility must equal the best achievable 0.9+0.6 per archetype.
	if res.Utility != 3.0 {
		t.Fatalf("utility = %v, want 3.0", res.Utility)
	}
}

func TestRequesterCentricOptimalAtLeastGreedy(t *testing.T) {
	// On a matrix where greedy is suboptimal, the exact matching must
	// strictly beat it.
	u := model.MustUniverse("s")
	w := func(id string, ratio float64) *model.Worker {
		return &model.Worker{ID: model.WorkerID(id),
			Computed: model.Attributes{model.AttrAcceptanceRatio: model.Num(ratio)},
			Skills:   u.MustVector("s")}
	}
	// Utility matrix (acceptance ratio is per-worker here, so greedy and
	// optimal coincide; craft a custom utility to break greedy):
	util := func(wk *model.Worker, task *model.Task) float64 {
		key := string(wk.ID) + "/" + string(task.ID)
		return map[string]float64{
			"a/t1": 10, "a/t2": 9,
			"b/t1": 9, "b/t2": 1,
		}[key]
	}
	p := &Problem{
		Workers: []*model.Worker{w("a", 1), w("b", 1)},
		Tasks: []*model.Task{
			{ID: "t1", Requester: "r", Skills: u.MustVector("s"), Reward: 1},
			{ID: "t2", Requester: "r", Skills: u.MustVector("s"), Reward: 1},
		},
		Utility: util,
	}
	greedy, err := RequesterCentric{}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	optimal, err := RequesterCentric{Optimal: true}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy takes a/t1=10 then b/t2=1 (11); optimal takes a/t2=9 + b/t1=9 (18).
	if greedy.Utility != 11 {
		t.Fatalf("greedy utility = %v, want 11", greedy.Utility)
	}
	if optimal.Utility != 18 {
		t.Fatalf("optimal utility = %v, want 18", optimal.Utility)
	}
}

func TestWorkerCentricPrefersRewards(t *testing.T) {
	p := testProblem()
	p.Capacity = 1
	res, err := WorkerCentric{}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	// Workers propose to the higher-reward task first; with one slot each,
	// exactly one go-worker gets t1 (reward 2) and the other t0.
	got := make(map[model.TaskID]int)
	for _, a := range res.Assignments {
		got[a.Task]++
	}
	for _, tid := range []model.TaskID{"t0", "t1", "t2", "t3"} {
		if got[tid] != 1 {
			t.Fatalf("task %s filled %d times: %v", tid, got[tid], res.Assignments)
		}
	}
}

func TestFairRoundRobinBalancesLoad(t *testing.T) {
	u := model.MustUniverse("s")
	var workers []*model.Worker
	for i := 0; i < 4; i++ {
		workers = append(workers, &model.Worker{
			ID: model.WorkerID(fmt.Sprintf("w%d", i)), Skills: u.MustVector("s"),
		})
	}
	var tasks []*model.Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks, &model.Task{
			ID: model.TaskID(fmt.Sprintf("t%d", i)), Requester: "r",
			Skills: u.MustVector("s"), Reward: 1,
		})
	}
	p := &Problem{Workers: workers, Tasks: tasks, Capacity: 2}
	res, err := FairRoundRobin{}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	load := make(map[model.WorkerID]int)
	for _, a := range res.Assignments {
		load[a.Worker]++
	}
	for _, w := range workers {
		if load[w.ID] != 2 {
			t.Fatalf("load = %v, want 2 each", load)
		}
	}
}

func TestFairRoundRobinLoadGapAtMostOne(t *testing.T) {
	// 3 tasks, 2 workers, capacity 2: loads must differ by at most 1.
	u := model.MustUniverse("s")
	p := &Problem{
		Workers: []*model.Worker{
			{ID: "w0", Skills: u.MustVector("s")},
			{ID: "w1", Skills: u.MustVector("s")},
		},
		Tasks: []*model.Task{
			{ID: "t0", Requester: "r", Skills: u.MustVector("s"), Reward: 1},
			{ID: "t1", Requester: "r", Skills: u.MustVector("s"), Reward: 1},
			{ID: "t2", Requester: "r", Skills: u.MustVector("s"), Reward: 1},
		},
		Capacity: 2,
	}
	res, err := FairRoundRobin{}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	load := map[model.WorkerID]int{}
	for _, a := range res.Assignments {
		load[a.Worker]++
	}
	if len(res.Assignments) != 3 {
		t.Fatalf("assignments = %d, want 3", len(res.Assignments))
	}
	gap := load["w0"] - load["w1"]
	if gap < -1 || gap > 1 {
		t.Fatalf("load gap = %d: %v", gap, load)
	}
}

func TestOnlineGreedySlateSize(t *testing.T) {
	p := testProblem()
	res, err := OnlineGreedy{SlateSize: 1}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	for w, offers := range res.Offers {
		// With slate 1 and capacity 1, a worker sees exactly one task.
		if len(offers) > 1 {
			t.Fatalf("worker %s saw %d tasks with slate 1", w, len(offers))
		}
	}
}

func TestOnlineGreedyRespectsQualification(t *testing.T) {
	p := testProblem()
	res, err := OnlineGreedy{}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, p, res)
}

func TestQualificationUtilityZeroForUnqualified(t *testing.T) {
	u := model.MustUniverse("a", "b")
	w := &model.Worker{ID: "w", Skills: u.MustVector("a")}
	task := &model.Task{ID: "t", Requester: "r", Skills: u.MustVector("b")}
	if QualificationUtility(w, task) != 0 {
		t.Error("unqualified utility should be 0")
	}
	if RewardPreference(w, task) != 0 {
		t.Error("unqualified preference should be 0")
	}
}

func TestQualificationUtilityDefaults(t *testing.T) {
	u := model.MustUniverse("a")
	w := &model.Worker{ID: "w", Skills: u.MustVector("a")}
	task := &model.Task{ID: "t", Requester: "r", Skills: u.MustVector("a")}
	if got := QualificationUtility(w, task); got != 0.5 {
		t.Errorf("default utility = %v, want 0.5", got)
	}
	w.Computed = model.Attributes{model.AttrAcceptanceRatio: model.Num(0.8)}
	if got := QualificationUtility(w, task); got != 0.8 {
		t.Errorf("utility = %v, want 0.8", got)
	}
}

func TestCapacityDefaultsToOne(t *testing.T) {
	p := testProblem()
	p.Capacity = 0
	res, err := SelfAppointment{}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	load := map[model.WorkerID]int{}
	for _, a := range res.Assignments {
		load[a.Worker]++
	}
	for w, n := range load {
		if n > 1 {
			t.Fatalf("worker %s load %d with default capacity", w, n)
		}
	}
}

func TestPublishedSlotsRespected(t *testing.T) {
	u := model.MustUniverse("s")
	p := &Problem{
		Workers: []*model.Worker{
			{ID: "w0", Skills: u.MustVector("s")},
			{ID: "w1", Skills: u.MustVector("s")},
			{ID: "w2", Skills: u.MustVector("s")},
		},
		Tasks: []*model.Task{
			{ID: "t0", Requester: "r", Skills: u.MustVector("s"), Reward: 1, Quota: 1, Published: 2},
		},
	}
	for _, a := range All() {
		res, err := a.Assign(p)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if len(res.Assignments) > 2 {
			t.Errorf("%s: %d assignments to a 2-slot task", a.Name(), len(res.Assignments))
		}
	}
}
