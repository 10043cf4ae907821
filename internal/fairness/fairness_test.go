package fairness

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/eventlog"
	"repro/internal/model"
	"repro/internal/store"
)

// twinStore builds a store with two identical workers (w1, w2), one
// differing worker (w3), and two comparable tasks from different requesters.
func twinStore(t *testing.T) *store.Store {
	t.Helper()
	u := model.MustUniverse("go", "nlp")
	s := store.New(u)
	for _, r := range []string{"r1", "r2"} {
		if err := s.PutRequester(&model.Requester{ID: model.RequesterID(r)}); err != nil {
			t.Fatal(err)
		}
	}
	twin := func(id string) *model.Worker {
		return &model.Worker{
			ID:       model.WorkerID(id),
			Declared: model.Attributes{"country": model.Str("jp")},
			Computed: model.Attributes{model.AttrAcceptanceRatio: model.Num(0.9)},
			Skills:   u.MustVector("go"),
		}
	}
	for _, w := range []*model.Worker{
		twin("w1"), twin("w2"),
		{
			ID:       "w3",
			Declared: model.Attributes{"country": model.Str("fr")},
			Computed: model.Attributes{model.AttrAcceptanceRatio: model.Num(0.2)},
			Skills:   u.MustVector("nlp"),
		},
	} {
		if err := s.PutWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, task := range []*model.Task{
		{ID: "t1", Requester: "r1", Skills: u.MustVector("go"), Reward: 1.0},
		{ID: "t2", Requester: "r2", Skills: u.MustVector("go"), Reward: 1.05},
		{ID: "t3", Requester: "r2", Skills: u.MustVector("nlp"), Reward: 5.0},
	} {
		if err := s.PutTask(task); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func offerLog(offers map[string][]string) *eventlog.Log {
	l := eventlog.New()
	// Deterministic iteration.
	var workers []string
	for w := range offers {
		workers = append(workers, w)
	}
	for i := 1; i < len(workers); i++ {
		for j := i; j > 0 && workers[j] < workers[j-1]; j-- {
			workers[j], workers[j-1] = workers[j-1], workers[j]
		}
	}
	for _, w := range workers {
		for _, task := range offers[w] {
			l.MustAppend(eventlog.Event{
				Type: eventlog.TaskOffered, Worker: model.WorkerID(w), Task: model.TaskID(task),
			})
		}
	}
	return l
}

func TestAxiom1DetectsUnequalAccess(t *testing.T) {
	s := twinStore(t)
	log := offerLog(map[string][]string{
		"w1": {"t1", "t2"},
		"w2": {"t1"}, // twin of w1 but saw less
	})
	rep := CheckAxiom1(s, log, DefaultConfig())
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %v", rep.Violations)
	}
	v := rep.Violations[0]
	if v.Subjects[0] != "w1" || v.Subjects[1] != "w2" {
		t.Fatalf("subjects = %v", v.Subjects)
	}
	if v.Severity <= 0 || v.Severity > 1 {
		t.Fatalf("severity = %v", v.Severity)
	}
	if !strings.Contains(v.String(), "Axiom 1") {
		t.Fatalf("violation string = %q", v)
	}
}

func TestAxiom1PassesOnEqualAccess(t *testing.T) {
	s := twinStore(t)
	log := offerLog(map[string][]string{
		"w1": {"t1", "t2"},
		"w2": {"t2", "t1"}, // same set, different order
	})
	rep := CheckAxiom1(s, log, DefaultConfig())
	if !rep.Satisfied() {
		t.Fatalf("violations = %v", rep.Violations)
	}
	if rep.Checked == 0 {
		t.Fatal("no pairs checked")
	}
}

func TestAxiom1IgnoresDissimilarWorkers(t *testing.T) {
	s := twinStore(t)
	// w3 differs in every way from w1; unequal access to it is fine. The
	// twins w1/w2 see identical sets so they cannot trip the checker.
	log := offerLog(map[string][]string{
		"w1": {"t1"},
		"w2": {"t1"},
		"w3": {"t3", "t1"},
	})
	rep := CheckAxiom1(s, log, DefaultConfig())
	if !rep.Satisfied() {
		t.Fatalf("dissimilar workers flagged: %v", rep.Violations)
	}
}

func TestAxiom1SkilllessWorkersCompared(t *testing.T) {
	u := model.MustUniverse("s")
	s := store.New(u)
	for _, id := range []string{"e1", "e2"} {
		if err := s.PutWorker(&model.Worker{ID: model.WorkerID(id), Skills: u.MustVector()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutRequester(&model.Requester{ID: "r"}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutTask(&model.Task{ID: "t", Requester: "r", Skills: u.MustVector()}); err != nil {
		t.Fatal(err)
	}
	log := offerLog(map[string][]string{"e1": {"t"}})
	rep := CheckAxiom1(s, log, DefaultConfig())
	// The skill inverted index cannot see skill-less workers; the checker
	// must still compare e1 and e2 and catch the access gap.
	if rep.Satisfied() {
		t.Fatal("skill-less worker pair not audited")
	}
}

func TestAxiom1AccessThresholdRelaxation(t *testing.T) {
	s := twinStore(t)
	log := offerLog(map[string][]string{
		"w1": {"t1", "t2"},
		"w2": {"t1"}, // overlap 0.5
	})
	cfg := DefaultConfig()
	cfg.AccessThreshold = 0.4 // platform tolerates partial overlap
	rep := CheckAxiom1(s, log, cfg)
	if !rep.Satisfied() {
		t.Fatalf("relaxed threshold still violated: %v", rep.Violations)
	}
}

func TestAxiom2DetectsUnequalAudience(t *testing.T) {
	s := twinStore(t)
	// t1 (r1) and t2 (r2) are comparable; t1 was shown to both workers,
	// t2 only to w1.
	log := offerLog(map[string][]string{
		"w1": {"t1", "t2"},
		"w2": {"t1"},
	})
	rep := CheckAxiom2(s, log, DefaultConfig())
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %v", rep.Violations)
	}
	if rep.Violations[0].Subjects[0] != "t1" || rep.Violations[0].Subjects[1] != "t2" {
		t.Fatalf("subjects = %v", rep.Violations[0].Subjects)
	}
}

func TestAxiom2IgnoresIncomparableRewards(t *testing.T) {
	u := model.MustUniverse("go")
	s := store.New(u)
	for _, r := range []string{"r1", "r2"} {
		if err := s.PutRequester(&model.Requester{ID: model.RequesterID(r)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutTask(&model.Task{ID: "cheap", Requester: "r1", Skills: u.MustVector("go"), Reward: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutTask(&model.Task{ID: "rich", Requester: "r2", Skills: u.MustVector("go"), Reward: 10}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutWorker(&model.Worker{ID: "w1", Skills: u.MustVector("go")}); err != nil {
		t.Fatal(err)
	}
	log := offerLog(map[string][]string{"w1": {"cheap"}})
	rep := CheckAxiom2(s, log, DefaultConfig())
	if !rep.Satisfied() {
		t.Fatalf("incomparable-reward pair flagged: %v", rep.Violations)
	}
}

func TestAxiom2SameRequesterExcluded(t *testing.T) {
	u := model.MustUniverse("go")
	s := store.New(u)
	if err := s.PutRequester(&model.Requester{ID: "r1"}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		if err := s.PutTask(&model.Task{ID: model.TaskID(id), Requester: "r1", Skills: u.MustVector("go"), Reward: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutWorker(&model.Worker{ID: "w1", Skills: u.MustVector("go")}); err != nil {
		t.Fatal(err)
	}
	log := offerLog(map[string][]string{"w1": {"a"}})
	rep := CheckAxiom2(s, log, DefaultConfig())
	if rep.Checked != 0 {
		t.Fatalf("same-requester pairs checked: %d", rep.Checked)
	}
}

func TestAxiom3DetectsPayGap(t *testing.T) {
	s := twinStore(t)
	same := "identical answer text for the similarity check to cluster on"
	for i, paid := range []float64{2.0, 1.0} {
		c := &model.Contribution{
			ID: model.ContributionID(fmt.Sprintf("c%d", i)), Task: "t1",
			Worker: model.WorkerID(fmt.Sprintf("w%d", i+1)),
			Text:   same, Quality: 0.9, Accepted: true, Paid: paid,
		}
		if err := s.PutContribution(c); err != nil {
			t.Fatal(err)
		}
	}
	rep := CheckAxiom3(s, DefaultConfig())
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %v", rep.Violations)
	}
	if math.Abs(rep.Violations[0].Severity-0.5) > 1e-9 {
		t.Fatalf("severity = %v, want 0.5 (pay gap ratio)", rep.Violations[0].Severity)
	}
}

func TestAxiom3IgnoresSameWorker(t *testing.T) {
	s := twinStore(t)
	same := "identical answer text"
	for i, paid := range []float64{2.0, 1.0} {
		c := &model.Contribution{
			ID: model.ContributionID(fmt.Sprintf("c%d", i)), Task: "t1",
			Worker: "w1", Text: same, Quality: 0.9, Accepted: true, Paid: paid,
		}
		if err := s.PutContribution(c); err != nil {
			t.Fatal(err)
		}
	}
	rep := CheckAxiom3(s, DefaultConfig())
	if rep.Checked != 0 {
		t.Fatalf("same-worker pair checked: %d", rep.Checked)
	}
}

func TestAxiom3IgnoresDissimilarContributions(t *testing.T) {
	s := twinStore(t)
	texts := []string{
		"a comprehensive answer about databases",
		"zzz qqq xxx unrelated spam tokens",
	}
	for i, text := range texts {
		c := &model.Contribution{
			ID: model.ContributionID(fmt.Sprintf("c%d", i)), Task: "t1",
			Worker: model.WorkerID(fmt.Sprintf("w%d", i+1)),
			Text:   text, Quality: 0.9, Accepted: true, Paid: float64(i),
		}
		if err := s.PutContribution(c); err != nil {
			t.Fatal(err)
		}
	}
	rep := CheckAxiom3(s, DefaultConfig())
	if !rep.Satisfied() {
		t.Fatalf("dissimilar contributions flagged: %v", rep.Violations)
	}
}

func TestAxiom4FlagsUndetectedSpammer(t *testing.T) {
	s := twinStore(t) // w3 has acceptance ratio 0.2
	log := eventlog.New()
	rep := CheckAxiom4(s, log)
	if len(rep.Violations) != 1 || rep.Violations[0].Subjects[0] != "w3" {
		t.Fatalf("violations = %v", rep.Violations)
	}
	// Once the platform flags the worker, the axiom is satisfied.
	log.MustAppend(eventlog.Event{Type: eventlog.WorkerFlagged, Worker: "w3"})
	rep = CheckAxiom4(s, log)
	if !rep.Satisfied() {
		t.Fatalf("flagged worker still a violation: %v", rep.Violations)
	}
}

func TestAxiom5DetectsInterruption(t *testing.T) {
	l := eventlog.New()
	l.MustAppend(eventlog.Event{Time: 1, Type: eventlog.TaskStarted, Worker: "w1", Task: "t1"})
	l.MustAppend(eventlog.Event{Time: 2, Type: eventlog.TaskStarted, Worker: "w2", Task: "t1"})
	l.MustAppend(eventlog.Event{Time: 3, Type: eventlog.TaskSubmitted, Worker: "w1", Task: "t1"})
	l.MustAppend(eventlog.Event{Time: 4, Type: eventlog.TaskInterrupted, Worker: "w2", Task: "t1"})
	rep := CheckAxiom5(l)
	if rep.Checked != 2 {
		t.Fatalf("checked = %d", rep.Checked)
	}
	if len(rep.Violations) != 1 || rep.Violations[0].Subjects[0] != "w2" {
		t.Fatalf("violations = %v", rep.Violations)
	}
}

func TestAxiom5InterruptWithoutStartIgnored(t *testing.T) {
	l := eventlog.New()
	l.MustAppend(eventlog.Event{Time: 1, Type: eventlog.TaskInterrupted, Worker: "w1", Task: "t1"})
	rep := CheckAxiom5(l)
	if !rep.Satisfied() {
		t.Fatalf("phantom interruption flagged: %v", rep.Violations)
	}
}

func TestAxiom5UnfinishedStartNotViolation(t *testing.T) {
	l := eventlog.New()
	l.MustAppend(eventlog.Event{Time: 1, Type: eventlog.TaskStarted, Worker: "w1", Task: "t1"})
	rep := CheckAxiom5(l)
	if !rep.Satisfied() {
		t.Fatalf("in-flight work flagged: %v", rep.Violations)
	}
	if rep.Checked != 1 {
		t.Fatalf("checked = %d", rep.Checked)
	}
}

func TestCheckAllRunsEverything(t *testing.T) {
	s := twinStore(t)
	log := offerLog(map[string][]string{"w1": {"t1"}, "w2": {"t1"}})
	reps := CheckAll(s, log, DefaultConfig())
	if len(reps) != 5 {
		t.Fatalf("reports = %d", len(reps))
	}
	for i, rep := range reps {
		if int(rep.Axiom) != i+1 {
			t.Errorf("report %d has axiom %v", i, rep.Axiom)
		}
	}
}

func TestReportViolationRate(t *testing.T) {
	r := Report{Checked: 4, Violations: make([]Violation, 1)}
	if r.ViolationRate() != 0.25 {
		t.Fatalf("rate = %v", r.ViolationRate())
	}
	if (&Report{}).ViolationRate() != 0 {
		t.Fatal("empty rate should be 0")
	}
}

func TestIncomeGini(t *testing.T) {
	s := twinStore(t)
	for i, paid := range []float64{3, 1} {
		c := &model.Contribution{
			ID: model.ContributionID(fmt.Sprintf("c%d", i)), Task: "t1",
			Worker: model.WorkerID(fmt.Sprintf("w%d", i+1)),
			Text:   "x", Quality: 0.5, Paid: paid,
		}
		if err := s.PutContribution(c); err != nil {
			t.Fatal(err)
		}
	}
	withIdle := IncomeGini(s, true) // w3 has zero income
	withoutIdle := IncomeGini(s, false)
	if withIdle <= withoutIdle {
		t.Fatalf("idle workers should increase inequality: %v vs %v", withIdle, withoutIdle)
	}
}

// jaccardIDs is the map-based reference Jaccard overlap of two id sets.
func jaccardIDs[T ~string](a, b []T) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	set := make(map[T]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	shared := 0
	setB := make(map[T]bool, len(b))
	for _, x := range b {
		if setB[x] {
			continue
		}
		setB[x] = true
		if set[x] {
			shared++
		}
	}
	union := len(set) + len(setB) - shared
	if union == 0 {
		return 1
	}
	return float64(shared) / float64(union)
}

// idSet.jaccard must agree with the reference jaccardIDs on random sets.
func TestIDSetJaccardMatchesReference(t *testing.T) {
	f := func(a, b []string) bool {
		as := make([]model.TaskID, len(a))
		for i, x := range a {
			as[i] = model.TaskID(x)
		}
		bs := make([]model.TaskID, len(b))
		for i, x := range b {
			bs[i] = model.TaskID(x)
		}
		want := jaccardIDs(as, bs)
		got := newIDSet(as).jaccard(newIDSet(bs))
		return math.Abs(want-got) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAxiomStrings(t *testing.T) {
	for a := Axiom1WorkerAssignment; a <= Axiom5NoInterruption; a++ {
		if !strings.Contains(a.String(), "Axiom") {
			t.Errorf("axiom %d string = %q", a, a.String())
		}
	}
}
