package audit

import (
	"fmt"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/fairness"
	"repro/internal/model"
	"repro/internal/similarity"
	"repro/internal/stats"
	"repro/internal/store"
)

// scenario drives a deterministic random mutation stream over a store +
// log, shaped so every axiom has live material: few skill patterns (many
// similar workers), few reward buckets (comparable tasks), few text
// variants (similar contributions), biased offers, occasional flags.
type scenario struct {
	tb   testing.TB
	st   *store.Store
	log  *eventlog.Log
	rng  *stats.RNG
	u    *model.Universe
	wn   int
	tn   int
	cn   int
	reqs []model.RequesterID
}

func newScenario(tb testing.TB, seed uint64) *scenario {
	return newScenarioSharded(tb, seed, 0)
}

// newScenarioSharded builds the scenario over a store with the given shard
// count (0: the default sharding).
func newScenarioSharded(tb testing.TB, seed uint64, shards int) *scenario {
	u := model.MustUniverse("go", "nlp", "vision", "audio")
	st := store.New(u)
	if shards > 0 {
		st = store.NewSharded(u, shards)
	}
	s := &scenario{
		tb: tb, st: st, log: eventlog.New(),
		rng: stats.NewRNG(seed), u: u,
	}
	for _, r := range []model.RequesterID{"r1", "r2", "r3"} {
		if err := s.st.PutRequester(&model.Requester{ID: r}); err != nil {
			tb.Fatal(err)
		}
		s.reqs = append(s.reqs, r)
	}
	return s
}

var skillPatterns = [][]string{{"go"}, {"nlp"}, {"go", "nlp"}, {"vision"}}

func (s *scenario) addWorker() model.WorkerID {
	s.wn++
	id := model.WorkerID(fmt.Sprintf("w%05d", s.wn))
	pat := skillPatterns[s.rng.Intn(len(skillPatterns))]
	w := &model.Worker{
		ID:       id,
		Declared: model.Attributes{"country": model.Str([]string{"jp", "fr"}[s.rng.Intn(2)])},
		Computed: model.Attributes{model.AttrAcceptanceRatio: model.Num([]float64{0.3, 0.8}[s.rng.Intn(2)])},
		Skills:   s.u.MustVector(pat...),
	}
	if err := s.st.PutWorker(w); err != nil {
		s.tb.Fatal(err)
	}
	return id
}

func (s *scenario) addTask() model.TaskID {
	s.tn++
	id := model.TaskID(fmt.Sprintf("t%05d", s.tn))
	pat := skillPatterns[s.rng.Intn(len(skillPatterns))]
	t := &model.Task{
		ID:        id,
		Requester: s.reqs[s.rng.Intn(len(s.reqs))],
		Skills:    s.u.MustVector(pat...),
		Reward:    []float64{1.0, 1.02, 3.0}[s.rng.Intn(3)],
	}
	if err := s.st.PutTask(t); err != nil {
		s.tb.Fatal(err)
	}
	return id
}

func (s *scenario) randomWorker() model.WorkerID {
	return model.WorkerID(fmt.Sprintf("w%05d", 1+s.rng.Intn(s.wn)))
}

func (s *scenario) randomTask() model.TaskID {
	return model.TaskID(fmt.Sprintf("t%05d", 1+s.rng.Intn(s.tn)))
}

func (s *scenario) offer() {
	s.log.MustAppend(eventlog.Event{
		Type: eventlog.TaskOffered, Worker: s.randomWorker(), Task: s.randomTask(),
	})
}

func (s *scenario) addContribution() {
	s.cn++
	c := &model.Contribution{
		ID:     model.ContributionID(fmt.Sprintf("c%05d", s.cn)),
		Task:   s.randomTask(),
		Worker: s.randomWorker(),
		Text:   []string{"the canonical answer", "the canonical answer", "something else entirely"}[s.rng.Intn(3)],
		Paid:   []float64{0.5, 0.5, 2.0}[s.rng.Intn(3)],
	}
	c.Quality = 0.7
	if err := s.st.PutContribution(c); err != nil {
		s.tb.Fatal(err)
	}
}

func (s *scenario) updateWorker() {
	w, err := s.st.Worker(s.randomWorker())
	if err != nil {
		s.tb.Fatal(err)
	}
	w.Computed[model.AttrAcceptanceRatio] = model.Num([]float64{0.3, 0.8}[s.rng.Intn(2)])
	if err := s.st.UpdateWorker(w); err != nil {
		s.tb.Fatal(err)
	}
}

func (s *scenario) updateContribution() {
	if s.cn == 0 {
		return
	}
	id := model.ContributionID(fmt.Sprintf("c%05d", 1+s.rng.Intn(s.cn)))
	c, err := s.st.Contribution(id)
	if err != nil {
		s.tb.Fatal(err)
	}
	c.Paid = []float64{0.5, 2.0}[s.rng.Intn(2)]
	if err := s.st.UpdateContribution(c); err != nil {
		s.tb.Fatal(err)
	}
}

func (s *scenario) flagWorker() {
	s.log.MustAppend(eventlog.Event{Type: eventlog.WorkerFlagged, Worker: s.randomWorker()})
}

func (s *scenario) startInterrupt() {
	w, t := s.randomWorker(), s.randomTask()
	s.log.MustAppend(eventlog.Event{Type: eventlog.TaskStarted, Worker: w, Task: t})
	if s.rng.Bool(0.5) {
		s.log.MustAppend(eventlog.Event{Type: eventlog.TaskInterrupted, Worker: w, Task: t})
	} else {
		s.log.MustAppend(eventlog.Event{Type: eventlog.TaskSubmitted, Worker: w, Task: t})
	}
}

// seed populates the initial platform.
func (s *scenario) seed(workers, tasks, offers, contribs int) {
	for i := 0; i < workers; i++ {
		s.addWorker()
	}
	for i := 0; i < tasks; i++ {
		s.addTask()
	}
	for i := 0; i < offers; i++ {
		s.offer()
	}
	for i := 0; i < contribs; i++ {
		s.addContribution()
	}
}

// mutate applies one random mutation of any supported kind.
func (s *scenario) mutate() {
	switch s.rng.Intn(8) {
	case 0:
		s.addWorker()
	case 1:
		s.addTask()
	case 2, 3:
		s.offer()
	case 4:
		s.addContribution()
	case 5:
		s.updateWorker()
	case 6:
		s.updateContribution()
	case 7:
		if s.rng.Bool(0.3) {
			s.flagWorker()
		} else {
			s.startInterrupt()
		}
	}
}

func requireEquivalent(t *testing.T, round int, inc, full []*fairness.Report) {
	t.Helper()
	if ViolationsEqual(inc, full) {
		return
	}
	for i := range inc {
		if len(inc[i].Violations) != len(full[i].Violations) {
			t.Fatalf("round %d, %s: %d violations (incremental) vs %d (full)",
				round, inc[i].Axiom, len(inc[i].Violations), len(full[i].Violations))
		}
		for j := range inc[i].Violations {
			if inc[i].Violations[j].String() != full[i].Violations[j].String() {
				t.Fatalf("round %d, %s, violation %d:\nincremental: %s\nfull:        %s",
					round, inc[i].Axiom, j, inc[i].Violations[j], full[i].Violations[j])
			}
		}
	}
	t.Fatalf("round %d: reports differ in shape", round)
}

// requirePass holds one pass to all three of its oracles: the reports equal
// the full scan's violation for violation, and the fingerprint the engine
// read off its running sums equals Fingerprint recomputed from scratch over
// the pass's own reports and over the full scan's (whose headers carry
// Checked, so Checked parity is part of it).
func requirePass(t *testing.T, round int, p Pass, full []*fairness.Report) {
	t.Helper()
	requireEquivalent(t, round, p.Reports, full)
	if want := Fingerprint(p.Reports); p.Fingerprint != want {
		t.Fatalf("round %d: running fingerprint %s != from-scratch %s over the pass's own reports", round, p.Fingerprint, want)
	}
	if want := Fingerprint(full); p.Fingerprint != want {
		t.Fatalf("round %d: running fingerprint %s != from-scratch %s over the full scan", round, p.Fingerprint, want)
	}
}

// The cold-start audit must match fairness.CheckAll exactly, including the
// Checked counts (the full-scan paths are shared).
func TestColdStartMatchesCheckAll(t *testing.T) {
	s := newScenario(t, 11)
	s.seed(60, 25, 300, 40)
	cfg := fairness.DefaultConfig()
	eng := New(s.st, s.log, cfg)
	inc := eng.Audit()
	full := fairness.CheckAll(s.st, s.log, cfg)
	requireEquivalent(t, 0, inc, full)
	for i := range inc {
		if inc[i].Checked != full[i].Checked {
			t.Errorf("%s: cold-start checked %d, full %d", inc[i].Axiom, inc[i].Checked, full[i].Checked)
		}
	}
}

// The determinism contract of the tentpole: across seeds and arbitrary
// interleavings of mutations and audits, the incremental engine reports
// exactly the violations a from-scratch full audit reports.
func TestIncrementalMatchesFullAcrossMutations(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 17, 99} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := newScenario(t, seed)
			s.seed(50, 20, 250, 30)
			cfg := fairness.DefaultConfig()
			eng := New(s.st, s.log, cfg)
			for round := 0; round < 12; round++ {
				for i := 0; i < 15; i++ {
					s.mutate()
				}
				pass := eng.AuditPass()
				inc, full := pass.Reports, fairness.CheckAll(s.st, s.log, cfg)
				requirePass(t, round, pass, full)
				// All five axioms keep exact Checked counts incrementally:
				// 3–5 via per-unit folds, 1–2 via the candidate-pair census.
				for i := range inc {
					if inc[i].Checked != full[i].Checked {
						t.Fatalf("round %d, %s: checked %d (incremental) vs %d (full)",
							round, inc[i].Axiom, inc[i].Checked, full[i].Checked)
					}
				}
			}
		})
	}
}

// TestShardCountInvariance is the tentpole's audit-level determinism
// contract: the same trace driven into stores of different shard counts —
// including the single-lock one-shard layout — must produce identical
// incremental audit reports (violations and Checked counts) round after
// round, against both each other and the full scan.
func TestShardCountInvariance(t *testing.T) {
	type lane struct {
		s   *scenario
		eng *Engine
	}
	cfg := fairness.DefaultConfig()
	var lanes []lane
	for _, shards := range []int{1, 4, 9} {
		s := newScenarioSharded(t, 77, shards)
		s.seed(50, 20, 250, 30)
		lanes = append(lanes, lane{s, New(s.st, s.log, cfg)})
	}
	for round := 0; round < 6; round++ {
		var reports [][]*fairness.Report
		full := func(l lane) []*fairness.Report { return fairness.CheckAll(l.s.st, l.s.log, cfg) }
		for _, l := range lanes {
			// The same RNG seed drives every lane, so all stores see the
			// same mutation stream.
			for i := 0; i < 20; i++ {
				l.s.mutate()
			}
			pass := l.eng.AuditPass()
			requirePass(t, round, pass, full(l))
			reports = append(reports, pass.Reports)
		}
		for li := 1; li < len(reports); li++ {
			if !ViolationsEqual(reports[0], reports[li]) {
				t.Fatalf("round %d: lane %d (shards>1) disagrees with single-shard lane", round, li)
			}
			for ax := range reports[li] {
				if reports[li][ax].Checked != reports[0][ax].Checked {
					t.Fatalf("round %d, %s: lane %d checked %d, single-shard %d",
						round, reports[li][ax].Axiom, li, reports[li][ax].Checked, reports[0][ax].Checked)
				}
			}
		}
	}
}

// Falling behind the changelog's retention window must trigger a rebuild,
// not a wrong report.
func TestChangelogTruncationFallsBackToRebuild(t *testing.T) {
	s := newScenario(t, 5)
	s.seed(40, 15, 150, 20)
	s.st.SetChangelogCap(8)
	cfg := fairness.DefaultConfig()
	eng := New(s.st, s.log, cfg)
	eng.Audit()
	// Far more mutations than the changelog retains.
	for i := 0; i < 100; i++ {
		s.mutate()
	}
	truncated := false
	for i := 0; i < s.st.ShardCount(); i++ {
		if _, ok := s.st.ShardChangesSince(i, 0); !ok {
			truncated = true
		}
	}
	if !truncated {
		t.Fatal("test setup: changelog should be truncated")
	}
	requirePass(t, 0, eng.AuditPass(), fairness.CheckAll(s.st, s.log, cfg))
	// And the engine keeps working incrementally afterwards.
	for i := 0; i < 5; i++ {
		s.mutate()
	}
	requirePass(t, 1, eng.AuditPass(), fairness.CheckAll(s.st, s.log, cfg))
}

// An audit pass between mutations must not disturb later equivalence even
// when nothing changed (empty delta).
func TestEmptyDeltaIsStable(t *testing.T) {
	s := newScenario(t, 31)
	s.seed(30, 12, 100, 15)
	cfg := fairness.DefaultConfig()
	eng := New(s.st, s.log, cfg)
	first := eng.Audit()
	second := eng.Audit()
	if !ViolationsEqual(first, second) {
		t.Fatal("back-to-back audits disagree")
	}
	// An empty delta examines no pairs, yet the census keeps the reported
	// Checked equal to the cold start's full scan.
	for _, i := range []int{0, 1} {
		if second[i].Checked != first[i].Checked {
			t.Errorf("%s: empty delta reported checked %d, cold start %d",
				second[i].Axiom, second[i].Checked, first[i].Checked)
		}
	}
}

// TestPassCostCountsJoinWork: a pass publishes its skill joins' work. The
// cold pass probes every worker and task, so it yields each pair that
// meets the skill premise once from each side; a quiet pass does no join
// work; a pass after one worker's update yields exactly that worker's
// partners and walks no task posting.
func TestPassCostCountsJoinWork(t *testing.T) {
	s := newScenario(t, 31)
	s.seed(30, 12, 100, 15)
	eng := New(s.st, s.log, fairness.DefaultConfig())
	similar := func(a, b model.SkillBits) bool { return similarity.Cosine(a, b) >= 0.9 }
	partners := func(w model.WorkerID) (n uint64) {
		for _, o := range s.st.WorkerIDs() {
			if o != w && similar(s.st.PeekWorker(w).SkillBits(), s.st.PeekWorker(o).SkillBits()) {
				n++
			}
		}
		return n
	}
	var workerYield, taskYield uint64
	for _, w := range s.st.WorkerIDs() {
		workerYield += partners(w)
	}
	tids := s.st.TaskIDs()
	for _, a := range tids {
		for _, b := range tids {
			if a != b && similar(s.st.PeekTask(a).SkillBits(), s.st.PeekTask(b).SkillBits()) {
				taskYield++
			}
		}
	}
	if workerYield == 0 || taskYield == 0 {
		t.Fatalf("the fixture has %d similar worker and %d similar task partners; too few to show anything", workerYield, taskYield)
	}

	cold := eng.AuditPass().Cost
	if cold.WorkerJoin.Yielded != workerYield || cold.TaskJoin.Yielded != taskYield {
		t.Fatalf("cold pass yielded %d worker and %d task partners, want %d and %d", cold.WorkerJoin.Yielded, cold.TaskJoin.Yielded, workerYield, taskYield)
	}
	for _, w := range []similarity.JoinWork{cold.WorkerJoin, cold.TaskJoin} {
		if w.Verified < w.Yielded || w.Probed < w.Verified {
			t.Fatalf("cold pass work %+v: fewer verified than yielded or fewer probed than verified", w)
		}
	}
	if quiet := eng.AuditPass().Cost; quiet != (Cost{}) {
		t.Fatalf("quiet pass cost %+v, want none", quiet)
	}
	w := s.randomWorker()
	u, err := s.st.Worker(w)
	if err != nil {
		t.Fatal(err)
	}
	u.Computed[model.AttrAcceptanceRatio] = model.Num(0.5)
	if err := s.st.UpdateWorker(u); err != nil {
		t.Fatal(err)
	}
	delta := eng.AuditPass().Cost
	if delta.WorkerJoin.Yielded != partners(w) || delta.TaskJoin != (similarity.JoinWork{}) {
		t.Fatalf("pass after updating %s cost %+v, want %d worker partners and no task work", w, delta, partners(w))
	}
}

// A copy read back from the store carries its packed skills. Editing the
// copy's []bool skills and writing it back through UpdateWorker must pack
// them afresh, so the next pass judges the new skills and not the old.
func TestUpdateWorkerRepacksSkills(t *testing.T) {
	u := model.MustUniverse("go", "nlp")
	st := store.New(u)
	log := eventlog.New()
	for _, w := range []*model.Worker{
		{ID: "w1", Skills: u.MustVector("go")},
		{ID: "w2", Skills: u.MustVector("nlp")},
	} {
		if err := st.PutWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.PutRequester(&model.Requester{ID: "r1"}); err != nil {
		t.Fatal(err)
	}
	if err := st.PutTask(&model.Task{ID: "t1", Requester: "r1", Skills: u.MustVector("go"), Reward: 1}); err != nil {
		t.Fatal(err)
	}
	log.MustAppend(eventlog.Event{Type: eventlog.TaskOffered, Worker: "w1", Task: "t1"})
	cfg := fairness.DefaultConfig()
	eng := New(st, log, cfg)

	setSkills := func(skills ...string) {
		t.Helper()
		w, err := st.Worker("w2")
		if err != nil {
			t.Fatal(err)
		}
		copy(w.Skills, u.MustVector(skills...)) // in place, like a caller editing its copy
		if err := st.UpdateWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	for round, tc := range []struct {
		skills []string
		want   int
	}{
		{nil, 0},
		{[]string{"go"}, 1}, // w2 now shares w1's skills but saw none of its offers
		{[]string{"nlp"}, 0},
	} {
		if tc.skills != nil {
			setSkills(tc.skills...)
		}
		p := eng.AuditPass()
		requirePass(t, round, p, fairness.CheckAll(st, log, cfg))
		if got := len(p.Reports[0].Violations); got != tc.want {
			t.Fatalf("round %d: w2 skills %v: %d Axiom 1 violations, want %d", round, tc.skills, got, tc.want)
		}
	}
}
