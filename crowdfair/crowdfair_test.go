package crowdfair

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/eventlog"
)

func demoPlatform(t *testing.T) *Platform {
	t.Helper()
	u := NewUniverse("translation", "labeling")
	p := NewPlatform(u)
	if err := p.AddRequester(&Requester{ID: "r1"}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []WorkerID{"w1", "w2"} {
		w := &Worker{
			ID:       id,
			Declared: Attributes{"country": Str("jp")},
			Computed: Attributes{"acceptance_ratio": Num(0.9)},
			Skills:   u.MustVector("labeling"),
		}
		if err := p.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.PostTask(&Task{ID: "t1", Requester: "r1", Skills: u.MustVector("labeling"), Reward: 1}); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlatformBuildAndAudit(t *testing.T) {
	p := demoPlatform(t)
	// Unequal access: only w1 sees t1.
	if err := p.Offer("t1", "w1"); err != nil {
		t.Fatal(err)
	}
	reports := p.AuditFairness(DefaultAuditConfig())
	if len(reports) != 5 {
		t.Fatalf("reports = %d", len(reports))
	}
	if reports[0].Satisfied() {
		t.Fatal("Axiom 1 violation not found")
	}
	// Equalise access; the audit must pass.
	if err := p.Offer("t1", "w2"); err != nil {
		t.Fatal(err)
	}
	reports = p.AuditFairness(DefaultAuditConfig())
	if !reports[0].Satisfied() {
		t.Fatalf("Axiom 1 still violated: %v", reports[0].Violations)
	}
}

func TestPlatformOfferValidatesEntities(t *testing.T) {
	p := demoPlatform(t)
	if err := p.Offer("ghost", "w1"); err == nil {
		t.Error("offer of unknown task accepted")
	}
	if err := p.Offer("t1", "ghost"); err == nil {
		t.Error("offer to unknown worker accepted")
	}
}

func TestPlatformRecordContribution(t *testing.T) {
	p := demoPlatform(t)
	c := &Contribution{ID: "c1", Task: "t1", Worker: "w1", Text: "x", Quality: 0.9, Accepted: true, Paid: 1}
	if err := p.RecordContribution(c); err != nil {
		t.Fatal(err)
	}
	if got := len(byType(p.Log(), eventlog.TaskSubmitted)); got != 1 {
		t.Fatalf("submitted events = %d", got)
	}
}

func TestPlatformTraceRoundTrip(t *testing.T) {
	p := demoPlatform(t)
	if err := p.Offer("t1", "w1"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	q := demoPlatform(t)
	if err := q.LoadTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if q.Log().Len() != p.Log().Len() {
		t.Fatalf("trace lengths differ: %d vs %d", q.Log().Len(), p.Log().Len())
	}
}

func TestParsePolicyChecksCatalogue(t *testing.T) {
	good := `policy "x" { disclose requester.hourly_wage to workers always; }`
	if _, err := ParsePolicy(good); err != nil {
		t.Fatalf("valid policy rejected: %v", err)
	}
	bad := `policy "x" { disclose worker.shoe_size to workers always; }`
	if _, err := ParsePolicy(bad); err == nil {
		t.Fatal("uncatalogued field accepted")
	}
	if _, err := ParsePolicy("syntax error"); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestRenderAndScore(t *testing.T) {
	pol, err := ParsePolicy(`policy "demo" { disclose task.reward to workers always; }`)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderPolicy(pol)
	if !strings.Contains(out, "reward") {
		t.Fatalf("render = %s", out)
	}
	score := PolicyScore(pol)
	if score <= 0 || score >= 1 {
		t.Fatalf("score = %v", score)
	}
}

func TestComparePoliciesFacade(t *testing.T) {
	a, _ := ParsePolicy(`policy "a" { disclose task.reward to workers always; }`)
	b, _ := ParsePolicy(`policy "b" { disclose requester.hourly_wage to workers always; }`)
	out := ComparePolicies(a, b)
	if !strings.Contains(out, "task.reward") || !strings.Contains(out, "hourly_wage") {
		t.Fatalf("comparison = %s", out)
	}
}

func TestSimulateEndToEnd(t *testing.T) {
	res, err := Simulate(SimulationSpec{
		Workers: 40, Tasks: 30, Rounds: 2,
		Assigner: "fair-round-robin", PayScheme: "quality-based",
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Submitted == 0 {
		t.Fatal("no submissions")
	}
	reports := res.Platform.AuditFairness(DefaultAuditConfig())
	if len(reports) != 5 {
		t.Fatalf("reports = %d", len(reports))
	}
	a6, a7 := res.Platform.AuditTransparency(nil)
	if a6.Axiom != 6 || a7.Axiom != 7 {
		t.Fatal("transparency reports mislabelled")
	}
}

func TestSimulateWithPolicy(t *testing.T) {
	pol, err := ParsePolicy(`policy "open" {
		disclose requester.hourly_wage to workers always;
		disclose worker.performance to workers always;
	}`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(SimulationSpec{Workers: 30, Tasks: 20, Rounds: 2, Policy: pol, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.TransparencyScore <= 0 {
		t.Fatalf("score = %v", res.Metrics.TransparencyScore)
	}
	if got := len(byType(res.Platform.Log(), eventlog.Disclosure)); got == 0 {
		t.Fatal("no disclosure events emitted")
	}
}

func TestSimulateUnknownNames(t *testing.T) {
	cases := []SimulationSpec{
		{Assigner: "nope"},
		{PayScheme: "nope"},
		{Cancellation: "nope"},
	}
	for i, spec := range cases {
		if _, err := Simulate(spec); err == nil {
			t.Errorf("case %d: unknown name accepted", i)
		} else if _, ok := err.(*UnknownNameError); !ok {
			t.Errorf("case %d: error type = %T", i, err)
		}
	}
}

func TestNameLists(t *testing.T) {
	if len(AssignerNames()) != 6 {
		t.Fatalf("assigners = %v", AssignerNames())
	}
	if len(PaySchemeNames()) != 3 {
		t.Fatalf("schemes = %v", PaySchemeNames())
	}
}

func TestStandardCatalogueExposed(t *testing.T) {
	if StandardCatalogue() == nil {
		t.Fatal("catalogue nil")
	}
}

func TestLintPolicyFacade(t *testing.T) {
	pol, err := ParsePolicy(`policy "x" {
		disclose task.reward to workers always;
		disclose task.reward to workers always;
	}`)
	if err != nil {
		t.Fatal(err)
	}
	warnings := LintPolicy(pol)
	if len(warnings) != 1 || !strings.Contains(warnings[0], "duplicate") {
		t.Fatalf("warnings = %v", warnings)
	}
	clean, _ := ParsePolicy(`policy "y" { disclose task.reward to workers always; }`)
	if ws := LintPolicy(clean); len(ws) != 0 {
		t.Fatalf("clean policy warnings = %v", ws)
	}
}

func TestAuditIncrementalTracksAuditFairness(t *testing.T) {
	p := demoPlatform(t)
	if err := p.Offer("t1", "w1"); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultAuditConfig()
	sameViolations := func(round string) {
		t.Helper()
		inc := p.AuditIncremental(cfg)
		full := p.AuditFairness(cfg)
		if len(inc) != 5 || len(full) != 5 {
			t.Fatalf("%s: report counts %d/%d", round, len(inc), len(full))
		}
		for i := range inc {
			if len(inc[i].Violations) != len(full[i].Violations) {
				t.Fatalf("%s, %s: %d violations (incremental) vs %d (full)",
					round, inc[i].Axiom, len(inc[i].Violations), len(full[i].Violations))
			}
			for j := range inc[i].Violations {
				if inc[i].Violations[j].String() != full[i].Violations[j].String() {
					t.Fatalf("%s, %s: %s vs %s", round, inc[i].Axiom,
						inc[i].Violations[j], full[i].Violations[j])
				}
			}
		}
	}
	sameViolations("cold start (unequal access)")
	if rep := p.AuditIncremental(cfg); rep[0].Satisfied() {
		t.Fatal("incremental audit missed the Axiom 1 violation")
	}
	// Equalising access must clear the violation incrementally.
	if err := p.Offer("t1", "w2"); err != nil {
		t.Fatal(err)
	}
	sameViolations("after equalising access")
	if rep := p.AuditIncremental(cfg); !rep[0].Satisfied() {
		t.Fatalf("incremental audit kept a stale violation: %v", rep[0].Violations)
	}
	// A changed config takes effect (engine cold-starts under it).
	loose := DefaultAuditConfig()
	loose.AccessThreshold = -1 // explicit zero: nothing is ever a violation
	if rep := p.AuditIncremental(loose); !rep[0].Satisfied() {
		t.Fatalf("config change ignored: %v", rep[0].Violations)
	}
	sameViolations("back on the default config")
}

// byType returns the log's events of type typ, in order.
func byType(log *eventlog.Log, typ eventlog.Type) []eventlog.Event {
	var out []eventlog.Event
	for _, e := range log.Events() {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}
