package sim

import (
	"testing"

	"repro/internal/assign"
	"repro/internal/complete"
	"repro/internal/eventlog"
	"repro/internal/fairness"
	"repro/internal/model"
	"repro/internal/pay"
	"repro/internal/retention"
	"repro/internal/stats"
	"repro/internal/transparency"
	"repro/internal/workload"
)

func smallConfig(seed uint64) Config {
	rng := stats.NewRNG(seed)
	pop := workload.GeneratePopulation(workload.PopulationSpec{
		Workers: 40, AcceptanceMean: 0.7, AcceptanceSpread: 0.25,
	}, rng.Split())
	batch := workload.GenerateTasks(workload.TaskSpec{
		Tasks: 30, Quota: 2, OverPublish: 1.5,
	}, pop, rng.Split())
	return Config{
		Population: pop,
		Batch:      batch,
		Rounds:     3,
		Seed:       seed,
	}
}

func TestRunBasics(t *testing.T) {
	res, err := Run(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Submitted == 0 {
		t.Fatal("no contributions submitted")
	}
	if m.MeanQuality <= 0 || m.MeanQuality > 1 {
		t.Fatalf("mean quality = %v", m.MeanQuality)
	}
	if m.RetentionRate < 0 || m.RetentionRate > 1 {
		t.Fatalf("retention = %v", m.RetentionRate)
	}
	if m.TotalPaid <= 0 {
		t.Fatalf("total paid = %v", m.TotalPaid)
	}
	// The trace must contain the full lifecycle.
	for _, typ := range []eventlog.Type{
		eventlog.WorkerJoined, eventlog.TaskPosted, eventlog.TaskOffered,
		eventlog.TaskStarted, eventlog.TaskSubmitted, eventlog.PaymentIssued,
	} {
		if len(byType(res.Log, typ)) == 0 {
			t.Errorf("trace has no %s events", typ)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics != b.Metrics {
		t.Fatalf("same seed, different metrics:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
	if a.Log.Len() != b.Log.Len() {
		t.Fatalf("trace lengths differ: %d vs %d", a.Log.Len(), b.Log.Len())
	}
}

func TestRunSeedChangesOutcome(t *testing.T) {
	a, _ := Run(smallConfig(1))
	b, _ := Run(smallConfig(2))
	if a.Metrics == b.Metrics {
		t.Fatal("different seeds produced identical metrics")
	}
}

func TestRunRequiresPopulationAndBatch(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestRunPaymentsMatchLedger(t *testing.T) {
	res, err := Run(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	// Ledger total must equal the sum of Paid over stored contributions.
	var fromContribs float64
	for _, c := range res.Store.Contributions() {
		fromContribs += c.Paid
	}
	if diff := res.Ledger.Total() - fromContribs; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("ledger %v vs contributions %v", res.Ledger.Total(), fromContribs)
	}
	// And equal the sum of PaymentIssued amounts in the trace.
	var fromEvents float64
	for _, e := range byType(res.Log, eventlog.PaymentIssued) {
		fromEvents += e.Amount
	}
	if diff := res.Ledger.Total() - fromEvents; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("ledger %v vs events %v", res.Ledger.Total(), fromEvents)
	}
}

func TestRunFairAssignerSatisfiesAxiom1(t *testing.T) {
	cfg := smallConfig(4)
	cfg.Assigner = assign.FairRoundRobin{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := fairness.CheckAxiom1(res.Store, res.Log, fairness.DefaultConfig())
	if !rep.Satisfied() {
		t.Fatalf("fair-round-robin produced Axiom 1 violations: %v", rep.Violations[0])
	}
}

func TestRunRequesterCentricViolatesAxiom1(t *testing.T) {
	cfg := smallConfig(4)
	cfg.Assigner = assign.RequesterCentric{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := fairness.CheckAxiom1(res.Store, res.Log, fairness.DefaultConfig())
	if rep.Satisfied() {
		t.Fatal("requester-centric produced no Axiom 1 violations (expected discrimination)")
	}
}

func TestRunCancelOnQuotaProducesInterruptions(t *testing.T) {
	cfg := smallConfig(5)
	cfg.Cancellation = complete.CancelOnQuota
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Interrupted == 0 {
		t.Fatal("over-published tasks under on-quota cancellation produced no interruptions")
	}
	rep := fairness.CheckAxiom5(res.Log)
	if len(rep.Violations) != res.Metrics.Interrupted {
		t.Fatalf("checker found %d violations, engine counted %d",
			len(rep.Violations), res.Metrics.Interrupted)
	}
}

// TestInterruptionsReachRetention isolates the interruption shock: with
// every other satisfaction move switched off, exactly the workers the
// completion engine interrupted fall below the baseline, and each one that
// churned left the trace a WorkerLeft event.
func TestInterruptionsReachRetention(t *testing.T) {
	cfg := smallConfig(5)
	cfg.Cancellation = complete.CancelOnQuota
	cfg.RetentionParams = retention.Params{PaymentBoost: -1, RejectionShock: -1, RenegeShock: -1, OpacityDrag: -1}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	interrupted := make(map[model.WorkerID]bool)
	for _, e := range byType(res.Log, eventlog.TaskInterrupted) {
		interrupted[e.Worker] = true
	}
	if len(interrupted) == 0 {
		t.Fatal("over-published tasks under on-quota cancellation produced no interruptions")
	}
	left := make(map[model.WorkerID]bool)
	for _, e := range byType(res.Log, eventlog.WorkerLeft) {
		left[e.Worker] = true
	}
	baseline := retention.Params{}.WithDefaults().Baseline
	for _, w := range res.Store.Workers() {
		got := res.Retention.Satisfaction(w.ID)
		if interrupted[w.ID] && got >= baseline {
			t.Errorf("interrupted worker %s kept satisfaction %.3f, baseline %.3f", w.ID, got, baseline)
		}
		if !interrupted[w.ID] && got != baseline {
			t.Errorf("worker %s was never interrupted but has satisfaction %.3f, baseline %.3f", w.ID, got, baseline)
		}
		if !res.Retention.Active(w.ID) && !left[w.ID] {
			t.Errorf("worker %s churned without a WorkerLeft event", w.ID)
		}
	}
}

func TestRunCancelNeverSatisfiesAxiom5(t *testing.T) {
	cfg := smallConfig(5)
	cfg.Cancellation = complete.CancelNever
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep := fairness.CheckAxiom5(res.Log); !rep.Satisfied() {
		t.Fatalf("never-cancel run violated Axiom 5: %v", rep.Violations)
	}
}

func TestRunSimilarityFairPaySatisfiesAxiom3(t *testing.T) {
	cfg := smallConfig(6)
	cfg.PayScheme = pay.SimilarityFair{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep := fairness.CheckAxiom3(res.Store, fairness.DefaultConfig()); !rep.Satisfied() {
		t.Fatalf("similarity-fair run violated Axiom 3: %v", rep.Violations[0])
	}
}

func TestRunFullPolicySatisfiesTransparencyAxioms(t *testing.T) {
	cfg := smallConfig(8)
	cat := transparency.StandardCatalogue()
	full := &transparency.Policy{Name: "full"}
	for _, e := range cat.Entries() {
		full.Rules = append(full.Rules, &transparency.Rule{
			Field: e.Ref, To: transparency.AudienceWorkers, On: transparency.TriggerAlways,
		})
	}
	cfg.Policy = full
	cfg.Catalogue = cat
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep := transparency.CheckAxiom6(cat, res.Log); !rep.Satisfied() {
		t.Fatalf("full policy violated Axiom 6: %v", rep.Detail.At(0))
	}
	if rep := transparency.CheckAxiom7(cat, res.Log); !rep.Satisfied() {
		t.Fatalf("full policy violated Axiom 7: %v", rep.Detail.At(0))
	}
	if res.Metrics.TransparencyScore != 1 {
		t.Fatalf("score = %v", res.Metrics.TransparencyScore)
	}
}

func TestRunOpaquePlatformFailsTransparencyAxioms(t *testing.T) {
	cfg := smallConfig(8)
	res, err := Run(cfg) // no policy
	if err != nil {
		t.Fatal(err)
	}
	cat := transparency.StandardCatalogue()
	if rep := transparency.CheckAxiom6(cat, res.Log); rep.Satisfied() {
		t.Fatal("opaque platform passed Axiom 6")
	}
	if rep := transparency.CheckAxiom7(cat, res.Log); rep.Satisfied() {
		t.Fatal("opaque platform passed Axiom 7")
	}
}

func TestRunFlagsLowAcceptanceWorkers(t *testing.T) {
	cfg := smallConfig(9)
	cfg.FlagLowAcceptance = true
	cfg.AcceptThreshold = 0.75 // reject plenty
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(byType(res.Log, eventlog.WorkerFlagged)) == 0 {
		t.Fatal("no workers flagged despite harsh acceptance")
	}
	// With flagging on, Axiom 4 must hold.
	if rep := fairness.CheckAxiom4(res.Store, res.Log); !rep.Satisfied() {
		t.Fatalf("Axiom 4 violated despite flagging: %v", rep.Violations[0])
	}
}

func TestRunComputedAttributesRefreshed(t *testing.T) {
	res, err := Run(smallConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	refreshed := 0
	for _, w := range res.Store.Workers() {
		if _, ok := w.Computed["completed"]; ok {
			refreshed++
		}
	}
	if refreshed == 0 {
		t.Fatal("no workers have refreshed computed attributes")
	}
}

func TestRunBonusContracts(t *testing.T) {
	cfg := smallConfig(12)
	cfg.BonusSeries = 1
	cfg.BonusAmount = 5
	cfg.BonusHonourRate = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.BonusesPaid == 0 {
		t.Fatal("no bonuses paid at honour rate 1")
	}
	if res.Metrics.BonusesReneged != 0 {
		t.Fatalf("reneged %d at honour rate 1", res.Metrics.BonusesReneged)
	}
	if got := len(byType(res.Log, eventlog.BonusPromised)); got == 0 {
		t.Fatal("no promise events")
	}
	if got := len(byType(res.Log, eventlog.BonusPaid)); got != res.Metrics.BonusesPaid {
		t.Fatalf("paid events = %d, metrics say %d", got, res.Metrics.BonusesPaid)
	}

	// At honour rate 0 every due contract reneges and nothing is paid.
	cfg = smallConfig(12)
	cfg.BonusSeries = 1
	cfg.BonusAmount = 5
	cfg.BonusHonourRate = 0
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.BonusesPaid != 0 || res.Metrics.BonusesReneged == 0 {
		t.Fatalf("honour rate 0: paid=%d reneged=%d", res.Metrics.BonusesPaid, res.Metrics.BonusesReneged)
	}
	if got := len(byType(res.Log, eventlog.BonusPaid)); got != 0 {
		t.Fatalf("paid events at honour rate 0: %d", got)
	}
}

func TestRunTraceIsWellFormed(t *testing.T) {
	res, err := Run(smallConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	// Timestamps are non-decreasing (the log enforces it; this asserts the
	// invariant survived the whole run).
	events := res.Log.Events()
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			t.Fatalf("time regression at %d", i)
		}
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("seq gap at %d", i)
		}
	}
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
