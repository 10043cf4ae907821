package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/crowdfair"
	"repro/internal/audit"
	"repro/internal/fairness"
	"repro/internal/par"
	"repro/internal/transparency"
)

// churnSpec sizes audit_churn.
type churnSpec struct {
	shape popShape
	// roundsPerSecond scales the fixed round count with -seconds, so the
	// amount of work (and every count it produces) is a function of the
	// arguments alone, not of how fast this build happens to run.
	roundsPerSecond int
	frac            float64
}

func churnSpecFor(o options) churnSpec {
	if o.smoke {
		return churnSpec{shape: popShape{workers: 400, tasksPerCluster: 2, contribEvery: 4}, roundsPerSecond: 6, frac: 0.02}
	}
	return churnSpec{shape: popShape{workers: 30000, tasksPerCluster: 2, contribEvery: 4}, roundsPerSecond: 4, frac: 0.005}
}

// churnAuditConfig is the paper's checker configuration over LSH candidate
// generation — at this size candidate generation decides the time.
func churnAuditConfig(seed int64) crowdfair.AuditConfig {
	cfg := crowdfair.DefaultAuditConfig()
	cfg.CandidateIndex = fairness.CandidateLSH
	cfg.LSHSeed = uint64(seed)
	return cfg
}

// platformPolicy is what the audited platform has committed to — the
// policy each round's compliance check holds the trace against.
const platformPolicy = `policy "bench-platform" {
    disclose requester.hourly_wage to workers always;
    disclose requester.payment_delay to workers always;
    disclose task.recruitment_criteria to workers on task_view;
    disclose task.rejection_criteria to workers on task_view;
    disclose task.reward to workers always;
    disclose worker.performance to workers always;
    disclose worker.acceptance_ratio to workers always;
    disclose platform.requester_rating to public always;
    disclose platform.auto_approval_delay to workers always;
}`

// benchPolicySource is a 50-rule transparency policy cycling through the
// standard catalogue's fields, the audiences and the triggers, every third
// rule conditional: the input of the parse and evaluate timings.
func benchPolicySource() string {
	fields := []string{
		"requester.hourly_wage", "requester.payment_delay", "task.recruitment_criteria", "task.rejection_criteria",
		"task.evaluation_scheme", "task.reward", "worker.performance", "worker.acceptance_ratio", "worker.completed",
		"platform.requester_rating", "platform.payment_schedule", "platform.auto_approval_delay", "platform.worker_progress",
	}
	audiences := []string{"workers", "workers", "public", "requesters"}
	triggers := []string{"always", "always", "on task_view", "on submission", "on rejection", "on payment", "on signup"}
	var b strings.Builder
	b.WriteString("policy \"bench-50\" {\n")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&b, "    disclose %s to %s %s", fields[i%len(fields)], audiences[i%len(audiences)], triggers[i%len(triggers)])
		if i%3 == 2 {
			fmt.Fprintf(&b, " when worker.completed >= %d", 5*(i%7))
		}
		b.WriteString(";\n")
	}
	b.WriteString("}\n")
	return b.String()
}

// churnSetup generates the inputs and seeds an in-memory platform.
func churnSetup(sp churnSpec, rounds int, seed int64) (*crowdfair.Platform, []churnRound, error) {
	rng := rand.New(rand.NewSource(seed))
	pp := generatePopulation(sp.shape, rng)
	churn := generateChurn(pp, sp.shape, rounds, sp.frac, rng)
	p := crowdfair.NewPlatform(pp.universe)
	if err := pp.seed(p); err != nil {
		return nil, nil, fmt.Errorf("seed: %w", err)
	}
	return p, churn, nil
}

func countViolations(reps []*crowdfair.FairnessReport) int {
	n := 0
	for _, r := range reps {
		n += len(r.Violations)
	}
	return n
}

// checkChurn is the audit correctness gate: the incremental engine's last
// report must equal a one-shot full audit of the final state, and the
// population is built to violate, so an empty report is itself a failure.
func checkChurn(last, full []*crowdfair.FairnessReport) []string {
	var bad []string
	if !audit.ViolationsEqual(last, full) {
		bad = append(bad, fmt.Sprintf("last incremental report (%d violations) != AuditFairness report (%d)", countViolations(last), countViolations(full)))
	}
	if countViolations(full) == 0 {
		bad = append(bad, "final audit found no violations")
	}
	return bad
}

func runAuditChurn(o options) (*report, error) {
	sp := churnSpecFor(o)
	rounds := sp.roundsPerSecond * o.seconds
	if o.trace {
		return runAuditChurnTraced(sp, (rounds+2)/3, o)
	}
	rep := newReport()
	var p *crowdfair.Platform
	var churn []churnRound
	setupS, err := medianSetup(func() (err error) {
		p, churn, err = churnSetup(sp, rounds, o.seed)
		return err
	}, func() error { return nil })
	if err != nil {
		return nil, err
	}
	cfg := churnAuditConfig(o.seed)
	policy, err := transparency.Parse(platformPolicy)
	if err != nil {
		return nil, err
	}

	startMeasured()
	start := time.Now()
	last := p.AuditIncremental(cfg)
	cold := time.Since(start)

	var deltas, transp []float64
	loopStart := time.Now()
	for i := range churn {
		if err := churn[i].apply(p); err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		start = time.Now()
		last = p.AuditIncremental(cfg)
		deltas = append(deltas, ms(time.Since(start)))
		start = time.Now()
		p.AuditTransparency(nil)
		transparency.PolicyCompliance(policy, p.Log())
		transp = append(transp, ms(time.Since(start)))
	}
	loop := time.Since(loopStart)

	start = time.Now()
	full := p.AuditFairness(cfg)
	fullTook := time.Since(start)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.gates = checkChurn(last, full)

	rep.attempted = 2 + len(churn)
	rep.slot("op_p50_ms", "audit_delta_p50_ms", median(deltas))
	rep.slot("alt_op_ms", "transparency_audit_p50_ms", median(transp))
	rep.slot("throughput_per_s", "churn_rounds_per_s", float64(len(churn))/loop.Seconds())
	rep.set("report_lag_ms", ms(cold))
	rep.set("peak_rss_mb", rss)
	rep.set("setup_s", setupS)
	rep.note("audit_cold_s", cold.Seconds(), "s")
	rep.note("audit_full_s", fullTook.Seconds(), "s")
	rep.note("audit.violations", float64(countViolations(full)), "count")
	rep.note("store.changes", float64(p.Version()), "count")
	rep.note("eventlog.events", float64(p.Log().Len()), "count")
	return rep, nil
}

// runAuditChurnTraced repeats the workload at a third of the rounds with a
// span around every call into audit, fairness and transparency, driving
// the engine directly so its cache counters are readable.
func runAuditChurnTraced(sp churnSpec, rounds int, o options) (*report, error) {
	rep := newReport()
	tr := newTracer()
	p, churn, err := churnSetup(sp, rounds, o.seed)
	if err != nil {
		return nil, err
	}
	cfg := churnAuditConfig(o.seed)
	policy, err := transparency.Parse(platformPolicy)
	if err != nil {
		return nil, err
	}
	cat := transparency.StandardCatalogue()

	eng := audit.New(p.Store(), p.Log(), cfg)
	var last []*crowdfair.FairnessReport
	root := tr.begin("audit_churn", -1, -1)
	coldSpan := tr.time("audit.cold", root, -1, func() { last = eng.Audit() })
	for i := range churn {
		if err := churn[i].apply(p); err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		tr.time("audit.pass", root, i, func() { last = eng.Audit() })
		tr.time("transparency.axiom6", root, i, func() { transparency.CheckAxiom6(cat, p.Log()) })
		tr.time("transparency.axiom7", root, i, func() { transparency.CheckAxiom7(cat, p.Log()) })
		tr.time("transparency.compliance", root, i, func() { transparency.PolicyCompliance(policy, p.Log()) })
	}
	tr.end(root)
	counters := eng.Cache().Counters()

	// The five full-scan checkers one by one on the final state; together
	// they are AuditFairness.
	full := make([]*crowdfair.FairnessReport, 5)
	st, log := p.Store(), p.Log()
	checks := []func(){
		func() { full[0] = fairness.CheckAxiom1(st, log, cfg) },
		func() { full[1] = fairness.CheckAxiom2(st, log, cfg) },
		func() { full[2] = fairness.CheckAxiom3(st, cfg) },
		func() { full[3] = fairness.CheckAxiom4(st, log) },
		func() { full[4] = fairness.CheckAxiom5(log) },
	}
	fullS := 0.0
	for i, check := range checks {
		d := tr.seconds(tr.time(fmt.Sprintf("fairness.axiom%d", i+1), -1, -1, check))
		rep.setLayer(fmt.Sprintf("fairness.axiom%d_s", i+1), d)
		fullS += d
	}
	rep.gates = checkChurn(last, full)

	// Cold again, single-threaded, on a second platform: the ceiling on
	// what any change to the par pool can give.
	p2, _, err := churnSetup(sp, 0, o.seed)
	if err != nil {
		return nil, err
	}
	prev := par.SetMaxWorkers(1)
	serial := tr.time("audit.cold_serial", -1, -1, func() { audit.New(p2.Store(), p2.Log(), cfg).Audit() })
	par.SetMaxWorkers(prev)

	// Policy parse and evaluation on the 50-rule policy.
	src := benchPolicySource()
	big, err := transparency.Parse(src)
	if err != nil {
		return nil, err
	}
	ctx := transparency.NewContext().SetNum(transparency.SubjectWorker, "completed", 20)
	for i := 0; i < 500; i++ {
		tr.time("transparency.parse", -1, i, func() { _, err = transparency.Parse(src) })
		if err != nil {
			return nil, err
		}
		tr.time("transparency.evaluate", -1, i, func() {
			_, err = big.Evaluate(cat, ctx, transparency.AudienceWorkers, transparency.TriggerTaskView)
		})
		if err != nil {
			return nil, err
		}
	}

	cold, coldSerial := tr.seconds(coldSpan), tr.seconds(serial)
	passes := tr.durations("audit.pass", time.Millisecond)
	rep.attempted = 2 + len(churn)
	rep.setLayer("audit.pass_p50_ms", median(passes))
	rep.setLayer("audit.pass_p90_ms", quantile(passes, 0.9))
	rep.setLayer("audit.checked_pairs", float64(last[0].Checked+last[1].Checked))
	rep.setLayer("audit.violations", float64(countViolations(full)))
	if total := counters.Hits + counters.Misses; total > 0 {
		rep.setLayer("audit.cache_hit_share", float64(counters.Hits)/float64(total))
	}
	rep.setLayer("audit.cache_evictions", float64(counters.Evictions))
	rep.setLayer("audit.cold_serial_s", coldSerial)
	rep.setLayer("audit.full_s", fullS)
	rep.setLayer("par.speedup_x", coldSerial/cold)
	rep.setLayer("similarity.candidate_pairs", float64(full[0].Checked+full[1].Checked))
	rep.setLayer("transparency.axiom6_p50_ms", median(tr.durations("transparency.axiom6", time.Millisecond)))
	rep.setLayer("transparency.axiom7_p50_ms", median(tr.durations("transparency.axiom7", time.Millisecond)))
	rep.setLayer("transparency.compliance_p50_ms", median(tr.durations("transparency.compliance", time.Millisecond)))
	rep.setLayer("transparency.evaluate_p50_us", median(tr.durations("transparency.evaluate", time.Microsecond)))
	rep.setLayer("transparency.parse_p50_us", median(tr.durations("transparency.parse", time.Microsecond)))
	rep.setLayer("store.changes", float64(p.Version()))
	rep.setLayer("eventlog.events", float64(p.Log().Len()))
	rep.note("audit.cold_s", cold, "s")
	rep.tracer = tr
	return rep, nil
}
