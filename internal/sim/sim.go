// Package sim is the event-driven crowdsourcing marketplace simulator: the
// controlled-experiment substrate §4.1 calls for. One Run wires every other
// subsystem together — workers join, tasks are posted and assigned
// (internal/assign), completed under a cancellation policy
// (internal/complete), evaluated and paid (internal/pay), disclosed
// according to a transparency policy (internal/transparency), while a
// behavioural model (internal/retention) converts the fairness and
// transparency treatment into the paper's objective measures: contribution
// quality and worker retention. The full trace lands in an in-memory
// store.Store and eventlog.Log; auditing or persisting it is the caller's
// job (crowdfair.Platform wraps the returned store and log for both).
package sim

import (
	"fmt"

	"repro/internal/assign"
	"repro/internal/complete"
	"repro/internal/eventlog"
	"repro/internal/model"
	"repro/internal/pay"
	"repro/internal/retention"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/transparency"
	"repro/internal/workload"
)

// Config parameterises one simulation run. Population and Batch are
// required; everything else has experiment-grade defaults.
type Config struct {
	Population *workload.Population
	Batch      *workload.Batch
	// Assigner allocates tasks each round (default FairRoundRobin).
	Assigner assign.Assigner
	// PayScheme computes payments per task (default FixedReward).
	PayScheme pay.Scheme
	// Cancellation is the task-completion policy (default CancelNever).
	Cancellation complete.CancellationPolicy
	// Policy is the platform's transparency policy; nil means a fully
	// opaque platform. Catalogue defaults to the standard catalogue.
	Policy    *transparency.Policy
	Catalogue *transparency.Catalogue
	// RetentionParams tunes the behaviour model (defaults in retention).
	RetentionParams retention.Params
	// AcceptThreshold is the quality at/above which requesters accept a
	// contribution (default 0.5).
	AcceptThreshold float64
	// Rounds is the number of assignment→completion→payment cycles
	// (default 1). Tasks are spread evenly over rounds.
	Rounds int
	// WorkerCapacity is tasks per worker per round (default 1).
	WorkerCapacity int
	// FlagLowAcceptance makes the platform emit WorkerFlagged events for
	// workers whose running acceptance ratio drops below 0.5 — the
	// detection capability Axiom 4 demands.
	FlagLowAcceptance bool
	// BonusSeries, when > 0, enables the §3.1.1 bonus-contract scenario:
	// every worker is promised BonusAmount for completing BonusSeries
	// accepted tasks. At the end of the run each due contract is honoured
	// with probability BonusHonourRate; reneged contracts shock the
	// worker's satisfaction (the paper's "promises a bonus ... but does
	// not do so in the end").
	BonusSeries     int
	BonusAmount     float64
	BonusHonourRate float64
	// Seed drives all randomness in the run.
	Seed uint64
}

// Metrics are the objective measures of §4.1, computed over the whole run.
type Metrics struct {
	// MeanQuality is the mean quality of all submitted contributions —
	// the paper's fairness effectiveness measure.
	MeanQuality float64
	// RetentionRate is the share of joined workers still active at the end
	// — the paper's transparency effectiveness measure.
	RetentionRate float64
	// AcceptedRate is accepted contributions / submitted.
	AcceptedRate float64
	// RequesterUtility is the total quality of accepted contributions.
	RequesterUtility float64
	// TotalPaid is the ledger total.
	TotalPaid float64
	// IncomeGini is inequality of worker income.
	IncomeGini float64
	// Interrupted counts Axiom-5 interruption events.
	Interrupted int
	// Submitted counts all contributions.
	Submitted int
	// TransparencyScore echoes the policy's score for convenience.
	TransparencyScore float64
	// BonusesPaid and BonusesReneged count settled bonus contracts (zero
	// unless Config.BonusSeries was set).
	BonusesPaid    int
	BonusesReneged int
}

// Result bundles the artefacts of a run for auditing.
type Result struct {
	Store     *store.Store
	Log       *eventlog.Log
	Ledger    *pay.Ledger
	Retention *retention.Model
	Metrics   Metrics
}

// Run executes the simulation. It returns an error only for structurally
// invalid configurations; behavioural outcomes are data, not errors.
func Run(cfg Config) (*Result, error) {
	if cfg.Population == nil || cfg.Batch == nil {
		return nil, fmt.Errorf("sim: population and batch are required")
	}
	if cfg.Assigner == nil {
		cfg.Assigner = assign.FairRoundRobin{}
	}
	if cfg.PayScheme == nil {
		cfg.PayScheme = pay.FixedReward{}
	}
	if cfg.Catalogue == nil {
		cfg.Catalogue = transparency.StandardCatalogue()
	}
	if cfg.AcceptThreshold == 0 {
		cfg.AcceptThreshold = 0.5
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	if cfg.WorkerCapacity <= 0 {
		cfg.WorkerCapacity = 1
	}

	rng := stats.NewRNG(cfg.Seed + 0x5eed)
	st := store.New(cfg.Population.Universe)
	log := eventlog.New()
	ledger := pay.NewLedger()
	score := 0.0
	if cfg.Policy != nil {
		score = transparency.TransparencyScore(cfg.Policy, cfg.Catalogue)
	}
	ret := retention.NewModel(cfg.RetentionParams, score, rng.Split())

	r := &runner{
		cfg: cfg, rng: rng, st: st, log: log, ledger: ledger, ret: ret,
		score:     score,
		submitted: make(map[model.WorkerID]int),
		accepted:  make(map[model.WorkerID]int),
		qualSum:   make(map[model.WorkerID]float64),
		flagged:   make(map[model.WorkerID]bool),
		baseSkill: make(map[model.WorkerID]float64),
		contracts: make(map[model.WorkerID]*pay.BonusContract),
	}
	if err := r.setup(); err != nil {
		return nil, err
	}
	if err := r.runRounds(); err != nil {
		return nil, err
	}
	if err := r.settleBonuses(); err != nil {
		return nil, err
	}
	return r.finish(), nil
}

type runner struct {
	cfg    Config
	rng    *stats.RNG
	st     *store.Store
	log    *eventlog.Log
	ledger *pay.Ledger
	ret    *retention.Model
	score  float64
	now    int64

	contribSeq     int
	submitted      map[model.WorkerID]int
	accepted       map[model.WorkerID]int
	qualSum        map[model.WorkerID]float64
	flagged        map[model.WorkerID]bool
	contracts      map[model.WorkerID]*pay.BonusContract
	bonusesPaid    int
	bonusesReneged int
	// baseSkill is each worker's intrinsic competence, captured at setup.
	// Computed attributes (acceptance ratio etc.) are refreshed from run
	// history for disclosure and auditing, but quality generation must use
	// the intrinsic value — feeding the realized 0/1 acceptance history
	// back into quality collapses the behavioural dynamics.
	baseSkill map[model.WorkerID]float64

	totalQuality   float64
	totalSubmitted int
	totalAccepted  int
	requesterUtil  float64
	interruptedN   int
}

// discloseAlways emits the policy's unconditional always-rules for each
// worker at signup, binding the worker's computed attributes into the
// context so platform.* and worker.* disclosures carry real values.
func (r *runner) discloseWorkerView(w *model.Worker, trig transparency.Trigger) {
	if r.cfg.Policy == nil {
		return
	}
	ctx := transparency.NewContext()
	if v, ok := w.Computed[model.AttrAcceptanceRatio]; ok {
		ctx.SetNum(transparency.SubjectWorker, "acceptance_ratio", v.Num)
	}
	if v, ok := w.Computed[model.AttrPerformance]; ok {
		ctx.SetNum(transparency.SubjectWorker, "performance", v.Num)
	}
	if v, ok := w.Computed[model.AttrCompleted]; ok {
		ctx.SetNum(transparency.SubjectWorker, "completed", v.Num)
	}
	ds, err := r.cfg.Policy.Evaluate(r.cfg.Catalogue, ctx, transparency.AudienceWorkers, trig)
	if err != nil {
		// Conditional rules referencing unbound fields simply do not fire
		// for this worker view; an opaque context is not a platform error.
		return
	}
	for _, d := range ds {
		r.log.MustAppend(eventlog.Event{
			Time: r.now, Type: eventlog.Disclosure, Worker: w.ID, Field: d.Field.String(),
		})
	}
}

func (r *runner) setup() error {
	// Insert the whole population through the store's shard-parallel bulk
	// path; the per-worker bookkeeping below stays in population order, so
	// the event log and contract setup are identical to a sequential load.
	if err := r.st.BulkPutWorkers(r.cfg.Population.Workers); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	for _, w := range r.cfg.Population.Workers {
		r.log.MustAppend(eventlog.Event{Time: r.now, Type: eventlog.WorkerJoined, Worker: w.ID})
		r.ret.Join(w.ID)
		base := 0.5
		if v, ok := w.Computed[model.AttrAcceptanceRatio]; ok && v.Kind == model.AttrNum {
			base = v.Num
		}
		r.baseSkill[w.ID] = base
		if r.cfg.BonusSeries > 0 {
			// The promise is platform-wide in this model; attribute it to
			// the first requester for trace purposes.
			var req model.RequesterID
			if len(r.cfg.Batch.Requesters) > 0 {
				req = r.cfg.Batch.Requesters[0].ID
			}
			r.contracts[w.ID] = pay.NewBonusContract(req, w.ID, r.cfg.BonusSeries, r.cfg.BonusAmount)
			r.log.MustAppend(eventlog.Event{
				Time: r.now, Type: eventlog.BonusPromised, Worker: w.ID, Requester: req,
				Amount: r.cfg.BonusAmount,
				Note:   fmt.Sprintf("for %d accepted tasks", r.cfg.BonusSeries),
			})
		}
		r.discloseWorkerView(w, transparency.TriggerSignup)
	}
	for _, req := range r.cfg.Batch.Requesters {
		if err := r.st.PutRequester(req); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}

func (r *runner) runRounds() error {
	tasks := r.cfg.Batch.Tasks
	perRound := (len(tasks) + r.cfg.Rounds - 1) / r.cfg.Rounds
	for round := 0; round < r.cfg.Rounds; round++ {
		lo := round * perRound
		if lo >= len(tasks) {
			break
		}
		hi := lo + perRound
		if hi > len(tasks) {
			hi = len(tasks)
		}
		if err := r.runRound(tasks[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) runRound(tasks []*model.Task) error {
	engine := complete.NewEngine(r.cfg.Cancellation, r.log)
	engine.Advance(r.now - engine.Now())

	// Shard-parallel insert of the round's batch; posting and disclosure
	// keep batch order so the trace is unchanged.
	if err := r.st.BulkPutTasks(tasks); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	for _, t := range tasks {
		if err := engine.Post(t); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		r.discloseTask(t)
	}

	// Active workers participate in assignment.
	var active []*model.Worker
	for _, w := range r.st.Workers() {
		if r.ret.Active(w.ID) {
			active = append(active, w)
		}
	}
	if len(active) == 0 {
		r.now++
		return nil
	}

	res, err := r.cfg.Assigner.Assign(&assign.Problem{
		Workers:  active,
		Tasks:    tasks,
		Capacity: r.cfg.WorkerCapacity,
		RNG:      r.rng.Split(),
	})
	if err != nil {
		return fmt.Errorf("sim: assignment: %w", err)
	}

	// Log offers (the Axiom 1/2 evidence) and open engine assignments.
	byTask := make(map[model.TaskID]*model.Task, len(tasks))
	for _, t := range tasks {
		byTask[t.ID] = t
	}
	offered := make(map[model.TaskID]map[model.WorkerID]bool)
	for _, w := range active {
		for _, tid := range res.Offers[w.ID] {
			r.log.MustAppend(eventlog.Event{
				Time: r.now, Type: eventlog.TaskOffered, Worker: w.ID, Task: tid,
				Requester: byTask[tid].Requester,
			})
			r.discloseWorkerView(w, transparency.TriggerTaskView)
		}
	}
	for _, a := range res.Assignments {
		if offered[a.Task] == nil {
			offered[a.Task] = make(map[model.WorkerID]bool)
		}
		offered[a.Task][a.Worker] = true
		if err := engine.Offer(a.Task, a.Worker); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}

	// Workers start in a random order and work for effort proportional to
	// their (in)competence; submissions happen one tick apart so the
	// cancellation policy has in-flight victims when quotas fill early.
	order := r.rng.Perm(len(res.Assignments))
	for _, i := range order {
		a := res.Assignments[i]
		if engine.TaskClosed(a.Task) {
			continue // offer withdrawn before start
		}
		if err := engine.Start(a.Task, a.Worker); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	engine.Advance(1)
	r.now = engine.Now()

	// Interruptions come only from submissions that fill a quota, so the
	// events the loop below appends hold every TaskInterrupted of the round.
	mark := r.log.Len()
	var roundContribs []pendingContrib
	for _, i := range order {
		a := res.Assignments[i]
		if !engine.CanSubmitLate(a.Task, a.Worker) {
			continue // interrupted or withdrawn
		}
		quality := r.ret.EffectiveQuality(a.Worker, r.baseSkill[a.Worker])
		accepted := quality >= r.cfg.AcceptThreshold
		r.contribSeq++
		c := &model.Contribution{
			ID:          model.ContributionID(fmt.Sprintf("c%06d", r.contribSeq)),
			Task:        a.Task,
			Worker:      a.Worker,
			Text:        contributionText(byTask[a.Task], quality),
			Quality:     quality,
			Accepted:    accepted,
			SubmittedAt: engine.Now(),
		}
		if err := engine.Submit(a.Task, a.Worker, c.ID, accepted); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		if err := r.st.PutContribution(c); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		roundContribs = append(roundContribs, pendingContrib{a, c})
		engine.Advance(1)
		r.now = engine.Now()
	}

	// Each interruption (the Axiom 5 injury) reaches the worker's
	// satisfaction.
	for _, e := range r.log.Prefix()[mark:] {
		if e.Type == eventlog.TaskInterrupted && r.ret.OnInterruption(e.Worker) {
			r.log.MustAppend(eventlog.Event{Time: r.now, Type: eventlog.WorkerLeft, Worker: e.Worker, Note: "interrupted"})
		}
	}

	// Requester decisions, payment, and behavioural feedback.
	r.settle(byTask, roundContribs)

	// Refresh computed attributes and run the platform's detection pass.
	if err := r.refreshWorkers(); err != nil {
		return err
	}
	// Opacity frustration accrues once per round; churned workers leave.
	for _, id := range r.ret.EndRound() {
		r.log.MustAppend(eventlog.Event{Time: r.now, Type: eventlog.WorkerLeft, Worker: id, Note: "opacity churn"})
	}
	r.interruptedN += engine.Metrics().Interrupted
	r.now++
	return nil
}

// discloseTask emits requester/task disclosures for a posted task when the
// policy mandates them.
func (r *runner) discloseTask(t *model.Task) {
	if r.cfg.Policy == nil {
		return
	}
	ctx := transparency.NewContext().
		SetNum(transparency.SubjectTask, "reward", t.Reward).
		SetNum(transparency.SubjectRequester, "hourly_wage", t.Reward*6). // 6 tasks/hour nominal pace
		SetNum(transparency.SubjectRequester, "payment_delay", 24).
		SetStr(transparency.SubjectTask, "recruitment_criteria", "skills "+t.Skills.String()).
		SetStr(transparency.SubjectTask, "rejection_criteria", fmt.Sprintf("quality below %.2f", r.cfg.AcceptThreshold)).
		SetStr(transparency.SubjectTask, "evaluation_scheme", "automated quality scoring")
	ds, err := r.cfg.Policy.Evaluate(r.cfg.Catalogue, ctx, transparency.AudienceWorkers, transparency.TriggerTaskView)
	if err != nil {
		return
	}
	for _, d := range ds {
		switch d.Field.Subject {
		case transparency.SubjectRequester:
			r.log.MustAppend(eventlog.Event{
				Time: r.now, Type: eventlog.Disclosure, Requester: t.Requester, Field: d.Field.String(),
			})
		case transparency.SubjectTask:
			r.log.MustAppend(eventlog.Event{
				Time: r.now, Type: eventlog.Disclosure, Task: t.ID, Requester: t.Requester, Field: d.Field.String(),
			})
		}
	}
}

// rejectionExplained reports whether the policy discloses rejection
// criteria to workers (making rejections legible).
func (r *runner) rejectionExplained() bool {
	if r.cfg.Policy == nil {
		return false
	}
	for _, rule := range r.cfg.Policy.RulesFor(transparency.AudienceWorkers) {
		if rule.Field.Subject == transparency.SubjectTask && rule.Field.Field == "rejection_criteria" {
			return true
		}
	}
	return false
}

type pendingContrib struct {
	a assign.Assignment
	c *model.Contribution
}

func (r *runner) settle(byTask map[model.TaskID]*model.Task, contribs []pendingContrib) {
	explained := r.rejectionExplained()
	// Group per task for the pay scheme; iterate in first-seen task order
	// so float accumulation is deterministic across runs.
	perTask := make(map[model.TaskID][]*model.Contribution)
	var taskOrder []model.TaskID
	for _, pc := range contribs {
		if _, ok := perTask[pc.c.Task]; !ok {
			taskOrder = append(taskOrder, pc.c.Task)
		}
		perTask[pc.c.Task] = append(perTask[pc.c.Task], pc.c)
	}
	for _, tid := range taskOrder {
		cs := perTask[tid]
		t := byTask[tid]
		pays := r.cfg.PayScheme.Pay(t, cs)
		for i, c := range cs {
			c.Paid = pays[i]
			if c.Accepted {
				r.log.MustAppend(eventlog.Event{
					Time: r.now, Type: eventlog.ContributionAccepted,
					Worker: c.Worker, Task: tid, Contribution: c.ID, Requester: t.Requester,
				})
				r.accepted[c.Worker]++
				r.totalAccepted++
				r.requesterUtil += c.Quality
				if contract, ok := r.contracts[c.Worker]; ok {
					contract.Complete()
				}
			} else {
				r.log.MustAppend(eventlog.Event{
					Time: r.now, Type: eventlog.ContributionRejected,
					Worker: c.Worker, Task: tid, Contribution: c.ID, Requester: t.Requester,
				})
				r.ret.OnRejection(c.Worker, explained)
				if !r.ret.Active(c.Worker) {
					r.log.MustAppend(eventlog.Event{Time: r.now, Type: eventlog.WorkerLeft, Worker: c.Worker})
				}
			}
			if c.Paid > 0 {
				// Panic like the surrounding MustAppend calls: a payment
				// that reaches the event log but not the ledger would
				// silently diverge the two records.
				if err := r.ledger.Record(pay.Payment{
					Worker: c.Worker, Task: tid, Contribution: c.ID, Amount: c.Paid, Time: r.now,
				}); err != nil {
					panic(fmt.Sprintf("sim: record payment: %v", err))
				}
				r.log.MustAppend(eventlog.Event{
					Time: r.now, Type: eventlog.PaymentIssued,
					Worker: c.Worker, Task: tid, Contribution: c.ID, Amount: c.Paid,
				})
				r.ret.OnPayment(c.Worker)
			}
			if err := r.st.UpdateContribution(c); err != nil {
				panic(fmt.Sprintf("sim: update contribution: %v", err)) // invariant: it was just inserted
			}
			r.submitted[c.Worker]++
			r.qualSum[c.Worker] += c.Quality
			r.totalSubmitted++
			r.totalQuality += c.Quality
		}
	}
}

// refreshWorkers recomputes computed attributes from the run history and
// emits detection flags. The attribute updates are applied through the
// store's shard-parallel bulk path; flags are emitted afterwards in the
// same sorted worker order as before, so the event log is unchanged.
func (r *runner) refreshWorkers() error {
	var updates []*model.Worker
	for _, w := range r.st.Workers() {
		n := r.submitted[w.ID]
		if n == 0 {
			continue
		}
		ratio := float64(r.accepted[w.ID]) / float64(n)
		perf := r.qualSum[w.ID] / float64(n)
		w.Computed[model.AttrAcceptanceRatio] = model.Num(ratio)
		w.Computed[model.AttrPerformance] = model.Num(perf)
		w.Computed[model.AttrCompleted] = model.Num(float64(n))
		updates = append(updates, w)
	}
	if len(updates) == 0 {
		return nil
	}
	if err := r.st.BulkUpdateWorkers(updates); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if !r.cfg.FlagLowAcceptance {
		return nil
	}
	for _, w := range updates {
		ratio := w.Computed[model.AttrAcceptanceRatio].Num
		if ratio < 0.5 && !r.flagged[w.ID] {
			r.flagged[w.ID] = true
			r.log.MustAppend(eventlog.Event{
				Time: r.now, Type: eventlog.WorkerFlagged, Worker: w.ID,
				Note: fmt.Sprintf("acceptance ratio %.2f", ratio),
			})
		}
	}
	return nil
}

// settleBonuses resolves every due bonus contract at the end of the run.
func (r *runner) settleBonuses() error {
	if r.cfg.BonusSeries <= 0 {
		return nil
	}
	for _, w := range r.st.Workers() { // sorted: deterministic settlement order
		contract, ok := r.contracts[w.ID]
		if !ok || !contract.Due() {
			continue
		}
		honour := r.rng.Bool(r.cfg.BonusHonourRate)
		paid, err := contract.Settle(r.ledger, honour, r.now)
		if err != nil {
			return fmt.Errorf("sim: settle bonus: %w", err)
		}
		if paid {
			r.bonusesPaid++
			r.log.MustAppend(eventlog.Event{
				Time: r.now, Type: eventlog.BonusPaid, Worker: w.ID,
				Requester: contract.Requester, Amount: contract.Amount,
			})
			r.ret.OnPayment(w.ID)
		} else {
			r.bonusesReneged++
			r.ret.OnRenege(w.ID)
			if !r.ret.Active(w.ID) {
				r.log.MustAppend(eventlog.Event{
					Time: r.now, Type: eventlog.WorkerLeft, Worker: w.ID, Note: "reneged bonus",
				})
			}
		}
	}
	return nil
}

func (r *runner) finish() *Result {
	m := Metrics{
		RetentionRate:     r.ret.RetentionRate(),
		TotalPaid:         r.ledger.Total(),
		IncomeGini:        stats.Gini(r.ledger.Incomes()),
		Interrupted:       r.interruptedN,
		Submitted:         r.totalSubmitted,
		RequesterUtility:  r.requesterUtil,
		TransparencyScore: r.score,
		BonusesPaid:       r.bonusesPaid,
		BonusesReneged:    r.bonusesReneged,
	}
	if r.totalSubmitted > 0 {
		m.MeanQuality = r.totalQuality / float64(r.totalSubmitted)
		m.AcceptedRate = float64(r.totalAccepted) / float64(r.totalSubmitted)
	}
	return &Result{Store: r.st, Log: r.log, Ledger: r.ledger, Retention: r.ret, Metrics: m}
}

// contributionText synthesises a textual payload whose n-gram similarity
// tracks quality: high-quality answers converge on the task's canonical
// answer, low-quality ones diverge.
func contributionText(t *model.Task, quality float64) string {
	base := fmt.Sprintf("canonical answer for task %s covering requirements %s in full detail", t.ID, t.Skills)
	switch {
	case quality >= 0.75:
		return base
	case quality >= 0.5:
		return base + " with some omissions"
	case quality >= 0.25:
		return fmt.Sprintf("partial answer for task %s missing most requirements", t.ID)
	default:
		return "irrelevant spam content"
	}
}
