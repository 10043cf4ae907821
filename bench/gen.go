package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/crowdfair"
	"repro/internal/eventlog"
	"repro/internal/model"
)

// The generator is the benchmark's own: the programs under test see only
// what it emits, and a later change to internal/load or internal/workload
// cannot move the yardstick. Everything is a pure function of the shape
// and a math/rand source seeded from -seed.

const (
	popularSkills = 100 // every worker holds one; the token exact candidate generation over-pairs on
	nicheSkills   = 600 // cluster cores are dealt from these
	clusterSize   = 20  // workers sharing one 3-skill niche core: the truly similar pairs
	coreSkills    = 3
)

// popShape sizes one generated population.
type popShape struct {
	workers         int
	tasksPerCluster int
	// contribEvery seeds three contributions on every contribEvery-th task
	// (0: none), so Axiom 3 has paid-differently near-duplicates to find.
	contribEvery int
}

// population is the seed state of a platform: entities plus the trace
// (offers, disclosures) that precedes the measured phase.
type population struct {
	universe   *model.Universe
	requesters []*model.Requester
	workers    []*model.Worker
	tasks      []*model.Task
	contribs   []*model.Contribution
	offers     []crowdfair.Offer
	// disclosures cover ~90 % of requesters, tasks and workers, so Axioms
	// 6 and 7 both have gaps to report.
	disclosures []eventlog.Event
	cores       [][]int // per-cluster niche core, for churn offers
}

func workerID(i int) model.WorkerID { return model.WorkerID(fmt.Sprintf("w%07d", i)) }
func taskID(i int) model.TaskID     { return model.TaskID(fmt.Sprintf("t%07d", i)) }

var fillers = []string{"carefully", "quickly", "reliably"}

// answerText is a contribution payload: near-identical within a task, so
// n-gram similarity clears the Axiom 3 threshold and pay decides.
func answerText(task int, rng *rand.Rand) string {
	return fmt.Sprintf("the answer for task %d is assembled %s from the cluster corpus", task, fillers[rng.Intn(len(fillers))])
}

var payLevels = []float64{0.5, 0.5, 2.0}

// submissionPay is what a measured-phase submission is paid: the going rate,
// and one time in ten a premium. Most near-identical answers to a task are
// then paid alike and Axiom 3 has the exceptions to report — a platform on
// which most pairs violate spends its audit pass printing violations.
func submissionPay(rng *rand.Rand) float64 {
	if rng.Intn(10) == 0 {
		return 2.0
	}
	return 0.5
}

func generatePopulation(sh popShape, rng *rand.Rand) *population {
	names := make([]string, popularSkills+nicheSkills)
	for i := range names {
		names[i] = fmt.Sprintf("s%03d", i)
	}
	pp := &population{universe: model.MustUniverse(names...)}

	clusters := (sh.workers + clusterSize - 1) / clusterSize
	nreq := clusters / 10
	if nreq < 3 {
		nreq = 3
	}
	for r := 0; r < nreq; r++ {
		pp.requesters = append(pp.requesters, &model.Requester{ID: model.RequesterID(fmt.Sprintf("r%04d", r))})
	}
	pp.cores = make([][]int, clusters)
	deal := rng.Perm(nicheSkills)
	for c := range pp.cores {
		// Dealt without replacement while the niche pool lasts, then drawn
		// at random: clusters share a core skill only once the population
		// outgrows the pool, and two clusters never share a whole core by
		// construction.
		for j := 0; j < coreSkills; j++ {
			k := rng.Intn(nicheSkills)
			if next := coreSkills*c + j; next < len(deal) {
				k = deal[next]
			}
			pp.cores[c] = append(pp.cores[c], popularSkills+k)
		}
	}
	countries := []string{"jp", "fr", "br", "in", "us"}
	for i := 0; i < sh.workers; i++ {
		c := i / clusterSize
		skills := model.NewSkillVector(len(names))
		for _, k := range pp.cores[c] {
			skills[k] = true
		}
		// Two popular skills per cluster: about half of a cluster's workers
		// have identical skill vectors, so Axiom 1 has similar pairs whose
		// access can differ, while each popular skill still spans many
		// clusters (the pairs exact candidate generation over-generates).
		skills[(2*c+rng.Intn(2))%popularSkills] = true
		if rng.Float64() < 0.25 {
			skills[popularSkills+rng.Intn(nicheSkills)] = true
		}
		pp.workers = append(pp.workers, &model.Worker{
			ID:       workerID(i),
			Declared: model.Attributes{"country": model.Str(countries[c%len(countries)])},
			Computed: model.Attributes{
				model.AttrAcceptanceRatio: model.Num(0.4 + 0.01*float64(c%40) + 0.004*rng.Float64()),
				model.AttrCompleted:       model.Num(float64(i % 23)),
			},
			Skills: skills,
		})
	}
	for j := 0; j < clusters*sh.tasksPerCluster; j++ {
		skills := model.NewSkillVector(len(names))
		for _, k := range pp.cores[j/sh.tasksPerCluster] {
			skills[k] = true
		}
		// A cluster's tasks come in pairs a reward tier apart (×1.5, past
		// the 10 % tolerance): only the two of a tier are comparable, so
		// Axiom 2 has one pair per tier to check however many tasks a
		// cluster holds, not every pair of them.
		tier := (j % sh.tasksPerCluster) / 2
		pp.tasks = append(pp.tasks, &model.Task{
			ID:        taskID(j),
			Requester: pp.requesters[j%nreq].ID,
			Skills:    skills,
			Reward:    []float64{1.0, 1.005}[j%2] * math.Pow(1.5, float64(tier)),
		})
	}
	// Every worker is offered their cluster's first two tasks; a sparse
	// dropout leaves some similar workers with different access (Axiom 1).
	for i := 0; i < sh.workers; i++ {
		c := i / clusterSize
		for d := 0; d < 2 && d < sh.tasksPerCluster; d++ {
			if d == 1 && i%100 == 0 {
				continue
			}
			pp.offers = append(pp.offers, crowdfair.Offer{Task: taskID(c*sh.tasksPerCluster + d), Worker: workerID(i)})
		}
	}
	if sh.contribEvery > 0 {
		for j := 0; j < len(pp.tasks); j += sh.contribEvery {
			c := j / sh.tasksPerCluster
			for k := 0; k < 3; k++ {
				n := len(pp.contribs)
				pp.contribs = append(pp.contribs, &model.Contribution{
					ID:          model.ContributionID(fmt.Sprintf("s%07d", n)),
					Task:        taskID(j),
					Worker:      workerID((c*clusterSize + k) % sh.workers),
					Text:        answerText(j, rng),
					Quality:     0.5 + 0.4*rng.Float64(),
					Paid:        payLevels[rng.Intn(len(payLevels))],
					SubmittedAt: int64(n + 1),
				})
			}
		}
	}
	disclose := func(e eventlog.Event, fields ...string) {
		if rng.Float64() >= 0.9 {
			return
		}
		for _, f := range fields {
			e.Type, e.Field = eventlog.Disclosure, f
			pp.disclosures = append(pp.disclosures, e)
		}
	}
	for _, r := range pp.requesters {
		disclose(eventlog.Event{Requester: r.ID}, "requester.hourly_wage", "requester.payment_delay")
	}
	for _, t := range pp.tasks {
		disclose(eventlog.Event{Task: t.ID, Requester: t.Requester}, "task.recruitment_criteria", "task.rejection_criteria")
	}
	for _, w := range pp.workers {
		disclose(eventlog.Event{Worker: w.ID}, "worker.performance", "worker.acceptance_ratio")
	}
	return pp
}

// seed applies the population to an empty platform through the public
// batch entry points, in one fixed order, so a served platform and the
// serial oracle start from identical versions and traces.
func (pp *population) seed(p *crowdfair.Platform) error {
	for _, r := range pp.requesters {
		if err := p.AddRequester(r); err != nil {
			return err
		}
	}
	if err := p.AddWorkers(pp.workers); err != nil {
		return err
	}
	if err := p.PostTasks(pp.tasks); err != nil {
		return err
	}
	if err := p.RecordContributions(pp.contribs); err != nil {
		return err
	}
	if err := p.OfferBatch(pp.offers); err != nil {
		return err
	}
	return appendEvents(p, pp.disclosures)
}

// appendEvents appends raw trace events as one batch stamped with the
// log's current logical time (AppendBatch writes sequence numbers back, so
// it works on a copy).
func appendEvents(p *crowdfair.Platform, events []eventlog.Event) error {
	if len(events) == 0 {
		return nil
	}
	batch := append([]eventlog.Event(nil), events...)
	now := p.Log().LastTime()
	for i := range batch {
		batch[i].Time = now
	}
	return p.Log().AppendBatch(batch)
}

// reqKind is a planned request's endpoint.
type reqKind uint8

const (
	reqContribution reqKind = iota
	reqWorkerUpdate
	reqOffer
	reqAudit
	reqStatsz
	reqKinds
)

func (k reqKind) String() string {
	return [...]string{"POST /v1/contributions", "PUT /v1/workers/{id}", "POST /v1/offers", "GET /v1/audit", "GET /statsz"}[k]
}

func (k reqKind) mutation() bool { return k <= reqOffer }

// request is one planned HTTP request: the wire form plus the decoded
// mutation the serial oracle and the replay ladder apply.
type request struct {
	kind   reqKind
	method string
	path   string
	body   []byte

	contrib *model.Contribution
	worker  *model.Worker
	offer   crowdfair.Offer
}

// mix gives each request kind's share; shares sum to 1.
type mix [reqKinds]float64

// openMix is a marketplace's day: mostly submissions, some profile updates
// and visibility grants, dashboards polling the audit.
var openMix = mix{reqContribution: 0.55, reqWorkerUpdate: 0.15, reqOffer: 0.15, reqAudit: 0.10, reqStatsz: 0.05}

// plan is a population plus the measured request sequence over it.
type plan struct {
	pop  *population
	reqs []request
	// due is each request's scheduled offset from the start of the
	// measured phase (open loop only; nil for closed loop).
	due []time.Duration
}

// generatePlan builds n requests over a fresh population. The final state
// is independent of the order requests are applied in, which is what lets
// a concurrent run be checked against a serial replay:
//   - every mutation references only seed entities;
//   - contributions come from the low half of the workers and offers go to
//     the high half, so no (task, worker) pair is both offered and
//     submitted in the measured phase and the event multiset alone decides
//     the temporal axioms;
//   - worker updates walk a permutation of the population, so two updates
//     of one worker are a whole population apart in the sequence and can
//     neither reorder nor fold into one coalesced write.
//
// rate > 0 adds seeded Poisson arrivals at that many requests per second.
func generatePlan(sh popShape, m mix, n int, rate float64, seed int64) *plan {
	rng := rand.New(rand.NewSource(seed))
	pl := &plan{pop: generatePopulation(sh, rng)}
	pp := pl.pop
	half := len(pp.workers) / 2
	perm := rng.Perm(len(pp.workers))
	var cum [reqKinds]float64
	acc := 0.0
	for k := range m {
		acc += m[k]
		cum[k] = acc
	}
	nContrib, nUpdate := 0, 0
	pl.reqs = make([]request, 0, n)
	for i := 0; i < n; i++ {
		u := rng.Float64()
		kind := reqStatsz
		for k := range cum {
			if u < cum[k] {
				kind = reqKind(k)
				break
			}
		}
		r := request{kind: kind, method: "GET"}
		switch kind {
		case reqContribution:
			t := rng.Intn(len(pp.tasks))
			r.contrib = &model.Contribution{
				ID:          model.ContributionID(fmt.Sprintf("c%07d", nContrib)),
				Task:        taskID(t),
				Worker:      workerID(rng.Intn(half)),
				Text:        answerText(t, rng),
				Quality:     0.5 + 0.4*rng.Float64(),
				Paid:        submissionPay(rng),
				SubmittedAt: int64(len(pp.contribs) + nContrib + 1),
			}
			nContrib++
			r.method, r.path, r.body = "POST", "/v1/contributions", mustJSON(r.contrib)
		case reqWorkerUpdate:
			idx, round := perm[nUpdate%len(perm)], nUpdate/len(perm)
			nUpdate++
			w := pp.workers[idx].Clone()
			w.Computed[model.AttrAcceptanceRatio] = model.Num(0.50 + float64((idx+7*round)%50)/100)
			w.Computed[model.AttrCompleted] = model.Num(float64((idx + round) % 23))
			r.worker = w
			r.method, r.path, r.body = "PUT", "/v1/workers/"+string(w.ID), mustJSON(w)
		case reqOffer:
			r.offer = crowdfair.Offer{Task: taskID(rng.Intn(len(pp.tasks))), Worker: workerID(half + rng.Intn(len(pp.workers)-half))}
			r.method, r.path, r.body = "POST", "/v1/offers", mustJSON(r.offer)
		case reqAudit:
			r.path = "/v1/audit"
		default:
			r.path = "/statsz"
		}
		pl.reqs = append(pl.reqs, r)
	}
	if rate > 0 {
		pl.due = make([]time.Duration, n)
		t := 0.0
		for i := range pl.due {
			t += rng.ExpFloat64() / rate
			pl.due[i] = time.Duration(t * float64(time.Second))
		}
	}
	return pl
}

// writesOnly is the plan's mutations in plan order with no schedule: what a
// requester's bulk importer would send, back to back.
func (pl *plan) writesOnly() *plan {
	out := &plan{pop: pl.pop}
	for i := range pl.reqs {
		if pl.reqs[i].kind.mutation() {
			out.reqs = append(out.reqs, pl.reqs[i])
		}
	}
	return out
}

// digest hashes everything the program under test will see of the plan.
func (pl *plan) digest() string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	pp := pl.pop
	for _, v := range []any{pp.universe.Names(), pp.requesters, pp.workers, pp.tasks, pp.contribs, pp.offers, pp.disclosures, pl.due} {
		if err := enc.Encode(v); err != nil {
			panic(err)
		}
	}
	for i := range pl.reqs {
		fmt.Fprintf(h, "%s %s %s\n", pl.reqs[i].method, pl.reqs[i].path, pl.reqs[i].body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// apply performs the request's mutation through the platform's public
// one-element batch calls — the serial oracle and rung 1 of the ladder.
func (r *request) apply(p *crowdfair.Platform) error {
	switch r.kind {
	case reqContribution:
		return p.RecordContributions([]*model.Contribution{r.contrib})
	case reqWorkerUpdate:
		return p.UpdateWorkers([]*model.Worker{r.worker})
	case reqOffer:
		return p.OfferBatch([]crowdfair.Offer{r.offer})
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: marshal: %v", err))
	}
	return b
}

// churnRound is one round of the audit_churn workload's mutation trickle.
type churnRound struct {
	workers     []*model.Worker       // updated attributes / skills
	repaid      []*model.Contribution // changed payments
	offers      []crowdfair.Offer
	disclosures []eventlog.Event
}

// generateChurn derives rounds of mutations over pp: frac of the workers
// get a nudged acceptance ratio (a quarter of them also flip one niche
// skill), a few seed contributions are re-paid, and new in-cluster offers
// and late disclosures extend the trace.
func generateChurn(pp *population, sh popShape, rounds int, frac float64, rng *rand.Rand) []churnRound {
	dirty := int(frac * float64(len(pp.workers)))
	if dirty < 1 {
		dirty = 1
	}
	// cur tracks each worker's latest generated state so successive rounds
	// compound instead of resetting to the seed values.
	cur := make(map[int]*model.Worker)
	out := make([]churnRound, rounds)
	for r := range out {
		cr := &out[r]
		seen := make(map[int]bool, dirty)
		for len(cr.workers) < dirty {
			i := rng.Intn(len(pp.workers))
			if seen[i] {
				continue
			}
			seen[i] = true
			base := cur[i]
			if base == nil {
				base = pp.workers[i]
			}
			w := base.Clone()
			w.Computed[model.AttrAcceptanceRatio] = model.Num(0.4 + 0.01*float64((i/clusterSize)%40) + 0.004*rng.Float64())
			if rng.Float64() < 0.25 {
				k := popularSkills + rng.Intn(nicheSkills)
				w.Skills[k] = !w.Skills[k]
				for _, core := range pp.cores[i/clusterSize] {
					w.Skills[core] = true
				}
			}
			cur[i] = w
			cr.workers = append(cr.workers, w)
		}
		for k := 0; k < dirty/10 && len(pp.contribs) > 0; k++ {
			c := pp.contribs[rng.Intn(len(pp.contribs))].Clone()
			c.Paid = payLevels[rng.Intn(len(payLevels))] + 0.25*float64(r%3)
			cr.repaid = append(cr.repaid, c)
		}
		for k := 0; k < dirty/2; k++ {
			i := rng.Intn(len(pp.workers))
			c := i / clusterSize
			cr.offers = append(cr.offers, crowdfair.Offer{Task: taskID(c*sh.tasksPerCluster + rng.Intn(sh.tasksPerCluster)), Worker: workerID(i)})
		}
		for k := 0; k < dirty/10; k++ {
			w := pp.workers[rng.Intn(len(pp.workers))]
			cr.disclosures = append(cr.disclosures, eventlog.Event{Type: eventlog.Disclosure, Worker: w.ID, Field: "worker.performance"})
		}
	}
	return out
}

// apply performs one churn round through the platform's public calls.
func (cr *churnRound) apply(p *crowdfair.Platform) error {
	if err := p.UpdateWorkers(cr.workers); err != nil {
		return err
	}
	for _, c := range cr.repaid {
		if err := p.UpdateContribution(c); err != nil {
			return err
		}
	}
	if err := p.OfferBatch(cr.offers); err != nil {
		return err
	}
	return appendEvents(p, cr.disclosures)
}
