// Package load is the serving determinism harness: it materialises
// seed-deterministic HTTP request plans over the crowdfair API, replays
// them closed-loop against a serve.Server, and checks the resulting state
// against a serially-applied oracle.
//
// It is test support: internal/serve's tests are its only importer, and
// no command, example or the crowdfair facade may link it (a CI step
// checks with go list -deps).
//
// Plans are deterministic by construction, not by locking:
//
//   - every measured mutation references only seed-phase entities, so a
//     shed or reordered request can never cascade into a dangling
//     reference for a later one;
//   - worker updates write values that are pure functions of the worker id,
//     so any application order of concurrent requests converges to the
//     same final state;
//   - contributions carry plan-assigned SubmittedAt stamps and unique
//     plan-assigned ids;
//   - offers and contributions draw workers from disjoint halves of the
//     population, so no (task, worker) pair is both offered and submitted
//     during measurement — the event multiset, not its order, decides the
//     temporal axioms' verdicts.
//
// A full closed-loop replay therefore ends in the same store and trace
// contents as a serial replay of the same plan, and the final audit
// fingerprint must match Oracle()'s — the equality the -race serving gate
// (TestConcurrentServeMatchesSerialOracle) asserts.
package load

import (
	"encoding/json"
	"fmt"

	"repro/crowdfair"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Request is one planned HTTP request: the wire form plus the decoded
// mutation the serial oracle replays.
type Request struct {
	Method string
	Path   string
	Body   []byte // JSON payload; nil for GETs

	// Exactly one of the following is non-nil for mutations; all nil for
	// reads (reads have no oracle effect).
	contrib *model.Contribution
	worker  *model.Worker
	offer   *crowdfair.Offer
}

// Mutation reports whether the request mutates platform state.
func (r *Request) Mutation() bool {
	return r.contrib != nil || r.worker != nil || r.offer != nil
}

// MixSpec parameterises a plan: seed-phase sizes plus the measured request
// mix. Fractions are of the total request count; the remainder after all
// listed fractions becomes GET /statsz probes.
type MixSpec struct {
	// Workers, Tasks, Requesters size the seed phase (defaults 200/60/4).
	Workers    int
	Tasks      int
	Requesters int
	// Requests is the measured request count (default 2000).
	Requests int
	// ContribFrac, UpdateFrac, OfferFrac, AuditFrac split the measured
	// requests by endpoint (defaults 0.55/0.15/0.15/0.10; remainder
	// /statsz).
	ContribFrac float64
	UpdateFrac  float64
	OfferFrac   float64
	AuditFrac   float64
}

func (m MixSpec) withDefaults() MixSpec {
	if m.Workers == 0 {
		m.Workers = 200
	}
	if m.Tasks == 0 {
		m.Tasks = 60
	}
	if m.Requesters == 0 {
		m.Requesters = 4
	}
	if m.Requests == 0 {
		m.Requests = 2000
	}
	if m.ContribFrac == 0 && m.UpdateFrac == 0 && m.OfferFrac == 0 && m.AuditFrac == 0 {
		m.ContribFrac, m.UpdateFrac, m.OfferFrac, m.AuditFrac = 0.55, 0.15, 0.15, 0.10
	}
	return m
}

// Plan is a fully materialised load plan: seed-phase entities plus the
// measured request sequence. Two plans built from equal specs and seeds
// are byte-identical.
type Plan struct {
	Spec MixSpec
	Seed uint64

	Universe   *crowdfair.Universe
	Requesters []*model.Requester
	Workers    []*model.Worker
	Tasks      []*model.Task

	Requests []Request
}

// BuildPlan materialises a plan from the spec and seed. Every id, payload,
// and request ordering is a pure function of (spec, seed).
func BuildPlan(spec MixSpec, seed uint64) *Plan {
	spec = spec.withDefaults()
	rng := stats.NewRNG(seed)
	pop := workload.GeneratePopulation(workload.PopulationSpec{Workers: spec.Workers}, rng.Split())
	batch := workload.GenerateTasks(workload.TaskSpec{Tasks: spec.Tasks, Requesters: spec.Requesters}, pop, rng.Split())
	p := &Plan{
		Spec:       spec,
		Seed:       seed,
		Universe:   pop.Universe,
		Requesters: batch.Requesters,
		Workers:    pop.Workers,
		Tasks:      batch.Tasks,
	}

	// Workers are split in half: contributions draw from the low half,
	// offers from the high half, so no (task, worker) pair ever carries
	// both an offer and a submission — order-sensitivity in the temporal
	// axioms cannot leak into the final report.
	half := spec.Workers / 2
	if half == 0 {
		half = 1
	}

	cum := []float64{spec.ContribFrac, spec.UpdateFrac, spec.OfferFrac, spec.AuditFrac}
	for i := 1; i < len(cum); i++ {
		cum[i] += cum[i-1]
	}
	contribSeq := 0
	for i := 0; i < spec.Requests; i++ {
		u := rng.Float64()
		switch {
		case u < cum[0]:
			w := p.Workers[rng.Intn(half)]
			t := p.Tasks[rng.Intn(len(p.Tasks))]
			c := &model.Contribution{
				ID:          model.ContributionID(fmt.Sprintf("lc%06d", contribSeq)),
				Task:        t.ID,
				Worker:      w.ID,
				Text:        fmt.Sprintf("answer %d for %s", contribSeq, t.ID),
				Quality:     0.5 + 0.4*rng.Float64(),
				SubmittedAt: int64(contribSeq + 1),
			}
			contribSeq++
			p.Requests = append(p.Requests, Request{
				Method:  "POST",
				Path:    "/v1/contributions",
				Body:    mustJSON(c),
				contrib: c,
			})
		case u < cum[1]:
			idx := rng.Intn(len(p.Workers))
			w := updatedWorker(p.Workers[idx], idx)
			p.Requests = append(p.Requests, Request{
				Method: "PUT",
				Path:   "/v1/workers/" + string(w.ID),
				Body:   mustJSON(w),
				worker: w,
			})
		case u < cum[2]:
			w := p.Workers[half+rng.Intn(len(p.Workers)-half)]
			t := p.Tasks[rng.Intn(len(p.Tasks))]
			o := &crowdfair.Offer{Task: t.ID, Worker: w.ID}
			p.Requests = append(p.Requests, Request{
				Method: "POST",
				Path:   "/v1/offers",
				Body:   mustJSON(o),
				offer:  o,
			})
		case u < cum[3]:
			p.Requests = append(p.Requests, Request{Method: "GET", Path: "/v1/audit"})
		default:
			p.Requests = append(p.Requests, Request{Method: "GET", Path: "/statsz"})
		}
	}
	return p
}

// updatedWorker derives the update payload for a worker: the written
// values are pure functions of the worker's index, so every update of one
// worker — however many times and in whatever order the plan issues it —
// writes the same state, and last-write-wins cannot diverge.
func updatedWorker(w *model.Worker, idx int) *model.Worker {
	c := w.Clone()
	c.Computed[model.AttrAcceptanceRatio] = model.Num(0.50 + float64(idx%50)/100)
	c.Computed[model.AttrCompleted] = model.Num(float64(idx % 23))
	return c
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("load: marshal: %v", err))
	}
	return b
}

// Mutations counts the plan's mutation requests.
func (p *Plan) Mutations() int {
	n := 0
	for i := range p.Requests {
		if p.Requests[i].Mutation() {
			n++
		}
	}
	return n
}

// Seed applies the plan's seed phase to the platform through the batch
// entry points. It must run before the measured phase: every measured
// mutation references only these entities.
func (p *Plan) SeedPlatform(pf *crowdfair.Platform) error {
	for _, r := range p.Requesters {
		if err := pf.AddRequester(r); err != nil {
			return err
		}
	}
	if err := pf.AddWorkers(cloneWorkers(p.Workers)); err != nil {
		return err
	}
	return pf.PostTasks(cloneTasks(p.Tasks))
}

// Oracle replays the plan serially — seed phase, then every mutation in
// request order against a fresh in-memory platform — and returns the final
// audit snapshot fingerprint. A concurrent replay of the same plan that
// admitted every mutation must converge to the same fingerprint.
func (p *Plan) Oracle(cfg crowdfair.AuditConfig) (string, error) {
	pf := crowdfair.NewPlatform(p.Universe)
	if err := p.SeedPlatform(pf); err != nil {
		return "", err
	}
	for i := range p.Requests {
		r := &p.Requests[i]
		var err error
		switch {
		case r.contrib != nil:
			err = pf.RecordContribution(r.contrib.Clone())
		case r.worker != nil:
			err = pf.UpdateWorkers([]*model.Worker{r.worker.Clone()})
		case r.offer != nil:
			err = pf.Offer(r.offer.Task, r.offer.Worker)
		}
		if err != nil {
			return "", fmt.Errorf("load: oracle request %d (%s %s): %w", i, r.Method, r.Path, err)
		}
	}
	return serve.AuditFingerprint(pf.AuditIncremental(cfg)), nil
}

func cloneWorkers(ws []*model.Worker) []*model.Worker {
	out := make([]*model.Worker, len(ws))
	for i, w := range ws {
		out[i] = w.Clone()
	}
	return out
}

func cloneTasks(ts []*model.Task) []*model.Task {
	out := make([]*model.Task, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}
