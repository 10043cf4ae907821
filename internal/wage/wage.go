// Package wage estimates expected hourly wages from platform traces — the
// service that Crowd-Workers (Callison-Burch 2014) and Turkbench (Hanrahan
// et al. 2015) provide externally and that §2.2 cites as worker-built
// transparency infrastructure. Here it is a first-class platform feature:
// the estimates computed from the trace are exactly what a compliant
// platform binds to the requester.hourly_wage disclosure field.
//
// Estimation is trace-based: for every (worker, task) episode the work
// duration is the span from TaskStarted to TaskSubmitted, and the earning
// is the PaymentIssued amount for the resulting contribution. Hourly wage
// is total earnings over total worked time, aggregated per requester, per
// task, or per worker. Unpaid episodes count their time (that is the
// point: rejection and interruption depress the real wage).
package wage

import (
	"fmt"
	"sort"

	"repro/internal/eventlog"
	"repro/internal/model"
)

// TicksPerHour converts the simulator's logical ticks to hours for wage
// reporting. The simulator advances one tick per work step; the calibration
// of 12 ticks/hour (5-minute microtasks) matches the AMT microtask setting
// the paper's examples assume. Estimates scale linearly in this constant,
// so comparisons between requesters are unaffected by its choice.
const TicksPerHour = 12

// Episode is one reconstructed unit of work.
type Episode struct {
	Worker    model.WorkerID
	Task      model.TaskID
	Requester model.RequesterID
	// Started and Ended are the logical timestamps of the episode; Ended
	// is the submission or interruption time.
	Started, Ended int64
	// Earned is the payment received for the episode (0 if unpaid).
	Earned float64
	// Interrupted marks episodes ended by cancellation (Axiom 5 events).
	Interrupted bool
}

// Duration returns the episode's length in ticks (at least 1, so instant
// submissions in coarse traces still count some effort).
func (e Episode) Duration() int64 {
	d := e.Ended - e.Started
	if d < 1 {
		return 1
	}
	return d
}

// Estimate is an aggregated hourly-wage figure.
type Estimate struct {
	// Episodes is the number of work episodes aggregated.
	Episodes int
	// PaidEpisodes is how many of them earned anything.
	PaidEpisodes int
	// TotalEarned and TotalTicks are the aggregation inputs.
	TotalEarned float64
	TotalTicks  int64
}

// HourlyWage returns earnings per hour of worked time (0 if no time).
func (e Estimate) HourlyWage() float64 {
	if e.TotalTicks == 0 {
		return 0
	}
	return e.TotalEarned / (float64(e.TotalTicks) / TicksPerHour)
}

// PaidRate returns the share of episodes that earned anything.
func (e Estimate) PaidRate() float64 {
	if e.Episodes == 0 {
		return 0
	}
	return float64(e.PaidEpisodes) / float64(e.Episodes)
}

// String renders the estimate for reports.
func (e Estimate) String() string {
	return fmt.Sprintf("%.3f/hour over %d episodes (%.0f%% paid)",
		e.HourlyWage(), e.Episodes, e.PaidRate()*100)
}

// Report holds the per-requester, per-task, and per-worker estimates
// reconstructed from one trace.
type Report struct {
	ByRequester map[model.RequesterID]*Estimate
	ByTask      map[model.TaskID]*Estimate
	ByWorker    map[model.WorkerID]*Estimate
	Episodes    []Episode
}

// FromLog reconstructs work episodes and wage estimates from a trace.
// Episodes still open at the end of the trace are ignored (their outcome is
// unknown); interrupted episodes are included as unpaid work.
func FromLog(log *eventlog.Log) *Report {
	type key struct {
		w model.WorkerID
		t model.TaskID
	}
	rep := &Report{
		ByRequester: make(map[model.RequesterID]*Estimate),
		ByTask:      make(map[model.TaskID]*Estimate),
		ByWorker:    make(map[model.WorkerID]*Estimate),
	}
	open := make(map[key]*Episode)
	taskOwner := make(map[model.TaskID]model.RequesterID)
	// Payments may follow submissions; index finished episodes by
	// contribution for the payment pass.
	byContribution := make(map[model.ContributionID]int) // index into rep.Episodes

	for _, e := range log.Prefix() {
		switch e.Type {
		case eventlog.TaskPosted:
			taskOwner[e.Task] = e.Requester
		case eventlog.TaskStarted:
			k := key{e.Worker, e.Task}
			if ep, ok := open[k]; ok {
				// A second start for an already-open episode means the first
				// attempt never concluded in the trace. Close it as
				// interrupted at the restart time instead of silently
				// overwriting its start — otherwise the time worked on the
				// first attempt vanishes from every estimate.
				ep.Ended = e.Time
				ep.Interrupted = true
				rep.Episodes = append(rep.Episodes, *ep)
			}
			open[k] = &Episode{
				Worker: e.Worker, Task: e.Task,
				Requester: taskOwner[e.Task], Started: e.Time,
			}
		case eventlog.TaskSubmitted:
			k := key{e.Worker, e.Task}
			if ep, ok := open[k]; ok {
				ep.Ended = e.Time
				rep.Episodes = append(rep.Episodes, *ep)
				if e.Contribution != "" {
					byContribution[e.Contribution] = len(rep.Episodes) - 1
				}
				delete(open, k)
			}
		case eventlog.TaskInterrupted:
			k := key{e.Worker, e.Task}
			if ep, ok := open[k]; ok {
				ep.Ended = e.Time
				ep.Interrupted = true
				rep.Episodes = append(rep.Episodes, *ep)
				delete(open, k)
			}
		case eventlog.PaymentIssued:
			if idx, ok := byContribution[e.Contribution]; ok {
				rep.Episodes[idx].Earned += e.Amount
			}
		}
	}

	for _, ep := range rep.Episodes {
		addTo := func(est *Estimate) {
			est.Episodes++
			if ep.Earned > 0 {
				est.PaidEpisodes++
			}
			est.TotalEarned += ep.Earned
			est.TotalTicks += ep.Duration()
		}
		if ep.Requester != "" {
			if rep.ByRequester[ep.Requester] == nil {
				rep.ByRequester[ep.Requester] = &Estimate{}
			}
			addTo(rep.ByRequester[ep.Requester])
		}
		if rep.ByTask[ep.Task] == nil {
			rep.ByTask[ep.Task] = &Estimate{}
		}
		addTo(rep.ByTask[ep.Task])
		if rep.ByWorker[ep.Worker] == nil {
			rep.ByWorker[ep.Worker] = &Estimate{}
		}
		addTo(rep.ByWorker[ep.Worker])
	}
	return rep
}

// RequesterWage returns the hourly-wage estimate for a requester, suitable
// for binding to the requester.hourly_wage disclosure field. The boolean is
// false when the trace has no episodes for the requester.
func (r *Report) RequesterWage(id model.RequesterID) (float64, bool) {
	est, ok := r.ByRequester[id]
	if !ok {
		return 0, false
	}
	return est.HourlyWage(), true
}

// RankRequesters returns requester ids sorted by descending hourly wage —
// the browse-time ranking Turkbench renders for workers.
func (r *Report) RankRequesters() []model.RequesterID {
	ids := make([]model.RequesterID, 0, len(r.ByRequester))
	for id := range r.ByRequester {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		wi := r.ByRequester[ids[i]].HourlyWage()
		wj := r.ByRequester[ids[j]].HourlyWage()
		if wi != wj {
			return wi > wj
		}
		return ids[i] < ids[j]
	})
	return ids
}
