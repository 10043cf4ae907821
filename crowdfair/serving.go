package crowdfair

import (
	"fmt"

	"repro/internal/eventlog"
	"repro/internal/store"
)

// Offer names one task-visibility grant — the access evidence Axioms 1
// and 2 audit. It is the batch form of Platform.Offer.
type Offer struct {
	Task   TaskID   `json:"Task"`
	Worker WorkerID `json:"Worker"`
}

// The batch mutation entry points below are the serving hot path, and the
// single-entity methods (AddWorker, PostTask, Offer, RecordContribution)
// are their one-element calls. No front-end coalesces: the HTTP server
// calls them with one entity per request, concurrently, and a write-ahead
// log error comes back as an error. The store fans a batch out by
// owning shard under a single lock acquisition per shard (store.bulkApply),
// and concurrent callers share fsyncs in the WAL's group commit. Events are
// appended after the entities land so a replayed trace never references an
// entity the store does not hold yet.

// AddWorkers registers many workers and logs their arrivals, batching both
// the store writes and the trace appends. On error the store keeps every
// insert that preceded the failure in its shard (see store.BulkPutWorkers);
// arrival events are only logged when every insert succeeded.
func (p *Platform) AddWorkers(ws []*Worker) error {
	if len(ws) == 0 {
		return nil
	}
	if err := p.st.BulkPutWorkers(ws); err != nil {
		return err
	}
	t := p.now()
	events := make([]eventlog.Event, len(ws))
	for i, w := range ws {
		events[i] = eventlog.Event{Time: t, Type: eventlog.WorkerJoined, Worker: w.ID}
	}
	return p.log.AppendBatch(events)
}

// UpdateWorkers replaces many existing workers' attributes and skills in
// one shard-parallel batch. Updates log no trace events, matching the
// single-entity store path.
func (p *Platform) UpdateWorkers(ws []*Worker) error {
	if len(ws) == 0 {
		return nil
	}
	return p.st.BulkUpdateWorkers(ws)
}

// PostTasks publishes many tasks and logs TaskPosted for each, batching the
// store writes and the trace appends. Referenced requesters must already
// exist.
func (p *Platform) PostTasks(ts []*Task) error {
	if len(ts) == 0 {
		return nil
	}
	if err := p.st.BulkPutTasks(ts); err != nil {
		return err
	}
	t := p.now()
	events := make([]eventlog.Event, len(ts))
	for i, tk := range ts {
		events[i] = eventlog.Event{Time: t, Type: eventlog.TaskPosted, Task: tk.ID, Requester: tk.Requester}
	}
	return p.log.AppendBatch(events)
}

// RecordContributions stores many contributions and their submission
// events, batching the store writes and the trace appends. Referenced
// tasks and workers must already exist.
func (p *Platform) RecordContributions(cs []*Contribution) error {
	if len(cs) == 0 {
		return nil
	}
	if err := p.st.BulkPutContributions(cs); err != nil {
		return err
	}
	t := p.now()
	events := make([]eventlog.Event, len(cs))
	for i, c := range cs {
		events[i] = eventlog.Event{Time: t, Type: eventlog.TaskSubmitted, Task: c.Task, Worker: c.Worker, Contribution: c.ID}
	}
	return p.log.AppendBatch(events)
}

// UpdateContribution replaces an existing contribution (accept/reject
// decision, payment). Task and worker are immutable.
func (p *Platform) UpdateContribution(c *Contribution) error {
	return p.st.UpdateContribution(c)
}

// OfferBatch records many task-visibility grants as one trace batch. Every
// referenced task and worker must exist; on a dangling reference nothing is
// appended.
func (p *Platform) OfferBatch(offers []Offer) error {
	if len(offers) == 0 {
		return nil
	}
	t := p.now()
	events := make([]eventlog.Event, len(offers))
	for i, o := range offers {
		tk, err := p.offeredTask(o.Task, o.Worker)
		if err != nil {
			return err
		}
		events[i] = eventlog.Event{
			Time: t, Type: eventlog.TaskOffered, Task: o.Task, Worker: o.Worker, Requester: tk.Requester,
		}
	}
	return p.log.AppendBatch(events)
}

// Universe returns the skill universe the platform's store was built over.
func (p *Platform) Universe() *Universe { return p.st.Universe() }

// Version returns the store's current mutation counter — the freshness
// stamp served alongside cached audit reports.
func (p *Platform) Version() uint64 { return p.st.Version() }

// EntityCounts returns the store's table sizes plus the trace length, the
// cheap inventory a serving stats endpoint reports.
func (p *Platform) EntityCounts() (workers, tasks, contributions, events int) {
	return p.st.WorkerCount(), p.st.TaskCount(), p.st.ContributionCount(), p.log.Len()
}

// offeredTask screens an offer's references and returns the offered task, or
// the store's not-found error for the first dangling one. It reads both
// entities in place (the returned task is the store's own, read-only): an
// existence test has no use for a copy.
func (p *Platform) offeredTask(task TaskID, worker WorkerID) (*Task, error) {
	t := p.st.PeekTask(task)
	if t == nil {
		return nil, fmt.Errorf("task %s: %w", task, store.ErrNotFound)
	}
	if p.st.PeekWorker(worker) == nil {
		return nil, fmt.Errorf("worker %s: %w", worker, store.ErrNotFound)
	}
	return t, nil
}
