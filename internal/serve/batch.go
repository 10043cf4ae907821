package serve

import (
	"fmt"
	"time"

	"repro/crowdfair"
	"repro/internal/model"
	"repro/internal/store"
)

// opKind enumerates the coalescible mutations. The numeric order is the
// apply order within a batch: referenced-by entities land before their
// referencers (requesters before tasks, workers and tasks before
// contributions and offers), so a batch admitted together never fails on
// an in-batch dependency.
type opKind uint8

const (
	opAddRequester opKind = iota
	opAddWorker
	opUpdateWorker
	opPostTask
	opAddContribution
	opUpdateContribution
	opOffer
	opKinds // count
)

// op is one queued mutation awaiting a coalesced batch. Exactly one
// payload field matching kind is set. done receives the per-request
// outcome once the batch containing the op has been applied and its
// durability wait completed.
type op struct {
	kind      opKind
	worker    *model.Worker
	requester *model.Requester
	task      *model.Task
	contrib   *model.Contribution
	offer     crowdfair.Offer
	done      chan error
}

// ShedError is returned (and mapped to HTTP 429 + Retry-After) when
// admission control rejects a mutation. Reason distinguishes the
// queue-full and audit-lag valves.
type ShedError struct {
	Reason string
	Lag    uint64
}

func (e *ShedError) Error() string {
	if e.Lag > 0 {
		return fmt.Sprintf("serve: shed (%s, audit lag %d versions)", e.Reason, e.Lag)
	}
	return fmt.Sprintf("serve: shed (%s)", e.Reason)
}

// enqueue admits o into the dispatcher queue or sheds it. On admission it
// blocks until the batch containing o has been applied (including the
// batch's single durability wait) and returns the op's own outcome.
func (s *Server) enqueue(o *op) error {
	if m := s.cfg.MaxAuditLag; m > 0 {
		if lag := s.AuditLag(); lag > m {
			s.shedLag.Add(1)
			return &ShedError{Reason: "audit lag over bound", Lag: lag}
		}
	}
	o.done = make(chan error, 1)
	err := ErrStopped
	s.admitMu.RLock()
	if !s.stopped {
		select {
		case s.ops <- o:
			err = nil
		default:
			s.shedQueue.Add(1)
			err = &ShedError{Reason: "mutation queue full"}
		}
	}
	s.admitMu.RUnlock()
	if err != nil {
		return err
	}
	s.admitted.Add(1)
	return <-o.done
}

// dispatch is the single batch dispatcher: it blocks for the first queued
// op, drains up to BatchMax-1 more (waiting at most Linger for laggards),
// and applies them as one coalesced batch. With Linger 0 the drain never
// waits — the durability stall of the previous batch is the accumulation
// window for the next, so batching emerges from load instead of imposed
// delay.
func (s *Server) dispatch() {
	defer s.wg.Done()
	batch := make([]*op, 0, s.cfg.BatchMax)
	for {
		select {
		case <-s.stopc:
			// batch still holds the last applied batch's ops: start the
			// drain empty, or Stop would apply them a second time.
			s.drainAll(batch[:0])
			return
		case first := <-s.ops:
			batch = append(batch[:0], first)
			if s.cfg.Linger > 0 {
				t := time.NewTimer(s.cfg.Linger)
			linger:
				for len(batch) < s.cfg.BatchMax {
					select {
					case o := <-s.ops:
						batch = append(batch, o)
					case <-t.C:
						break linger
					case <-s.stopc:
						break linger
					}
				}
				t.Stop()
			} else {
			drain:
				for len(batch) < s.cfg.BatchMax {
					select {
					case o := <-s.ops:
						batch = append(batch, o)
					default:
						break drain
					}
				}
			}
			s.applyBatch(batch)
		}
	}
}

// drainAll flushes everything still queued at shutdown: queued clients are
// blocked on their done channels and must be answered, not dropped.
func (s *Server) drainAll(batch []*op) {
	for {
		select {
		case o := <-s.ops:
			batch = append(batch, o)
			if len(batch) >= s.cfg.BatchMax {
				s.applyBatch(batch)
				batch = batch[:0]
			}
		default:
			if len(batch) > 0 {
				s.applyBatch(batch)
			}
			return
		}
	}
}

// applyBatch partitions ops by kind, screens each group against the store
// and the batch itself (so one bad request 4xxes alone instead of
// poisoning its shard group), applies each kind through the platform's
// bulk entry point, and acks every op. Kinds apply in dependency order;
// within a kind, arrival order is preserved.
func (s *Server) applyBatch(ops []*op) {
	s.batches.Add(1)
	s.batchedOps.Add(uint64(len(ops)))
	groups := make([][]*op, opKinds)
	for _, o := range ops {
		groups[o.kind] = append(groups[o.kind], o)
	}
	s.applyRequesters(groups[opAddRequester])
	s.applyWorkerAdds(groups[opAddWorker])
	s.applyWorkerUpdates(groups[opUpdateWorker])
	s.applyTaskPosts(groups[opPostTask])
	s.applyContribAdds(groups[opAddContribution])
	s.applyContribUpdates(groups[opUpdateContribution])
	s.applyOffers(groups[opOffer])
}

// ack answers every op in g with err.
func ack(g []*op, err error) {
	for _, o := range g {
		o.done <- err
	}
}

// applyRequesters inserts requesters one by one (they are rare and have no
// bulk path) and acks each with its own outcome.
func (s *Server) applyRequesters(g []*op) {
	for _, o := range g {
		if err := o.requester.Validate(); err != nil {
			o.done <- fmt.Errorf("%w: %v", store.ErrInvalid, err)
			continue
		}
		o.done <- s.p.AddRequester(o.requester)
	}
}

// applyWorkerAdds screens duplicates (in-store and in-batch) out of the
// group, bulk-inserts the survivors, and acks per op.
func (s *Server) applyWorkerAdds(g []*op) {
	if len(g) == 0 {
		return
	}
	st := s.p.Store()
	u := s.p.Universe()
	seen := make(map[model.WorkerID]bool, len(g))
	var clean []*op
	ws := make([]*model.Worker, 0, len(g))
	for _, o := range g {
		if err := o.worker.Validate(u); err != nil {
			o.done <- fmt.Errorf("%w: %v", store.ErrInvalid, err)
			continue
		}
		if seen[o.worker.ID] {
			o.done <- fmt.Errorf("worker %s: %w", o.worker.ID, store.ErrDuplicate)
			continue
		}
		if st.PeekWorker(o.worker.ID) != nil {
			o.done <- fmt.Errorf("worker %s: %w", o.worker.ID, store.ErrDuplicate)
			continue
		}
		seen[o.worker.ID] = true
		clean = append(clean, o)
		ws = append(ws, o.worker)
	}
	if len(clean) > 0 {
		ack(clean, s.p.AddWorkers(ws))
	}
}

// applyWorkerUpdates screens unknown ids, folds repeated updates of one
// worker down to the last write (arrival order — the superseded writes
// share the winner's outcome), and bulk-applies.
func (s *Server) applyWorkerUpdates(g []*op) {
	if len(g) == 0 {
		return
	}
	st := s.p.Store()
	u := s.p.Universe()
	last := make(map[model.WorkerID]int, len(g))
	var order []model.WorkerID
	var pending []*op
	for _, o := range g {
		if err := o.worker.Validate(u); err != nil {
			o.done <- fmt.Errorf("%w: %v", store.ErrInvalid, err)
			continue
		}
		if st.PeekWorker(o.worker.ID) == nil {
			o.done <- fmt.Errorf("worker %s: %w", o.worker.ID, store.ErrNotFound)
			continue
		}
		if _, dup := last[o.worker.ID]; !dup {
			order = append(order, o.worker.ID)
		}
		last[o.worker.ID] = len(pending)
		pending = append(pending, o)
	}
	if len(pending) == 0 {
		return
	}
	ws := make([]*model.Worker, 0, len(order))
	for _, id := range order {
		ws = append(ws, pending[last[id]].worker)
	}
	ack(pending, s.p.UpdateWorkers(ws))
}

// applyTaskPosts screens duplicates and dangling requesters, then
// bulk-posts.
func (s *Server) applyTaskPosts(g []*op) {
	if len(g) == 0 {
		return
	}
	st := s.p.Store()
	u := s.p.Universe()
	seen := make(map[model.TaskID]bool, len(g))
	var clean []*op
	ts := make([]*model.Task, 0, len(g))
	for _, o := range g {
		if err := o.task.Validate(u); err != nil {
			o.done <- fmt.Errorf("%w: %v", store.ErrInvalid, err)
			continue
		}
		if seen[o.task.ID] {
			o.done <- fmt.Errorf("task %s: %w", o.task.ID, store.ErrDuplicate)
			continue
		}
		if st.PeekTask(o.task.ID) != nil {
			o.done <- fmt.Errorf("task %s: %w", o.task.ID, store.ErrDuplicate)
			continue
		}
		if _, err := st.Requester(o.task.Requester); err != nil {
			o.done <- err
			continue
		}
		seen[o.task.ID] = true
		clean = append(clean, o)
		ts = append(ts, o.task)
	}
	if len(clean) > 0 {
		ack(clean, s.p.PostTasks(ts))
	}
}

// applyContribAdds screens duplicates and dangling task/worker refs, then
// bulk-records.
func (s *Server) applyContribAdds(g []*op) {
	if len(g) == 0 {
		return
	}
	st := s.p.Store()
	seen := make(map[model.ContributionID]bool, len(g))
	var clean []*op
	cs := make([]*model.Contribution, 0, len(g))
	for _, o := range g {
		if err := o.contrib.Validate(); err != nil {
			o.done <- fmt.Errorf("%w: %v", store.ErrInvalid, err)
			continue
		}
		if seen[o.contrib.ID] {
			o.done <- fmt.Errorf("contribution %s: %w", o.contrib.ID, store.ErrDuplicate)
			continue
		}
		if st.PeekContribution(o.contrib.ID) != nil {
			o.done <- fmt.Errorf("contribution %s: %w", o.contrib.ID, store.ErrDuplicate)
			continue
		}
		if st.PeekTask(o.contrib.Task) == nil {
			o.done <- fmt.Errorf("task %s: %w", o.contrib.Task, store.ErrNotFound)
			continue
		}
		if st.PeekWorker(o.contrib.Worker) == nil {
			o.done <- fmt.Errorf("worker %s: %w", o.contrib.Worker, store.ErrNotFound)
			continue
		}
		seen[o.contrib.ID] = true
		clean = append(clean, o)
		cs = append(cs, o.contrib)
	}
	if len(clean) > 0 {
		ack(clean, s.p.RecordContributions(cs))
	}
}

// applyContribUpdates applies contribution updates individually (the
// accept/pay path has no bulk store API; updates are far rarer than
// submissions).
func (s *Server) applyContribUpdates(g []*op) {
	for _, o := range g {
		if err := o.contrib.Validate(); err != nil {
			o.done <- fmt.Errorf("%w: %v", store.ErrInvalid, err)
			continue
		}
		o.done <- s.p.UpdateContribution(o.contrib)
	}
}

// applyOffers screens dangling refs and appends the surviving offers as
// one trace batch.
func (s *Server) applyOffers(g []*op) {
	if len(g) == 0 {
		return
	}
	var clean []*op
	offers := make([]crowdfair.Offer, 0, len(g))
	for _, o := range g {
		if err := s.p.ValidateOffer(o.offer); err != nil {
			o.done <- err
			continue
		}
		clean = append(clean, o)
		offers = append(offers, o.offer)
	}
	if len(clean) > 0 {
		ack(clean, s.p.OfferBatch(offers))
	}
}
