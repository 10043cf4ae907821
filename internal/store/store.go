// Package store provides the in-memory, index-backed platform database that
// the fairness checkers and the simulator operate over.
//
// The EDBT framing of the paper treats a crowdsourcing platform as a data
// management problem: audits are queries over the platform state (workers,
// tasks, requesters, contributions). Store keeps that state in typed tables
// with primary-key hash indexes plus the secondary index the audits need,
// per-task contribution lists kept in submission order.
//
// Concurrency model: one RWMutex guards the tables, the index and the
// changelog ring. Every mutation takes the write lock once — referenced
// entities are probed under the read lock beforehand, which is safe because
// entities are never deleted — and allocates its version under it, so the
// changelog is dense and in version order by construction, and every
// mutation with a version at or below Version() is fully applied and
// visible to any subsequently acquired lock. Incremental consumers — the
// delta-driven fairness audits of internal/audit — read the changelog
// through ChangesSince to re-check only what moved.
//
// Durability: the store records its changelog into the in-memory ring and,
// on stores built with CreateDurable or OpenDurable, into a write-ahead
// log, appending change + entity post-image to segmented files under the
// write lock (internal/wal), so the on-disk order equals the version
// order. Checkpoint pins a snapshot and truncates dead segments;
// OpenDurable rebuilds the snapshot and replays the WAL tail with original
// version numbers, recovering the longest dense prefix after a torn final
// record (see checkpoint.go). That replay also feeds a replica: Bootstrap
// rebuilds a volatile store from the checkpoint of another process's
// directory, and each CatchUp pass re-reads the retained WAL and applies
// what lies above the store's version up to the first version gap. A
// segment the primary truncates during a pass fails it with a retryable
// error.
package store

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/wal"
)

// Sentinel errors.
var (
	ErrNotFound  = errors.New("store: not found")
	ErrDuplicate = errors.New("store: duplicate id")
	ErrInvalid   = errors.New("store: invalid entity")
)

// DefaultShardCount is 1, the store's only width. It is kept only because
// bench/ passes it to NewDurable; it leaves with one door.
const DefaultShardCount = 1

// Store is the platform database. Construct with New for a volatile store,
// CreateDurable for one teeing every mutation into a write-ahead log, or
// OpenDurable to recover a durable store from disk.
type Store struct {
	universe *model.Universe
	// version is the mutation sequencer. It moves only under mu's write
	// lock (or before the store is published), so it is also the
	// watermark: every change at or below it is in the tables and the
	// ring.
	version atomic.Uint64

	mu         sync.RWMutex
	workers    map[model.WorkerID]*model.Worker
	requesters map[model.RequesterID]*model.Requester
	tasks      map[model.TaskID]*model.Task
	contribs   map[model.ContributionID]*model.Contribution

	// contribsByTask, the one secondary index, lists each task's
	// contributions sorted by (SubmittedAt, ID), maintained at insert time
	// so ContributionsByTask never sorts.
	contribsByTask map[model.TaskID][]model.ContributionID

	// ring is the in-memory changelog; wal, when non-nil, is the durable
	// write-ahead log the same stream is teed into, and scratch its
	// record-encoding buffer.
	ring    changeRing
	wal     *wal.Writer
	scratch []byte

	// dir is the persistence root of a durable store ("" when volatile).
	// ckptMu serialises Checkpoint and Close, which both touch the WAL
	// beyond appending to it.
	dir    string
	ckptMu sync.Mutex
}

// New returns an empty store over the given skill universe.
func New(u *model.Universe) *Store {
	return &Store{
		universe:       u,
		workers:        make(map[model.WorkerID]*model.Worker),
		requesters:     make(map[model.RequesterID]*model.Requester),
		tasks:          make(map[model.TaskID]*model.Task),
		contribs:       make(map[model.ContributionID]*model.Contribution),
		contribsByTask: make(map[model.TaskID][]model.ContributionID),
		ring:           changeRing{cap: DefaultChangelogCap},
	}
}

// Universe returns the skill universe the store was built over.
func (s *Store) Universe() *model.Universe { return s.universe }

// ShardCount returns 1. It is kept only because bench/ calls it; it leaves
// with one door.
func (s *Store) ShardCount() int { return 1 }

// Version returns the current mutation counter. Two equal versions bracket
// an unchanged store, which lets long audits assert the trace did not move
// under them; every mutation versioned at or below the returned value is
// visible to reads issued after the call.
func (s *Store) Version() uint64 { return s.version.Load() }

// allocVersion returns the version a mutation commits under: the next
// sequencer value normally, or the forced original version during WAL
// replay, which always extends the sequencer (replay applies versions in
// ascending order above the store's own).
func (s *Store) allocVersion(forced uint64) uint64 {
	if forced == 0 {
		return s.version.Add(1)
	}
	s.version.Store(forced)
	return forced
}

// record tees a mutation into the ring and WAL under the held write lock.
// The in-memory state is already applied when record runs; a WAL failure
// therefore leaves the change live in memory but possibly not on disk, and
// the returned error tells the mutator durability was not achieved. The
// returned ticket is the WAL's group-commit ack: mutators Wait on it after
// releasing the lock, so the batch write and its fsync never run under it.
// AppendAsync copies the frame into its batch, so scratch is free for the
// next record as soon as it returns.
func (s *Store) record(m Mutation) (wal.Commit, error) {
	s.ring.record(m.Change)
	if s.wal == nil {
		return wal.Commit{}, nil
	}
	s.scratch = encodeMutation(s.scratch[:0], m, walEpoch)
	ack, err := s.wal.AppendAsync(m.Change.Version, s.scratch)
	if err != nil {
		return wal.Commit{}, fmt.Errorf("store: wal append: %w", err)
	}
	return ack, nil
}

// commit runs fn — a *Locked mutator — under the write lock, releases the
// lock, and only then waits on the durability ticket: the
// append-under-lock / ack-outside-lock shape every single-entity mutator
// shares. Holding the lock across the ticket wait would serialise every
// writer on the group-commit fsync; releasing first lets concurrent
// appenders pile into the batch the one fsync then covers. Version-dense
// recovery is preserved because the WAL enqueue (ordering) still happens
// under the lock — only the ack (durability) moves outside it.
func (s *Store) commit(fn func() (wal.Commit, error)) error {
	ack, err := func() (wal.Commit, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		return fn()
	}()
	if err != nil {
		return err
	}
	return ack.Wait()
}

// bulkApply applies n items in order under one write-lock acquisition,
// stopping at the first failure: items before it stay applied, items after
// it are not attempted. It waits only on the last item's ticket, after
// releasing the lock: batches seal and flush strictly in append order with
// a sticky error (see wal/groupcommit.go), so the last ticket's success
// covers every earlier append and its failure reports any earlier batch's.
func (s *Store) bulkApply(n int, apply func(k int) (wal.Commit, error)) error {
	return s.commit(func() (wal.Commit, error) {
		var last wal.Commit
		for k := 0; k < n; k++ {
			ack, err := apply(k)
			if err != nil {
				return wal.Commit{}, err
			}
			last = ack
		}
		return last, nil
	})
}

// cloneAll returns a clone of every entity in xs, for the bulk entry points
// that hand a caller's values to the *Locked mutators.
func cloneAll[T any](xs []*T, clone func(*T) *T) []*T {
	out := make([]*T, len(xs))
	for i, x := range xs {
		out[i] = clone(x)
	}
	return out
}

// keys returns m's keys in no particular order.
func keys[K comparable, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// sortedValues returns m's values in ascending key order.
func sortedValues[K cmp.Ordered, V any](m map[K]V) []V {
	ks := keys(m)
	slices.Sort(ks)
	out := make([]V, len(ks))
	for i, k := range ks {
		out[i] = m[k]
	}
	return out
}

// --- Workers ---

// PutWorker validates and inserts a worker. The store keeps its own clone,
// so later mutation of w by the caller does not affect stored state.
func (s *Store) PutWorker(w *model.Worker) error {
	if err := w.Validate(s.universe); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	c := w.Clone()
	return s.commit(func() (wal.Commit, error) { return s.putWorkerLocked(c, 0) })
}

// putWorkerLocked inserts under the held write lock. ver is 0 for live
// mutations (allocate the next version) and the original version during
// WAL replay. Like every *Locked mutator it stores the entity it is given,
// which must have its skills packed and which nobody may touch afterwards:
// an entry point holding a caller's value passes a clone, and recovery
// passes what it decoded. It returns the record's durability ticket for
// the caller to Wait on after unlocking.
func (s *Store) putWorkerLocked(w *model.Worker, ver uint64) (wal.Commit, error) {
	if _, dup := s.workers[w.ID]; dup {
		return wal.Commit{}, fmt.Errorf("worker %s: %w", w.ID, ErrDuplicate)
	}
	s.workers[w.ID] = w
	return s.record(Mutation{
		Change: Change{Version: s.allocVersion(ver), Op: OpInsert, Entity: EntityWorker, Worker: w.ID},
		Worker: w,
	})
}

// UpdateWorker replaces an existing worker's attributes and skills with a
// clone of w.
func (s *Store) UpdateWorker(w *model.Worker) error {
	if err := w.Validate(s.universe); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	c := w.Clone()
	return s.commit(func() (wal.Commit, error) { return s.updateWorkerLocked(c, 0) })
}

func (s *Store) updateWorkerLocked(w *model.Worker, ver uint64) (wal.Commit, error) {
	if _, ok := s.workers[w.ID]; !ok {
		return wal.Commit{}, fmt.Errorf("worker %s: %w", w.ID, ErrNotFound)
	}
	s.workers[w.ID] = w
	return s.record(Mutation{
		Change: Change{Version: s.allocVersion(ver), Op: OpUpdate, Entity: EntityWorker, Worker: w.ID},
		Worker: w,
	})
}

// PeekWorker returns the stored worker itself, nil when absent. Stored
// entities are immutable once inserted (updates swap the pointer), so the
// result stays valid without the lock — and is strictly read-only: every
// other reader sees the same one. PeekTask and PeekContribution likewise.
func (s *Store) PeekWorker(id model.WorkerID) *model.Worker {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.workers[id]
}

// Worker returns a copy of the worker with the given id.
func (s *Store) Worker(id model.WorkerID) (*model.Worker, error) {
	w := s.PeekWorker(id)
	if w == nil {
		return nil, fmt.Errorf("worker %s: %w", id, ErrNotFound)
	}
	return w.Clone(), nil
}

// Workers returns copies of all workers sorted by id.
func (s *Store) Workers() []*model.Worker {
	s.mu.RLock()
	ws := sortedValues(s.workers)
	s.mu.RUnlock()
	return cloneAll(ws, (*model.Worker).Clone)
}

// WorkerCount returns the number of workers without copying them.
func (s *Store) WorkerCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.workers)
}

// WorkerIDs returns every worker's id in ascending order without copying
// the workers.
func (s *Store) WorkerIDs() []model.WorkerID {
	s.mu.RLock()
	ids := keys(s.workers)
	s.mu.RUnlock()
	slices.Sort(ids)
	return ids
}

// BulkPutWorkers inserts many workers in order under one lock acquisition.
// On error the store keeps the inserts before the failing one and attempts
// none after it.
func (s *Store) BulkPutWorkers(ws []*model.Worker) error {
	if err := s.validWorkers(ws); err != nil {
		return err
	}
	return s.adoptWorkers(cloneAll(ws, (*model.Worker).Clone))
}

// validWorkers validates workers before a bulk insert or update.
func (s *Store) validWorkers(ws []*model.Worker) error {
	for _, w := range ws {
		if err := w.Validate(s.universe); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalid, err)
		}
	}
	return nil
}

// adoptWorkers is BulkPutWorkers after validation, storing the given
// workers themselves (see putWorkerLocked).
func (s *Store) adoptWorkers(ws []*model.Worker) error {
	return s.bulkApply(len(ws), func(k int) (wal.Commit, error) { return s.putWorkerLocked(ws[k], 0) })
}

// BulkUpdateWorkers applies many worker updates in order under one lock
// acquisition (failures as in BulkPutWorkers).
func (s *Store) BulkUpdateWorkers(ws []*model.Worker) error {
	if err := s.validWorkers(ws); err != nil {
		return err
	}
	cs := cloneAll(ws, (*model.Worker).Clone)
	return s.bulkApply(len(cs), func(k int) (wal.Commit, error) { return s.updateWorkerLocked(cs[k], 0) })
}

// --- Requesters ---

// PutRequester validates and inserts a copy of a requester.
func (s *Store) PutRequester(r *model.Requester) error {
	if err := r.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	c := *r
	return s.commit(func() (wal.Commit, error) { return s.putRequesterLocked(&c, 0) })
}

func (s *Store) putRequesterLocked(r *model.Requester, ver uint64) (wal.Commit, error) {
	if _, dup := s.requesters[r.ID]; dup {
		return wal.Commit{}, fmt.Errorf("requester %s: %w", r.ID, ErrDuplicate)
	}
	s.requesters[r.ID] = r
	return s.record(Mutation{
		Change:    Change{Version: s.allocVersion(ver), Op: OpInsert, Entity: EntityRequester, Requester: r.ID},
		Requester: r,
	})
}

// Requesters returns copies of all requesters sorted by id.
func (s *Store) Requesters() []*model.Requester {
	s.mu.RLock()
	rs := sortedValues(s.requesters)
	s.mu.RUnlock()
	return cloneAll(rs, func(r *model.Requester) *model.Requester { c := *r; return &c })
}

func (s *Store) hasRequester(id model.RequesterID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.requesters[id] != nil
}

// --- Tasks ---

// PutTask validates and inserts a task; its requester must already exist.
// The existence probe takes only the read lock: entities are never
// deleted, so the probe cannot go stale before the insert.
func (s *Store) PutTask(t *model.Task) error {
	if err := t.Validate(s.universe); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if !s.hasRequester(t.Requester) {
		return fmt.Errorf("task %s: requester %s: %w", t.ID, t.Requester, ErrNotFound)
	}
	c := t.Clone()
	return s.commit(func() (wal.Commit, error) { return s.putTaskLocked(c, 0) })
}

func (s *Store) putTaskLocked(t *model.Task, ver uint64) (wal.Commit, error) {
	if _, dup := s.tasks[t.ID]; dup {
		return wal.Commit{}, fmt.Errorf("task %s: %w", t.ID, ErrDuplicate)
	}
	s.tasks[t.ID] = t
	return s.record(Mutation{
		Change: Change{Version: s.allocVersion(ver), Op: OpInsert, Entity: EntityTask, Task: t.ID, Requester: t.Requester},
		Task:   t,
	})
}

// BulkPutTasks inserts many tasks in order under one lock acquisition,
// probing the referenced requesters up front (failures as in
// BulkPutWorkers).
func (s *Store) BulkPutTasks(ts []*model.Task) error {
	if err := s.validTasks(ts); err != nil {
		return err
	}
	return s.adoptTasks(cloneAll(ts, (*model.Task).Clone))
}

// validTasks validates tasks and probes their requesters before a bulk
// insert.
func (s *Store) validTasks(ts []*model.Task) error {
	for _, t := range ts {
		if err := t.Validate(s.universe); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		if !s.hasRequester(t.Requester) {
			return fmt.Errorf("task %s: requester %s: %w", t.ID, t.Requester, ErrNotFound)
		}
	}
	return nil
}

// adoptTasks is BulkPutTasks after validation, storing the given tasks
// themselves (see putWorkerLocked).
func (s *Store) adoptTasks(ts []*model.Task) error {
	return s.bulkApply(len(ts), func(k int) (wal.Commit, error) { return s.putTaskLocked(ts[k], 0) })
}

// PeekTask returns the stored task itself, nil when absent (see PeekWorker).
func (s *Store) PeekTask(id model.TaskID) *model.Task {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tasks[id]
}

// Task returns a copy of the task with the given id.
func (s *Store) Task(id model.TaskID) (*model.Task, error) {
	t := s.PeekTask(id)
	if t == nil {
		return nil, fmt.Errorf("task %s: %w", id, ErrNotFound)
	}
	return t.Clone(), nil
}

// Tasks returns copies of all tasks sorted by id.
func (s *Store) Tasks() []*model.Task {
	s.mu.RLock()
	ts := sortedValues(s.tasks)
	s.mu.RUnlock()
	return cloneAll(ts, (*model.Task).Clone)
}

// TaskIDs returns every task's id in ascending order without copying the
// tasks.
func (s *Store) TaskIDs() []model.TaskID {
	s.mu.RLock()
	ids := keys(s.tasks)
	s.mu.RUnlock()
	slices.Sort(ids)
	return ids
}

// TaskCount returns the number of tasks.
func (s *Store) TaskCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tasks)
}

// --- Contributions ---

// PutContribution validates and inserts a contribution; its task and worker
// must already exist (read-locked probes; sound because entities are never
// deleted).
func (s *Store) PutContribution(c *model.Contribution) error {
	if err := c.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if err := s.checkContribRefs(c); err != nil {
		return err
	}
	cc := c.Clone()
	return s.commit(func() (wal.Commit, error) { return s.putContributionLocked(cc, 0) })
}

func (s *Store) checkContribRefs(c *model.Contribution) error {
	if s.PeekTask(c.Task) == nil {
		return fmt.Errorf("contribution %s: task %s: %w", c.ID, c.Task, ErrNotFound)
	}
	if s.PeekWorker(c.Worker) == nil {
		return fmt.Errorf("contribution %s: worker %s: %w", c.ID, c.Worker, ErrNotFound)
	}
	return nil
}

func (s *Store) putContributionLocked(c *model.Contribution, ver uint64) (wal.Commit, error) {
	if _, dup := s.contribs[c.ID]; dup {
		return wal.Commit{}, fmt.Errorf("contribution %s: %w", c.ID, ErrDuplicate)
	}
	s.contribs[c.ID] = c
	s.contribsByTask[c.Task] = insertContribID(s.contribsByTask[c.Task], s.contribs, c.ID)
	return s.record(Mutation{
		Change: Change{
			Version: s.allocVersion(ver), Op: OpInsert, Entity: EntityContribution,
			Contribution: c.ID, Task: c.Task, Worker: c.Worker,
		},
		Contribution: c,
	})
}

// BulkPutContributions inserts many contributions in order under one lock
// acquisition, probing referenced tasks and workers up front (failures as
// in BulkPutWorkers).
func (s *Store) BulkPutContributions(cs []*model.Contribution) error {
	if err := s.validContributions(cs); err != nil {
		return err
	}
	return s.adoptContributions(cloneAll(cs, (*model.Contribution).Clone))
}

// validContributions validates contributions and probes their tasks and
// workers before a bulk insert.
func (s *Store) validContributions(cs []*model.Contribution) error {
	for _, c := range cs {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		if err := s.checkContribRefs(c); err != nil {
			return err
		}
	}
	return nil
}

// adoptContributions is BulkPutContributions after validation, storing the
// given contributions themselves (see putWorkerLocked).
func (s *Store) adoptContributions(cs []*model.Contribution) error {
	return s.bulkApply(len(cs), func(k int) (wal.Commit, error) { return s.putContributionLocked(cs[k], 0) })
}

// UpdateContribution replaces an existing contribution (e.g. after the
// requester's accept/reject decision or payment).
func (s *Store) UpdateContribution(c *model.Contribution) error {
	if err := c.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	cc := c.Clone()
	return s.commit(func() (wal.Commit, error) { return s.updateContributionLocked(cc, 0) })
}

func (s *Store) updateContributionLocked(c *model.Contribution, ver uint64) (wal.Commit, error) {
	old, ok := s.contribs[c.ID]
	if !ok {
		return wal.Commit{}, fmt.Errorf("contribution %s: %w", c.ID, ErrNotFound)
	}
	if old.Task != c.Task || old.Worker != c.Worker {
		return wal.Commit{}, fmt.Errorf("contribution %s: task/worker are immutable: %w", c.ID, ErrInvalid)
	}
	if old.SubmittedAt != c.SubmittedAt {
		// The (SubmittedAt, ID) sort key moved: re-position the index
		// entry before swapping in the new value.
		s.contribsByTask[c.Task] = removeContribID(s.contribsByTask[c.Task], s.contribs, old.SubmittedAt, c.ID)
		s.contribs[c.ID] = c
		s.contribsByTask[c.Task] = insertContribID(s.contribsByTask[c.Task], s.contribs, c.ID)
	} else {
		s.contribs[c.ID] = c
	}
	return s.record(Mutation{
		Change: Change{
			Version: s.allocVersion(ver), Op: OpUpdate, Entity: EntityContribution,
			Contribution: c.ID, Task: c.Task, Worker: c.Worker,
		},
		Contribution: c,
	})
}

// PeekContribution returns the stored contribution itself, nil when absent
// (see PeekWorker).
func (s *Store) PeekContribution(id model.ContributionID) *model.Contribution {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.contribs[id]
}

// Contribution returns a copy of the contribution with the given id.
func (s *Store) Contribution(id model.ContributionID) (*model.Contribution, error) {
	c := s.PeekContribution(id)
	if c == nil {
		return nil, fmt.Errorf("contribution %s: %w", id, ErrNotFound)
	}
	return c.Clone(), nil
}

// Contributions returns copies of all contributions sorted by id.
func (s *Store) Contributions() []*model.Contribution {
	s.mu.RLock()
	cs := sortedValues(s.contribs)
	s.mu.RUnlock()
	return cloneAll(cs, (*model.Contribution).Clone)
}

// ContributionCount returns the number of contributions.
func (s *Store) ContributionCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.contribs)
}

// ContributionsByTask returns copies of the contributions to a task,
// ordered by submission time then id — the index's own order.
func (s *Store) ContributionsByTask(id model.TaskID) []*model.Contribution {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := s.contribsByTask[id]
	out := make([]*model.Contribution, len(ids))
	for k, cid := range ids {
		out[k] = s.contribs[cid].Clone()
	}
	return out
}

// contribOrderLess is the (SubmittedAt, ID) read order of the per-task
// contribution listing.
func contribOrderLess(a, b *model.Contribution) bool {
	if a.SubmittedAt != b.SubmittedAt {
		return a.SubmittedAt < b.SubmittedAt
	}
	return a.ID < b.ID
}

// contribPos finds the position of the (at, id) key in a contribution index
// sorted by (SubmittedAt, ID). contribs must hold every listed id.
func contribPos(ids []model.ContributionID, contribs map[model.ContributionID]*model.Contribution, at int64, id model.ContributionID) int {
	return sort.Search(len(ids), func(k int) bool {
		c := contribs[ids[k]]
		if c.SubmittedAt != at {
			return c.SubmittedAt > at
		}
		return ids[k] >= id
	})
}

// insertContribID inserts id into a (SubmittedAt, ID)-sorted index. The
// contribution must already be present in contribs.
func insertContribID(ids []model.ContributionID, contribs map[model.ContributionID]*model.Contribution, id model.ContributionID) []model.ContributionID {
	c := contribs[id]
	i := contribPos(ids, contribs, c.SubmittedAt, id)
	ids = append(ids, id)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// removeContribID removes id (which sorted at submittedAt when inserted)
// from a (SubmittedAt, ID)-sorted index.
func removeContribID(ids []model.ContributionID, contribs map[model.ContributionID]*model.Contribution, at int64, id model.ContributionID) []model.ContributionID {
	i := contribPos(ids, contribs, at, id)
	if i < len(ids) && ids[i] == id {
		return append(ids[:i], ids[i+1:]...)
	}
	return ids
}
