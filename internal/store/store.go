// Package store provides the in-memory, index-backed platform database that
// the fairness checkers and the simulator operate over.
//
// The EDBT framing of the paper treats a crowdsourcing platform as a data
// management problem: audits are queries over the platform state (workers,
// tasks, requesters, contributions). Store keeps that state in typed tables
// with primary-key hash indexes plus the secondary indexes the audits need:
// a skill inverted index over workers and tasks (used to prune candidate
// pairs in Axiom 1/2 checks, the E7 ablation), a per-requester task index,
// and per-task / per-worker contribution indexes.
//
// Concurrency model: the store is hash-partitioned into ShardCount shards
// (see shard.go), each owning the entities whose id hashes to it together
// with that partition's secondary indexes and changelog ring. The width is
// fixed when the store is built — a durable store reopens at its manifest's
// width — so an id's shard never changes (route.go). Every mutation takes
// exactly one shard's write lock — referenced entities in other shards are
// probed under read locks, which is safe because entities are never
// deleted — so writers to different shards never contend and mutation
// throughput scales with cores. A single atomic sequencer allocates global
// versions; allocation happens while the owning shard's write lock is held,
// which yields the store's core visibility invariant: every mutation with a
// version at or below Version() is fully applied and visible to any
// subsequently acquired shard lock.
//
// Multi-shard readers (Workers, Contributions, the candidate-pair
// generators) read-lock every shard (rlockView); they see a state at least
// as new as any version bracket they read first.
// Incremental consumers — the delta-driven fairness audits of
// internal/audit — read the per-shard changelogs through ShardChangesSince
// to re-check only what moved.
//
// Durability: each shard records its changelog into the in-memory ring
// and, on stores built with NewDurable or Open, into its own write-ahead
// log, appending change + entity post-image to segmented files under the
// shard lock (internal/wal), so the on-disk order equals the version order.
// Checkpoint pins a snapshot and truncates dead segments; Open rebuilds
// the snapshot and replays the WAL tail with original version numbers,
// recovering the longest globally dense prefix after a torn final record
// (see checkpoint.go). That replay, the one merge of the shard WAL
// streams, also feeds a replica: Bootstrap rebuilds a volatile store from
// the checkpoint of another process's directory, and each CatchUp pass
// re-reads the retained WAL and applies, under the shard locks, what lies
// above the store's version up to the first version gap. A segment the
// primary truncates during a pass fails it with a retryable error.
package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/wal"
)

// Sentinel errors.
var (
	ErrNotFound  = errors.New("store: not found")
	ErrDuplicate = errors.New("store: duplicate id")
	ErrInvalid   = errors.New("store: invalid entity")
)

// DefaultShardCount is the partition count used by New and by the durable
// platform. It is a fixed constant — not GOMAXPROCS-derived — so a trace
// replayed on any machine lands entities in the same shards, and a
// *sequentially* replayed trace produces the same merged changelog (the
// bulk fan-out paths interleave version assignment across shards
// nondeterministically, so bulk-loaded stores promise identical state but
// not identical change order). The determinism tests pin that results are
// identical for every shard count, so trying another width is a change to
// this one constant; a durable store keeps the width it was created with.
const DefaultShardCount = 8

// Store is the platform database. Construct with New or NewSharded for a
// volatile store, NewDurable for one teeing every mutation into a
// write-ahead log, or Open to recover a durable store from disk.
type Store struct {
	universe *model.Universe
	version  atomic.Uint64 // global mutation sequencer

	// shards are the hash partitions, fixed at construction (route.go).
	// mask enables the power-of-two routing fast path; masked
	// distinguishes a real mask of 0 (one shard) from "not a power of two".
	shards []*shard
	mask   uint64
	masked bool

	// dir is the persistence root of a durable store ("" when volatile).
	// ckptMu serialises Checkpoint and Close, which both touch every
	// shard's WAL at once.
	dir    string
	ckptMu sync.Mutex
}

// New returns an empty store over the given skill universe, partitioned
// into DefaultShardCount shards.
func New(u *model.Universe) *Store { return NewSharded(u, DefaultShardCount) }

// NewSharded returns an empty store partitioned into the given number of
// hash shards (values < 1 mean one shard, i.e. the single-lock layout).
func NewSharded(u *model.Universe, shards int) *Store {
	if shards < 1 {
		shards = 1
	}
	s := &Store{universe: u, shards: make([]*shard, shards)}
	for i := range s.shards {
		s.shards[i] = newShard(DefaultChangelogCap)
	}
	if shards&(shards-1) == 0 {
		s.mask, s.masked = uint64(shards-1), true
	}
	return s
}

// Universe returns the skill universe the store was built over.
func (s *Store) Universe() *model.Universe { return s.universe }

// ShardCount returns the number of hash partitions.
func (s *Store) ShardCount() int { return len(s.shards) }

// Version returns the current mutation counter. Two equal versions bracket
// an unchanged store, which lets long audits assert the trace did not move
// under them; every mutation versioned at or below the returned value is
// visible to reads issued after the call.
func (s *Store) Version() uint64 { return s.version.Load() }

// allocVersion returns the version a mutation commits under: the next
// sequencer value normally, or the forced original version during WAL
// replay (where the sequencer is advanced to at least that value so
// post-recovery mutations continue the original numbering).
func (s *Store) allocVersion(forced uint64) uint64 {
	if forced == 0 {
		return s.version.Add(1)
	}
	for {
		cur := s.version.Load()
		if cur >= forced || s.version.CompareAndSwap(cur, forced) {
			return forced
		}
	}
}

// commitOutside runs fn — a *Locked mutator — under sh's already-acquired
// write lock, releases the lock, and only then waits on the durability
// ticket: the append-under-lock / ack-outside-lock shape every
// single-entity mutator shares. Holding the shard lock across the ticket
// wait would serialise every writer of the shard on the group-commit
// fsync; releasing first lets concurrent appenders pile into the batch the
// one fsync then covers. Version-dense recovery is preserved because the
// WAL enqueue (ordering) still happens under the lock — only the ack
// (durability) moves outside it.
func commitOutside(sh *shard, fn func() (wal.Commit, error)) error {
	ack, err := func() (wal.Commit, error) {
		defer sh.mu.Unlock()
		return fn()
	}()
	if err != nil {
		return err
	}
	return ack.Wait()
}

// --- Workers ---

// PutWorker validates and inserts a worker. The store keeps its own clone,
// so later mutation of w by the caller does not affect stored state.
func (s *Store) PutWorker(w *model.Worker) error {
	if err := w.Validate(s.universe); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	c := w.Clone()
	sh := s.lockOwner(string(c.ID))
	return commitOutside(sh, func() (wal.Commit, error) {
		return s.putWorkerLocked(sh, c, 0)
	})
}

// putWorkerLocked inserts under the held shard lock. ver is 0 for live
// mutations (allocate the next version) and the original version during
// WAL replay. Like every *Locked mutator it stores the entity it is given,
// which must have its skills packed and which nobody may touch afterwards:
// an entry point holding a caller's value passes a clone, and recovery
// passes what it decoded. It returns the record's durability ticket for
// the caller to Wait on after unlocking.
func (s *Store) putWorkerLocked(sh *shard, w *model.Worker, ver uint64) (wal.Commit, error) {
	if _, dup := sh.workers[w.ID]; dup {
		return wal.Commit{}, fmt.Errorf("worker %s: %w", w.ID, ErrDuplicate)
	}
	sh.workers[w.ID] = w
	v := s.allocVersion(ver)
	return sh.record(Mutation{
		Change: Change{Version: v, Op: OpInsert, Entity: EntityWorker, Worker: w.ID},
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
	sh := s.lockOwner(string(c.ID))
	return commitOutside(sh, func() (wal.Commit, error) {
		return s.updateWorkerLocked(sh, c, 0)
	})
}

func (s *Store) updateWorkerLocked(sh *shard, w *model.Worker, ver uint64) (wal.Commit, error) {
	if _, ok := sh.workers[w.ID]; !ok {
		return wal.Commit{}, fmt.Errorf("worker %s: %w", w.ID, ErrNotFound)
	}
	sh.workers[w.ID] = w
	v := s.allocVersion(ver)
	return sh.record(Mutation{
		Change: Change{Version: v, Op: OpUpdate, Entity: EntityWorker, Worker: w.ID},
		Worker: w,
	})
}

// PeekWorker returns the stored worker itself, nil when absent. Stored
// entities are immutable once inserted (updates swap the pointer), so the
// result stays valid without the lock — and is strictly read-only: every
// other reader sees the same one. PeekTask and PeekContribution likewise.
func (s *Store) PeekWorker(id model.WorkerID) *model.Worker {
	sh := s.rlockOwner(string(id))
	w := sh.workers[id]
	sh.mu.RUnlock()
	return w
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
	return s.workersSlice(false, nil)
}

// workersSlice gathers per-shard sorted runs (optionally shard-parallel)
// and merges them into the id-sorted result. held, when non-nil, is the
// locked view an enclosing critical section (Checkpoint) already pinned;
// nil callers acquire their own.
func (s *Store) workersSlice(parallel bool, held []*shard) []*model.Worker {
	shs, release := held, func() {}
	if shs == nil {
		shs, release = s.rlockView()
	}
	per := make([][]*model.Worker, len(shs))
	gather := func(i int) {
		sh := shs[i]
		out := make([]*model.Worker, 0, len(sh.workers))
		for _, w := range sh.workers {
			out = append(out, w)
		}
		sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
		for k, w := range out {
			out[k] = w.Clone()
		}
		per[i] = out
	}
	if parallel {
		par.Do(len(shs), 0, gather)
	} else {
		for i := range shs {
			gather(i)
		}
	}
	release()
	return mergeSorted(per, func(a, b *model.Worker) bool { return a.ID < b.ID })
}

// WorkerCount returns the number of workers without copying them.
func (s *Store) WorkerCount() int {
	shs, release := s.rlockView()
	n := 0
	for _, sh := range shs {
		n += len(sh.workers)
	}
	release()
	return n
}

// WorkerIDs returns every worker's id in ascending order without copying
// the workers.
func (s *Store) WorkerIDs() []model.WorkerID {
	shs, release := s.rlockView()
	var ids []model.WorkerID
	for _, sh := range shs {
		for id := range sh.workers {
			ids = append(ids, id)
		}
	}
	release()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// BulkPutWorkers inserts many workers, fanning the inserts out across
// shards in parallel (insertion order within a shard follows ws order).
// On error the store keeps every insert that succeeded: each shard stops
// at its own first failure, so entities after a failing one may still land
// if they hash to other shards — callers must not retry a failed batch
// wholesale.
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
	return s.bulkApply(len(ws), func(k int) string { return string(ws[k].ID) },
		func(sh *shard, k int) (wal.Commit, error) { return s.putWorkerLocked(sh, ws[k], 0) })
}

// BulkUpdateWorkers applies many worker updates, fanning out across shards
// in parallel. On error, updates that succeeded before each shard's own
// first failure remain applied (see BulkPutWorkers).
func (s *Store) BulkUpdateWorkers(ws []*model.Worker) error {
	if err := s.validWorkers(ws); err != nil {
		return err
	}
	cs := cloneAll(ws, (*model.Worker).Clone)
	return s.bulkApply(len(cs), func(k int) string { return string(cs[k].ID) },
		func(sh *shard, k int) (wal.Commit, error) { return s.updateWorkerLocked(sh, cs[k], 0) })
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

// bulkApply groups n items by owning shard and applies each group under a
// single lock acquisition, in parallel across shards.
//
// Durability: each shard group waits only on its last item's ticket, after
// releasing the shard lock. Within one writer batches seal and flush
// strictly in append order with a sticky error (see wal/groupcommit.go),
// so the last ticket's success covers every earlier append of the group
// and its failure reports any earlier batch's failure.
func (s *Store) bulkApply(n int, id func(k int) string, apply func(sh *shard, k int) (wal.Commit, error)) error {
	groups := make([][]int, len(s.shards))
	for k := 0; k < n; k++ {
		i := s.shardIndex(id(k))
		groups[i] = append(groups[i], k)
	}
	errs := make([]error, len(groups))
	par.Do(len(groups), 0, func(i int) {
		if len(groups[i]) == 0 {
			return
		}
		sh := s.shards[i]
		sh.mu.Lock()
		var last wal.Commit
		for _, k := range groups[i] {
			ack, err := apply(sh, k)
			if err != nil {
				errs[i] = err
				break
			}
			last = ack
		}
		sh.mu.Unlock()
		if errs[i] == nil {
			errs[i] = last.Wait()
		}
	})
	return errors.Join(errs...)
}

// --- Requesters ---

// PutRequester validates and inserts a copy of a requester.
func (s *Store) PutRequester(r *model.Requester) error {
	if err := r.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	c := *r
	sh := s.lockOwner(string(c.ID))
	return commitOutside(sh, func() (wal.Commit, error) {
		return s.putRequesterLocked(sh, &c, 0)
	})
}

func (s *Store) putRequesterLocked(sh *shard, r *model.Requester, ver uint64) (wal.Commit, error) {
	if _, dup := sh.requesters[r.ID]; dup {
		return wal.Commit{}, fmt.Errorf("requester %s: %w", r.ID, ErrDuplicate)
	}
	sh.requesters[r.ID] = r
	v := s.allocVersion(ver)
	return sh.record(Mutation{
		Change:    Change{Version: v, Op: OpInsert, Entity: EntityRequester, Requester: r.ID},
		Requester: r,
	})
}

// Requesters returns copies of all requesters sorted by id.
func (s *Store) Requesters() []*model.Requester {
	return s.requestersSlice(nil)
}

func (s *Store) requestersSlice(held []*shard) []*model.Requester {
	shs, release := held, func() {}
	if shs == nil {
		shs, release = s.rlockView()
	}
	per := make([][]*model.Requester, len(shs))
	for i, sh := range shs {
		out := make([]*model.Requester, 0, len(sh.requesters))
		for _, r := range sh.requesters {
			out = append(out, r)
		}
		sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
		for k, r := range out {
			c := *r
			out[k] = &c
		}
		per[i] = out
	}
	release()
	return mergeSorted(per, func(a, b *model.Requester) bool { return a.ID < b.ID })
}

func (s *Store) hasRequester(id model.RequesterID) bool {
	sh := s.rlockOwner(string(id))
	_, ok := sh.requesters[id]
	sh.mu.RUnlock()
	return ok
}

// --- Tasks ---

// PutTask validates and inserts a task; its requester must already exist.
// The existence probe takes only the requester shard's read lock: entities
// are never deleted, so the probe cannot go stale before the insert.
func (s *Store) PutTask(t *model.Task) error {
	if err := t.Validate(s.universe); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if !s.hasRequester(t.Requester) {
		return fmt.Errorf("task %s: requester %s: %w", t.ID, t.Requester, ErrNotFound)
	}
	c := t.Clone()
	sh := s.lockOwner(string(c.ID))
	return commitOutside(sh, func() (wal.Commit, error) {
		return s.putTaskLocked(sh, c, 0)
	})
}

func (s *Store) putTaskLocked(sh *shard, t *model.Task, ver uint64) (wal.Commit, error) {
	if _, dup := sh.tasks[t.ID]; dup {
		return wal.Commit{}, fmt.Errorf("task %s: %w", t.ID, ErrDuplicate)
	}
	sh.tasks[t.ID] = t
	v := s.allocVersion(ver)
	return sh.record(Mutation{
		Change: Change{Version: v, Op: OpInsert, Entity: EntityTask, Task: t.ID, Requester: t.Requester},
		Task:   t,
	})
}

// BulkPutTasks inserts many tasks, probing the referenced requesters up
// front and fanning the inserts out across shards in parallel.
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
	return s.bulkApply(len(ts), func(k int) string { return string(ts[k].ID) },
		func(sh *shard, k int) (wal.Commit, error) { return s.putTaskLocked(sh, ts[k], 0) })
}

// PeekTask returns the stored task itself, nil when absent (see PeekWorker).
func (s *Store) PeekTask(id model.TaskID) *model.Task {
	sh := s.rlockOwner(string(id))
	t := sh.tasks[id]
	sh.mu.RUnlock()
	return t
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
	return s.tasksSlice(false, nil)
}

func (s *Store) tasksSlice(parallel bool, held []*shard) []*model.Task {
	shs, release := held, func() {}
	if shs == nil {
		shs, release = s.rlockView()
	}
	per := make([][]*model.Task, len(shs))
	gather := func(i int) {
		sh := shs[i]
		out := make([]*model.Task, 0, len(sh.tasks))
		for _, t := range sh.tasks {
			out = append(out, t)
		}
		sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
		for k, t := range out {
			out[k] = t.Clone()
		}
		per[i] = out
	}
	if parallel {
		par.Do(len(shs), 0, gather)
	} else {
		for i := range shs {
			gather(i)
		}
	}
	release()
	return mergeSorted(per, func(a, b *model.Task) bool { return a.ID < b.ID })
}

// TaskIDs returns every task's id in ascending order without copying the
// tasks.
func (s *Store) TaskIDs() []model.TaskID {
	shs, release := s.rlockView()
	var ids []model.TaskID
	for _, sh := range shs {
		for id := range sh.tasks {
			ids = append(ids, id)
		}
	}
	release()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TaskCount returns the number of tasks.
func (s *Store) TaskCount() int {
	shs, release := s.rlockView()
	n := 0
	for _, sh := range shs {
		n += len(sh.tasks)
	}
	release()
	return n
}

// --- Contributions ---

// PutContribution validates and inserts a contribution; its task and worker
// must already exist (read-locked probes of their shards; sound because
// entities are never deleted).
func (s *Store) PutContribution(c *model.Contribution) error {
	if err := c.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if err := s.checkContribRefs(c); err != nil {
		return err
	}
	cc := c.Clone()
	sh := s.lockOwner(string(cc.ID))
	return commitOutside(sh, func() (wal.Commit, error) {
		return s.putContributionLocked(sh, cc, 0)
	})
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

func (s *Store) putContributionLocked(sh *shard, c *model.Contribution, ver uint64) (wal.Commit, error) {
	if _, dup := sh.contribs[c.ID]; dup {
		return wal.Commit{}, fmt.Errorf("contribution %s: %w", c.ID, ErrDuplicate)
	}
	sh.contribs[c.ID] = c
	sh.contribsByTask[c.Task] = insertContribID(sh.contribsByTask[c.Task], sh.contribs, c.ID)
	v := s.allocVersion(ver)
	return sh.record(Mutation{
		Change: Change{
			Version: v, Op: OpInsert, Entity: EntityContribution,
			Contribution: c.ID, Task: c.Task, Worker: c.Worker,
		},
		Contribution: c,
	})
}

// BulkPutContributions inserts many contributions, probing referenced tasks
// and workers up front and fanning out across shards in parallel.
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
	return s.bulkApply(len(cs), func(k int) string { return string(cs[k].ID) },
		func(sh *shard, k int) (wal.Commit, error) { return s.putContributionLocked(sh, cs[k], 0) })
}

// UpdateContribution replaces an existing contribution (e.g. after the
// requester's accept/reject decision or payment).
func (s *Store) UpdateContribution(c *model.Contribution) error {
	if err := c.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	cc := c.Clone()
	sh := s.lockOwner(string(cc.ID))
	return commitOutside(sh, func() (wal.Commit, error) {
		return s.updateContributionLocked(sh, cc, 0)
	})
}

func (s *Store) updateContributionLocked(sh *shard, c *model.Contribution, ver uint64) (wal.Commit, error) {
	old, ok := sh.contribs[c.ID]
	if !ok {
		return wal.Commit{}, fmt.Errorf("contribution %s: %w", c.ID, ErrNotFound)
	}
	if old.Task != c.Task || old.Worker != c.Worker {
		return wal.Commit{}, fmt.Errorf("contribution %s: task/worker are immutable: %w", c.ID, ErrInvalid)
	}
	if old.SubmittedAt != c.SubmittedAt {
		// The (SubmittedAt, ID) sort key moved: re-position the index
		// entry before swapping in the new value.
		sh.contribsByTask[c.Task] = removeContribID(sh.contribsByTask[c.Task], sh.contribs, old.SubmittedAt, c.ID)
		sh.contribs[c.ID] = c
		sh.contribsByTask[c.Task] = insertContribID(sh.contribsByTask[c.Task], sh.contribs, c.ID)
	} else {
		sh.contribs[c.ID] = c
	}
	v := s.allocVersion(ver)
	return sh.record(Mutation{
		Change: Change{
			Version: v, Op: OpUpdate, Entity: EntityContribution,
			Contribution: c.ID, Task: c.Task, Worker: c.Worker,
		},
		Contribution: c,
	})
}

// PeekContribution returns the stored contribution itself, nil when absent
// (see PeekWorker).
func (s *Store) PeekContribution(id model.ContributionID) *model.Contribution {
	sh := s.rlockOwner(string(id))
	c := sh.contribs[id]
	sh.mu.RUnlock()
	return c
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
	return s.contributionsSlice(false, nil)
}

func (s *Store) contributionsSlice(parallel bool, held []*shard) []*model.Contribution {
	shs, release := held, func() {}
	if shs == nil {
		shs, release = s.rlockView()
	}
	per := make([][]*model.Contribution, len(shs))
	gather := func(i int) {
		sh := shs[i]
		out := make([]*model.Contribution, 0, len(sh.contribs))
		for _, c := range sh.contribs {
			out = append(out, c)
		}
		sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
		for k, c := range out {
			out[k] = c.Clone()
		}
		per[i] = out
	}
	if parallel {
		par.Do(len(shs), 0, gather)
	} else {
		for i := range shs {
			gather(i)
		}
	}
	release()
	return mergeSorted(per, func(a, b *model.Contribution) bool { return a.ID < b.ID })
}

// ContributionCount returns the number of contributions.
func (s *Store) ContributionCount() int {
	shs, release := s.rlockView()
	n := 0
	for _, sh := range shs {
		n += len(sh.contribs)
	}
	release()
	return n
}

// contribOrderLess is the (SubmittedAt, ID) read order of the per-task
// contribution listing.
func contribOrderLess(a, b *model.Contribution) bool {
	if a.SubmittedAt != b.SubmittedAt {
		return a.SubmittedAt < b.SubmittedAt
	}
	return a.ID < b.ID
}

// ContributionsByTask returns copies of the contributions to a task,
// ordered by submission time then id. Per-shard index runs are maintained
// in that order at insert time, so the read is a merge, not a sort.
func (s *Store) ContributionsByTask(id model.TaskID) []*model.Contribution {
	shs, release := s.rlockView()
	per := make([][]*model.Contribution, len(shs))
	for i, sh := range shs {
		ids := sh.contribsByTask[id]
		out := make([]*model.Contribution, len(ids))
		for k, cid := range ids {
			out[k] = sh.contribs[cid]
		}
		per[i] = out
	}
	release()
	for _, run := range per {
		for k, c := range run {
			run[k] = c.Clone()
		}
	}
	return mergeSorted(per, contribOrderLess)
}
