package store

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/model"
	"repro/internal/wal"
)

// shard is one hash partition of the store: a full set of entity tables,
// secondary indexes, and a changelog ring, guarded by its own
// RWMutex. Entities are assigned to shards by FNV-1a hash of their primary
// id, so each mutation touches exactly one shard's lock (plus read-only
// existence probes of referenced shards) and mutation throughput scales with
// the shard count instead of serialising on a single store-wide mutex.
//
// Index invariants: workersBySkill / tasksBySkill / tasksByReq entries are
// sorted ascending by id; contribsByTask / contribsByWorker entries are
// sorted by (SubmittedAt, ID). Sorting is maintained at insert time so the
// hot read paths merge pre-sorted runs instead of re-sorting per call.
// Every index lists only entities owned by this shard; store-level readers
// merge across shards.
//
// Every mutation is recorded through two LogSinks under the shard's write
// lock: the always-present in-memory changelog ring (what ChangesSince and
// the incremental auditors read) and, on durable stores, a write-ahead sink
// teeing the same stream — change plus entity post-image — to segmented
// files (internal/wal). Appending under the lock is what keeps the on-disk
// record order identical to the version order.
type shard struct {
	mu sync.RWMutex

	// epoch is the route-table generation this shard belongs to; changes
	// recorded here are stamped with it. retired marks a shard whose
	// contents were handed off to the next epoch's layout by Reshard:
	// routing falls through it (see lockOwner) and cross-shard readers
	// skip it. Both are written only under mu.
	epoch   uint64
	retired bool

	workers    map[model.WorkerID]*model.Worker
	requesters map[model.RequesterID]*model.Requester
	tasks      map[model.TaskID]*model.Task
	contribs   map[model.ContributionID]*model.Contribution

	workersBySkill   [][]model.WorkerID
	tasksBySkill     [][]model.TaskID
	tasksByReq       map[model.RequesterID][]model.TaskID
	contribsByTask   map[model.TaskID][]model.ContributionID
	contribsByWorker map[model.WorkerID][]model.ContributionID

	// applied is the highest global version recorded in this shard — the
	// shard's watermark. Every mutation with a version at or below applied
	// is fully visible to readers that acquire mu after the watermark was
	// read.
	applied uint64

	// ring is the in-memory changelog sink; wal, when non-nil, is the
	// durable write-ahead sink the same stream is teed into.
	ring changeRing
	wal  LogSink
}

func newShard(skills, clogCap int, epoch uint64) *shard {
	return &shard{
		epoch:            epoch,
		workers:          make(map[model.WorkerID]*model.Worker),
		requesters:       make(map[model.RequesterID]*model.Requester),
		tasks:            make(map[model.TaskID]*model.Task),
		contribs:         make(map[model.ContributionID]*model.Contribution),
		workersBySkill:   make([][]model.WorkerID, skills),
		tasksBySkill:     make([][]model.TaskID, skills),
		tasksByReq:       make(map[model.RequesterID][]model.TaskID),
		contribsByTask:   make(map[model.TaskID][]model.ContributionID),
		contribsByWorker: make(map[model.WorkerID][]model.ContributionID),
		ring:             changeRing{cap: clogCap},
	}
}

// record tees a mutation into the shard's sinks under the already-held
// write lock and advances the shard watermark. The in-memory state is
// already applied when record runs; a WAL failure therefore leaves the
// change live in memory but possibly not on disk, and the returned error
// tells the mutator durability was not achieved. The returned ticket is
// the durable sink's group-commit ack: mutators Wait on it after
// releasing the shard lock, so the covering fsync never runs under the
// lock.
func (sh *shard) record(m Mutation) (wal.Commit, error) {
	sh.applied = m.Change.Version
	sh.ring.record(m.Change)
	if sh.wal != nil {
		ack, err := sh.wal.Append(m)
		if err != nil {
			return wal.Commit{}, fmt.Errorf("store: wal append: %w", err)
		}
		return ack, nil
	}
	return wal.Commit{}, nil
}

// setChangelogCap resizes this shard's retention window, dropping the oldest
// retained records when shrinking.
func (sh *shard) setChangelogCap(n int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.ring.setCap(n)
}

// changesAfter copies this shard's retained records with Version > v, oldest
// first, under the already-held read lock.
func (sh *shard) changesAfter(v uint64) []Change {
	return sh.ring.changesAfter(v)
}

// fnv64a hashes an id for shard routing.
func fnv64a(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// insertSortedID inserts id into an ascending id slice, preallocating only
// the single appended slot (no re-sort).
func insertSortedID[T ~string](ids []T, id T) []T {
	i := sort.Search(len(ids), func(k int) bool { return ids[k] >= id })
	ids = append(ids, id)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// removeSortedID removes id from an ascending id slice in place via binary
// search (the old linear-scan removeWorkerID).
func removeSortedID[T ~string](ids []T, id T) []T {
	i := sort.Search(len(ids), func(k int) bool { return ids[k] >= id })
	if i < len(ids) && ids[i] == id {
		return append(ids[:i], ids[i+1:]...)
	}
	return ids
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

// mergeSorted k-way merges pre-sorted runs into one sorted slice. The output
// is preallocated to the total length; with a single run the run is returned
// as-is (callers own the inputs).
func mergeSorted[T any](lists [][]T, less func(a, b T) bool) []T {
	nonEmpty := lists[:0:0]
	total := 0
	for _, l := range lists {
		if len(l) > 0 {
			nonEmpty = append(nonEmpty, l)
			total += len(l)
		}
	}
	switch len(nonEmpty) {
	case 0:
		return nil
	case 1:
		return nonEmpty[0]
	}
	out := make([]T, 0, total)
	idx := make([]int, len(nonEmpty))
	for len(out) < total {
		best := -1
		for li, l := range nonEmpty {
			if idx[li] >= len(l) {
				continue
			}
			if best < 0 || less(l[idx[li]], nonEmpty[best][idx[best]]) {
				best = li
			}
		}
		out = append(out, nonEmpty[best][idx[best]])
		idx[best]++
	}
	return out
}
