package store

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/model"
	"repro/internal/wal"
)

// shard is one hash partition of the store: a full set of entity tables,
// one secondary index, and a changelog ring, guarded by its own
// RWMutex. Entities are assigned to shards by FNV-1a hash of their primary
// id, so each mutation touches exactly one shard's lock (plus read-only
// existence probes of referenced shards) and mutation throughput scales with
// the shard count instead of serialising on a single store-wide mutex.
//
// Index invariant: contribsByTask, the one secondary index, lists only
// contributions owned by this shard, sorted by (SubmittedAt, ID). Sorting
// is maintained at insert time so ContributionsByTask merges pre-sorted
// per-shard runs instead of re-sorting per call.
//
// Every mutation is recorded twice under the shard's write lock: into the
// always-present in-memory changelog ring (what ShardChangesSince and the
// incremental auditors read) and, on durable stores, into the shard's
// write-ahead log — change plus entity post-image, in segmented files
// (internal/wal). Appending under the lock is what keeps the on-disk
// record order identical to the version order.
type shard struct {
	mu sync.RWMutex

	workers    map[model.WorkerID]*model.Worker
	requesters map[model.RequesterID]*model.Requester
	tasks      map[model.TaskID]*model.Task
	contribs   map[model.ContributionID]*model.Contribution

	contribsByTask map[model.TaskID][]model.ContributionID

	// applied is the highest global version recorded in this shard — the
	// shard's watermark. Every mutation with a version at or below applied
	// is fully visible to readers that acquire mu after the watermark was
	// read.
	applied uint64

	// ring is the in-memory changelog; wal, when non-nil, is the durable
	// write-ahead log the same stream is teed into, and scratch its
	// record-encoding buffer.
	ring    changeRing
	wal     *wal.Writer
	scratch []byte
}

func newShard(clogCap int) *shard {
	return &shard{
		workers:        make(map[model.WorkerID]*model.Worker),
		requesters:     make(map[model.RequesterID]*model.Requester),
		tasks:          make(map[model.TaskID]*model.Task),
		contribs:       make(map[model.ContributionID]*model.Contribution),
		contribsByTask: make(map[model.TaskID][]model.ContributionID),
		ring:           changeRing{cap: clogCap},
	}
}

// record tees a mutation into the shard's ring and WAL under the
// already-held write lock and advances the shard watermark. The in-memory
// state is already applied when record runs; a WAL failure therefore
// leaves the change live in memory but possibly not on disk, and the
// returned error tells the mutator durability was not achieved. The
// returned ticket is the WAL's group-commit ack: mutators Wait on it
// after releasing the shard lock, so the batch write and its fsync never
// run under the lock. AppendAsync copies the frame into its batch, so
// scratch is free for the next record as soon as it returns.
func (sh *shard) record(m Mutation) (wal.Commit, error) {
	sh.applied = m.Change.Version
	sh.ring.record(m.Change)
	if sh.wal == nil {
		return wal.Commit{}, nil
	}
	sh.scratch = encodeMutation(sh.scratch[:0], m, walEpoch)
	ack, err := sh.wal.AppendAsync(m.Change.Version, sh.scratch)
	if err != nil {
		return wal.Commit{}, fmt.Errorf("store: wal append: %w", err)
	}
	return ack, nil
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
