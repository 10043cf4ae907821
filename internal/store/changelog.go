package store

import "repro/internal/model"

// Op enumerates the mutation kinds recorded in the changelog.
type Op uint8

// Mutation kinds.
const (
	OpInsert Op = iota
	OpUpdate
)

// String renders the op for logs.
func (o Op) String() string {
	if o == OpUpdate {
		return "update"
	}
	return "insert"
}

// Entity enumerates the store's tables.
type Entity uint8

// Entity tables.
const (
	EntityWorker Entity = iota
	EntityRequester
	EntityTask
	EntityContribution
)

// String renders the entity kind for logs.
func (e Entity) String() string {
	switch e {
	case EntityWorker:
		return "worker"
	case EntityRequester:
		return "requester"
	case EntityTask:
		return "task"
	case EntityContribution:
		return "contribution"
	default:
		return "unknown"
	}
}

// Change is one mutation record in the store's changelog. Every successful
// mutation appends exactly one Change — to the changelog ring of the shard
// owning the mutated entity — whose Version is the value of the global
// sequencer after the mutation. Versions are globally dense: merging every
// shard's log yields consecutive integers. Id fields beyond the mutated
// entity's own are the touched neighbours: a contribution change carries
// its task and worker, a task change its requester. Incremental consumers
// (internal/audit) use them to compute dirty sets without re-reading the
// entity.
type Change struct {
	Version uint64
	Op      Op
	Entity  Entity

	Worker       model.WorkerID
	Requester    model.RequesterID
	Task         model.TaskID
	Contribution model.ContributionID
}

// changePrimaryID returns the mutated entity's own id — the shard-routing
// key of the change.
func changePrimaryID(c Change) string {
	switch c.Entity {
	case EntityWorker:
		return string(c.Worker)
	case EntityRequester:
		return string(c.Requester)
	case EntityTask:
		return string(c.Task)
	default:
		return string(c.Contribution)
	}
}

// DefaultChangelogCap is the number of mutation records retained per shard
// by a new store. At ~100 bytes per record the default bounds changelog
// memory to a few megabytes per shard while covering far more history than
// any audit cadence needs; readers that fall further behind get a
// truncation signal and must fall back to a full scan.
const DefaultChangelogCap = 1 << 16

// SetChangelogCap resizes every shard's retention window to at most n
// records (n < 1 disables retention entirely: every ShardChangesSince for a
// past version reports truncation). Existing records beyond the new cap are
// dropped oldest-first per shard.
func (s *Store) SetChangelogCap(n int) {
	for _, sh := range s.shards {
		sh.setChangelogCap(n)
	}
}

// ShardChangesSince returns the changes recorded in one shard after version
// v, oldest first — the per-shard cursor API. Versions within the result
// are strictly increasing but not consecutive (the global sequencer
// interleaves shards). The boolean reports completeness for this shard:
// false means its ring dropped a record past v, or the index names no
// shard — an out-of-range index reads as total truncation, pushing
// cursor-based consumers onto their rescan path instead of panicking.
func (s *Store) ShardChangesSince(shard int, v uint64) ([]Change, bool) {
	if shard < 0 || shard >= len(s.shards) {
		return nil, false
	}
	sh := s.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.ring.droppedMax > v {
		return nil, false
	}
	return sh.changesAfter(v), true
}

// ShardVersion returns the shard's watermark: the highest version recorded
// in it (0 for an out-of-range index). Every mutation owned by the shard
// with a version at or below the watermark is visible to reads issued
// after the call.
func (s *Store) ShardVersion(shard int) uint64 {
	if shard < 0 || shard >= len(s.shards) {
		return 0
	}
	sh := s.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.applied
}
