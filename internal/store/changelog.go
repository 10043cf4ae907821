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
// mutation appends exactly one Change whose Version is the value of the
// sequencer after the mutation, so the changelog is dense: consecutive
// integers in append order. Id fields beyond the mutated entity's own are
// the touched neighbours: a contribution change carries its task and
// worker, a task change its requester. Incremental consumers
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

// DefaultChangelogCap is the number of mutation records a new store
// retains. At ~100 bytes per record the default bounds changelog memory to
// a few megabytes while covering far more history than any audit cadence
// needs; readers that fall further behind get a truncation signal and
// must fall back to a full scan.
const DefaultChangelogCap = 1 << 16

// SetChangelogCap resizes the retention window to at most n records (n < 1
// disables retention entirely: every ChangesSince for a past version
// reports truncation). Existing records beyond the new cap are dropped
// oldest-first.
func (s *Store) SetChangelogCap(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ring.setCap(n)
}

// ChangesSince returns the changes recorded after version v, oldest first:
// consecutive versions from v+1 up to the store's version. The boolean
// reports completeness: false means the ring dropped a record past v, and
// a cursor-based consumer must rescan. A v at or beyond the current
// version returns (nil, true).
func (s *Store) ChangesSince(v uint64) ([]Change, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.ring.droppedMax > v {
		return nil, false
	}
	return s.ring.changesAfter(v), true
}

// ShardChangesSince is ChangesSince for shard 0, the store's one
// partition; any other index reads as total truncation. It is kept only
// because bench/ calls it; it leaves with one door.
func (s *Store) ShardChangesSince(shard int, v uint64) ([]Change, bool) {
	if shard != 0 {
		return nil, false
	}
	return s.ChangesSince(v)
}
