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
// shard's log yields consecutive integers, which is how ChangesSince tells
// a complete suffix from one still missing in-flight appends. Id fields
// beyond the mutated entity's own are the touched neighbours: a
// contribution change carries its task and worker, a task change its
// requester. Incremental consumers (internal/audit) use them to compute
// dirty sets without re-reading the entity.
type Change struct {
	Version uint64
	// Epoch is the route-table generation that routed this mutation (see
	// routetable.go); it records which shard layout the change was
	// committed under. Routing metadata only: two stores reaching the
	// same state through different reshard histories carry different
	// epochs on otherwise identical changes.
	Epoch  uint64
	Op     Op
	Entity Entity

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
// records (n < 1 disables retention entirely: every ChangesSince for a past
// version reports truncation). Existing records beyond the new cap are
// dropped oldest-first per shard; shards created by a later Reshard inherit
// the new cap.
func (s *Store) SetChangelogCap(n int) {
	s.clogCap.Store(int64(n))
	_, _, shs := s.view()
	for _, sh := range shs {
		sh.setChangelogCap(n)
	}
}

// ChangesSince returns every mutation recorded after version v, merged
// across shards into one version-ordered, gap-free stream, oldest first.
// The boolean reports completeness: false means at least one shard's ring
// has dropped a record past v (the caller missed changes and must fall back
// to a full scan). A v at or beyond the current version returns (nil, true).
//
// Under concurrent mutation the merged suffix can transiently miss an
// allocated-but-not-yet-appended version; the result is trimmed at the
// first such gap, so what is returned is always a dense prefix and the
// trimmed-off tail is re-delivered by the next call. Shard-local consumers
// that track one cursor per shard (internal/audit) should prefer
// ShardChangesSince, which needs no cross-shard merge.
func (s *Store) ChangesSince(v uint64) ([]Change, bool) {
	shs, release := s.rlockView()
	per := make([][]Change, len(shs))
	for i, sh := range shs {
		// A retired shard's records were merged into the successor
		// epoch's rings at handoff (truncation signal included), so it
		// contributes nothing here.
		if sh.retired {
			continue
		}
		if sh.ring.droppedMax > v {
			release()
			return nil, false
		}
		per[i] = sh.changesAfter(v)
	}
	release()
	merged := mergeSorted(per, func(a, b Change) bool { return a.Version < b.Version })
	for i := range merged {
		if merged[i].Version != v+1+uint64(i) {
			merged = merged[:i]
			break
		}
	}
	if len(merged) == 0 {
		return nil, true
	}
	return merged, true
}

// ShardChangesSince returns the changes recorded in one shard after version
// v, oldest first — the per-shard cursor API. Versions within the result
// are strictly increasing but not consecutive (the global sequencer
// interleaves shards). The boolean reports completeness for this shard:
// false means its ring dropped a record past v, or the index no longer
// names a live shard — an out-of-range index or a shard retired by a
// concurrent Reshard reads as total truncation, pushing cursor-based
// consumers onto their rescan/remap path instead of panicking.
func (s *Store) ShardChangesSince(shard int, v uint64) ([]Change, bool) {
	rt := s.table()
	if shard < 0 || shard >= rt.width() {
		return nil, false
	}
	sh := rt.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.retired || sh.ring.droppedMax > v {
		return nil, false
	}
	return sh.changesAfter(v), true
}

// ShardVersion returns the shard's watermark: the highest version recorded
// in it (0 for an out-of-range index). Every mutation owned by the shard
// with a version at or below the watermark is visible to reads issued
// after the call.
func (s *Store) ShardVersion(shard int) uint64 {
	rt := s.table()
	if shard < 0 || shard >= rt.width() {
		return 0
	}
	sh := rt.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.applied
}
