package store

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/par"
)

// Snapshot captures the entire store as a serialisable model.Snapshot.
// Workers, tasks, and contributions — the tables that grow with traffic —
// are gathered shard-parallel (each shard's entities are cloned and sorted
// on its own goroutine, then merged), so snapshotting a large sharded
// store scales with cores; the small requester table is gathered serially.
func (s *Store) Snapshot() *model.Snapshot {
	shs, release := s.rlockView()
	defer release()
	return s.snapshot(shs)
}

// snapshot gathers the full state under a held whole-key-space view (the
// caller — Snapshot or Checkpoint — pins the shard locks for a consistent
// cut across all four tables).
func (s *Store) snapshot(held []*shard) *model.Snapshot {
	return &model.Snapshot{
		Skills:        s.universe.Names(),
		Workers:       s.workersSlice(true, held),
		Requesters:    s.requestersSlice(held),
		Tasks:         s.tasksSlice(true, held),
		Contributions: s.contributionsSlice(true, held),
	}
}

// FromSnapshot builds a fully-indexed store from a snapshot, validating
// every entity and referential link on the way in. Loading uses the bulk
// shard-parallel insert paths.
func FromSnapshot(snap *model.Snapshot) (*Store, error) {
	return FromSnapshotSharded(snap, DefaultShardCount)
}

// FromSnapshotSharded is FromSnapshot with an explicit hash-partition
// count (recovery rebuilds a checkpointed store at its manifest's width).
func FromSnapshotSharded(snap *model.Snapshot, shards int) (*Store, error) {
	u, err := snap.Universe()
	if err != nil {
		return nil, fmt.Errorf("store: snapshot universe: %w", err)
	}
	s := NewSharded(u, shards)
	for _, r := range snap.Requesters {
		if err := s.PutRequester(r); err != nil {
			return nil, fmt.Errorf("store: load snapshot: %w", err)
		}
	}
	if err := s.BulkPutWorkers(snap.Workers); err != nil {
		return nil, fmt.Errorf("store: load snapshot: %w", err)
	}
	if err := s.BulkPutTasks(snap.Tasks); err != nil {
		return nil, fmt.Errorf("store: load snapshot: %w", err)
	}
	if err := s.BulkPutContributions(snap.Contributions); err != nil {
		return nil, fmt.Errorf("store: load snapshot: %w", err)
	}
	return s, nil
}

// skillBucket merges the per-shard skill-index runs for one skill into a
// single id-sorted slice of stored worker pointers. Caller must hold read
// locks over the given whole-key-space view.
func skillBucket(shs []*shard, skill int) []*model.Worker {
	per := make([][]*model.Worker, 0, len(shs))
	for _, sh := range shs {
		ids := sh.workersBySkill[skill]
		if len(ids) == 0 {
			continue
		}
		ws := make([]*model.Worker, len(ids))
		for k, id := range ids {
			ws[k] = sh.workers[id]
		}
		per = append(per, ws)
	}
	return mergeSorted(per, func(a, b *model.Worker) bool { return a.ID < b.ID })
}

// CandidateWorkerPairs returns worker-id pairs that share at least one
// skill, using the inverted index to avoid the full O(n²) cross product.
// Each pair appears once with the lexicographically smaller id first.
// Workers with empty skill vectors never appear (they can share no skill);
// callers that must compare skill-less workers should fall back to the
// exhaustive scan.
//
// This is the index-pruned candidate generation benchmarked against the
// exhaustive scan in experiment E7. Deduplication is by ownership — a pair
// is emitted only from the bucket of the pair's first shared skill — which
// avoids a per-pair hash map on the hot path. Ownership also makes the
// buckets independent, so generation fans out one goroutine per skill
// bucket on a bounded pool; per-bucket outputs are concatenated in skill
// order, keeping the result deterministic regardless of scheduling. The
// scan holds every shard's read lock for the duration, like the old
// single-lock scan held its one lock.
func (s *Store) CandidateWorkerPairs() [][2]model.WorkerID {
	shs, release := s.rlockView()
	defer release()
	nSkills := s.universe.Size()
	perSkill := make([][][2]model.WorkerID, nSkills)
	par.For(nSkills, 0, func(skill int) {
		bucket := skillBucket(shs, skill)
		if len(bucket) < 2 {
			return
		}
		var out [][2]model.WorkerID
		for i := 0; i < len(bucket); i++ {
			wi := bucket[i]
			for j := i + 1; j < len(bucket); j++ {
				wj := bucket[j]
				if firstSharedSkill(wi.Skills, wj.Skills) != skill {
					continue // another bucket owns this pair
				}
				a, b := wi.ID, wj.ID
				if b < a {
					a, b = b, a
				}
				out = append(out, [2]model.WorkerID{a, b})
			}
		}
		perSkill[skill] = out
	})
	var out [][2]model.WorkerID
	for _, pairs := range perSkill {
		out = append(out, pairs...)
	}
	return out
}

// firstSharedSkill returns the lowest index set in both vectors, or -1.
func firstSharedSkill(a, b model.SkillVector) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] && b[i] {
			return i
		}
	}
	return -1
}

// CandidateTaskPairs returns task-id pairs sharing at least one required
// skill and posted by different requesters — the candidate set for Axiom 2
// (requester fairness applies across distinct requesters).
func (s *Store) CandidateTaskPairs() [][2]model.TaskID {
	shs, release := s.rlockView()
	defer release()
	var out [][2]model.TaskID
	bucket := make([]*model.Task, 0, 64)
	perShard := make([][]*model.Task, 0, len(shs))
	for skill := 0; skill < s.universe.Size(); skill++ {
		perShard = perShard[:0]
		for _, sh := range shs {
			ids := sh.tasksBySkill[skill]
			if len(ids) == 0 {
				continue
			}
			ts := make([]*model.Task, len(ids))
			for k, id := range ids {
				ts[k] = sh.tasks[id]
			}
			perShard = append(perShard, ts)
		}
		bucket = append(bucket[:0], mergeSorted(perShard, func(a, b *model.Task) bool { return a.ID < b.ID })...)
		for i := 0; i < len(bucket); i++ {
			ti := bucket[i]
			for j := i + 1; j < len(bucket); j++ {
				tj := bucket[j]
				if ti.Requester == tj.Requester {
					continue
				}
				if firstSharedSkill(ti.Skills, tj.Skills) != skill {
					continue
				}
				a, b := ti.ID, tj.ID
				if b < a {
					a, b = b, a
				}
				out = append(out, [2]model.TaskID{a, b})
			}
		}
	}
	return out
}
