package store

import (
	"fmt"

	"repro/internal/model"
)

// Snapshot captures the entire store as a serialisable model.Snapshot
// under one consistent cut — what Checkpoint writes, in the JSON
// interchange form of model.Snapshot.Encode.
func (s *Store) Snapshot() *model.Snapshot {
	shs, release := s.rlockView()
	defer release()
	return s.snapshot(shs)
}

// snapshot gathers the full state under a held whole-key-space view (the
// caller — Checkpoint — pins the shard locks for a consistent cut across
// all four tables).
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
// count. The store keeps clones, so snap stays the caller's.
func FromSnapshotSharded(snap *model.Snapshot, shards int) (*Store, error) {
	return adoptSnapshot(&model.Snapshot{
		Skills:        snap.Skills,
		Workers:       cloneAll(snap.Workers, (*model.Worker).Clone),
		Requesters:    snap.Requesters, // PutRequester copies
		Tasks:         cloneAll(snap.Tasks, (*model.Task).Clone),
		Contributions: cloneAll(snap.Contributions, (*model.Contribution).Clone),
	}, shards)
}

// adoptSnapshot is FromSnapshotSharded storing the snapshot's workers,
// tasks and contributions themselves: their skills must be packed, and
// nobody may touch them afterwards (see putWorkerLocked). Recovery
// (openSnapshot) hands it what it just decoded.
func adoptSnapshot(snap *model.Snapshot, shards int) (*Store, error) {
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
	for _, load := range []func() error{
		func() error { return s.validWorkers(snap.Workers) },
		func() error { return s.adoptWorkers(snap.Workers) },
		func() error { return s.validTasks(snap.Tasks) },
		func() error { return s.adoptTasks(snap.Tasks) },
		func() error { return s.validContributions(snap.Contributions) },
		func() error { return s.adoptContributions(snap.Contributions) },
	} {
		if err := load(); err != nil {
			return nil, fmt.Errorf("store: load snapshot: %w", err)
		}
	}
	return s, nil
}
