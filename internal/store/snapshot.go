package store

import (
	"fmt"

	"repro/internal/model"
)

// Snapshot captures the entire store as a serialisable model.Snapshot
// under one consistent cut, in the JSON interchange form of
// model.Snapshot.Encode.
func (s *Store) Snapshot() *model.Snapshot {
	s.mu.RLock()
	snap := s.snapshotLocked()
	s.mu.RUnlock()
	return &model.Snapshot{
		Skills:        snap.Skills,
		Workers:       cloneAll(snap.Workers, (*model.Worker).Clone),
		Requesters:    cloneAll(snap.Requesters, func(r *model.Requester) *model.Requester { c := *r; return &c }),
		Tasks:         cloneAll(snap.Tasks, (*model.Task).Clone),
		Contributions: cloneAll(snap.Contributions, (*model.Contribution).Clone),
	}
}

// snapshotLocked lists the stored entities themselves, each table sorted by
// id, under the held lock: read-only, for Checkpoint to encode and Snapshot
// to copy.
func (s *Store) snapshotLocked() *model.Snapshot {
	return &model.Snapshot{
		Skills:        s.universe.Names(),
		Workers:       sortedValues(s.workers),
		Requesters:    sortedValues(s.requesters),
		Tasks:         sortedValues(s.tasks),
		Contributions: sortedValues(s.contribs),
	}
}

// FromSnapshot builds a fully-indexed store from a snapshot, validating
// every entity and referential link on the way in. The store keeps clones,
// so snap stays the caller's.
func FromSnapshot(snap *model.Snapshot) (*Store, error) {
	return adoptSnapshot(&model.Snapshot{
		Skills:        snap.Skills,
		Workers:       cloneAll(snap.Workers, (*model.Worker).Clone),
		Requesters:    snap.Requesters, // PutRequester copies
		Tasks:         cloneAll(snap.Tasks, (*model.Task).Clone),
		Contributions: cloneAll(snap.Contributions, (*model.Contribution).Clone),
	})
}

// adoptSnapshot is FromSnapshot storing the snapshot's workers, tasks and
// contributions themselves: their skills must be packed, and nobody may
// touch them afterwards (see putWorkerLocked). Recovery (openSnapshot)
// hands it what it just decoded.
func adoptSnapshot(snap *model.Snapshot) (*Store, error) {
	u, err := snap.Universe()
	if err != nil {
		return nil, fmt.Errorf("store: snapshot universe: %w", err)
	}
	s := New(u)
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
