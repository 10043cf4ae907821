package store

import (
	"errors"
	"fmt"

	"repro/internal/model"
	"repro/internal/wal"
)

// Binary checkpoint snapshot. A snapshot is a compacted changelog — the
// inserts that would rebuild the store — so its file is one WAL segment
// image (wal.AppendFrame frames, each CRC-checked, read back through
// wal.SegmentReader) whose records use the changelog's own entity encoding
// (walcodec.go); there is no second entity codec.
//
//	frame key 0     [skills][requester, worker, task, contribution counts]
//	frame key 1..N  encodeMutation of one entity's insert (epoch 0), tables
//	                in load order: requesters, workers, tasks, contributions
//
// Keys count the records, so a dropped, repeated or reordered frame is
// detected as surely as a corrupt one, and the header's counts make a file
// cut at a frame boundary an error rather than a smaller store.

// insertChange is the changelog header of inserting m's entity — the only
// header a snapshot record may carry.
func insertChange(m Mutation) Change {
	c := Change{Version: m.Change.Version, Entity: m.Change.Entity}
	switch c.Entity {
	case EntityWorker:
		c.Worker = m.Worker.ID
	case EntityRequester:
		c.Requester = m.Requester.ID
	case EntityTask:
		c.Task, c.Requester = m.Task.ID, m.Task.Requester
	case EntityContribution:
		c.Contribution, c.Task, c.Worker = m.Contribution.ID, m.Contribution.Task, m.Contribution.Worker
	}
	return c
}

// encodeSnapshotFrames renders snap as a segment image (layout above).
func encodeSnapshotFrames(snap *model.Snapshot) []byte {
	rec := encodeStrings(nil, snap.Skills)
	for _, n := range []int{len(snap.Requesters), len(snap.Workers), len(snap.Tasks), len(snap.Contributions)} {
		rec = wal.AppendUvarint(rec, uint64(n))
	}
	out := wal.AppendFrame(nil, 0, rec)
	key := uint64(0)
	put := func(m Mutation) {
		key++
		m.Change.Version = key
		m.Change = insertChange(m)
		rec = encodeMutation(rec[:0], m, snapshotEpoch)
		out = wal.AppendFrame(out, key, rec)
	}
	for _, r := range snap.Requesters {
		put(Mutation{Change: Change{Entity: EntityRequester}, Requester: r})
	}
	for _, w := range snap.Workers {
		put(Mutation{Change: Change{Entity: EntityWorker}, Worker: w})
	}
	for _, t := range snap.Tasks {
		put(Mutation{Change: Change{Entity: EntityTask}, Task: t})
	}
	for _, c := range snap.Contributions {
		put(Mutation{Change: Change{Entity: EntityContribution}, Contribution: c})
	}
	return out
}

// minFrameBytes is the smallest frame: header, a one-byte key, and a
// mutation's fixed fields. It bounds the header's counts before anything is
// allocated from them.
const minFrameBytes = 8 + 1 + 7

// decodeSnapshotFrames parses an image written by encodeSnapshotFrames. Any
// damage — a failed frame CRC, a missing or extra record, a record in the
// wrong table, a non-canonical encoding — is an error; it never returns a
// partial snapshot.
func decodeSnapshotFrames(data []byte) (*model.Snapshot, error) {
	r := wal.NewSegmentReader(data)
	key, payload, err := r.Next()
	if err != nil || key != 0 {
		return nil, errors.New("store: snapshot: missing or damaged header frame")
	}
	d := wal.NewDec(payload)
	snap := &model.Snapshot{Skills: decodeStrings(d)}
	var counts [4]uint64
	for i := range counts {
		if counts[i] = d.Uvarint(); counts[i] > uint64(len(data)/minFrameBytes) {
			d.Fail()
		}
	}
	if !d.Done() {
		return nil, errors.New("store: snapshot: malformed header frame")
	}
	snap.Requesters = make([]*model.Requester, 0, counts[0])
	snap.Workers = make([]*model.Worker, 0, counts[1])
	snap.Tasks = make([]*model.Task, 0, counts[2])
	snap.Contributions = make([]*model.Contribution, 0, counts[3])

	next := uint64(1)
	for table, entity := range []Entity{EntityRequester, EntityWorker, EntityTask, EntityContribution} {
		for n := counts[table]; n > 0; n-- {
			key, payload, err := r.Next()
			if err != nil || key != next {
				return nil, fmt.Errorf("store: snapshot: record %d missing or damaged", next)
			}
			m, err := decodeMutation(key, payload, snapshotEpoch)
			if err != nil {
				return nil, fmt.Errorf("store: snapshot: %w", err)
			}
			if m.Change.Entity != entity || m.Change != insertChange(m) {
				return nil, fmt.Errorf("store: snapshot: record %d is not a %s insert", next, entity)
			}
			switch entity {
			case EntityRequester:
				snap.Requesters = append(snap.Requesters, m.Requester)
			case EntityWorker:
				snap.Workers = append(snap.Workers, m.Worker)
			case EntityTask:
				snap.Tasks = append(snap.Tasks, m.Task)
			case EntityContribution:
				snap.Contributions = append(snap.Contributions, m.Contribution)
			}
			next++
		}
	}
	if !r.Clean() {
		return nil, errors.New("store: snapshot: bytes after the last record")
	}
	return snap, nil
}
