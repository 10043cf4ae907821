package store

import (
	"fmt"

	"repro/internal/model"
)

// Reshard migrates the store to a new shard width under live traffic — the
// online split (n > current width) or merge (n < current width). The
// protocol, built on the epoch-stamped route tables of routetable.go:
//
//  1. Build the successor epoch's shards (with fresh WAL sinks on a
//     durable store) and publish them through Store.next. From this point
//     writers and readers know a migration is in flight: routing falls
//     through retired shards, cross-shard readers pin both tables.
//  2. Hand off each current-epoch shard in index order: under its write
//     lock, move every entity and retained changelog record to
//     its successor-table owner, then mark the shard retired. Writers to a
//     migrating shard block only for that shard's handoff; traffic to
//     every other shard proceeds untouched.
//  3. Promote the successor to Store.route, clear Store.next, and append
//     the width change to the epoch log (and, on a durable store, the
//     manifest — so Open recovers across the reshard boundary by merging
//     every epoch's WAL directories).
//
// Lock order: a handoff holds one current-epoch shard plus at most one
// successor shard at a time, always current before successor — the same
// order rlockView acquires its view in — and plain writers never hold two
// locks, so the wait-for graph stays acyclic.
//
// Reshard serialises with Checkpoint and Close on ckptMu and with itself;
// calling it with the current width is a no-op (identical hash routing).
func (s *Store) Reshard(n int) error {
	if n < 1 {
		n = 1
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	rt := s.table()
	if n == rt.width() {
		return nil
	}
	epoch := rt.epoch + 1
	clogCap := int(s.clogCap.Load())
	shs := make([]*shard, n)
	for i := range shs {
		shs[i] = newShard(s.universe.Size(), clogCap, epoch)
		if s.dir != "" {
			sink, err := newWALSink(walShardDir(s.dir, epoch, i), s.walOpts)
			if err != nil {
				for _, sh := range shs[:i] {
					sh.wal.Close()
				}
				return fmt.Errorf("store: reshard: %w", err)
			}
			shs[i].wal = sink
		}
	}
	nt := newRouteTable(epoch, shs)
	s.next.Store(nt)

	// A handoff fails only on a WAL sync/close error while sealing the
	// retiring shard's sink; in-memory migration of that shard has
	// already completed. Every shard must still hand off before the
	// cutover — stopping early would strand entities in unrouted shards —
	// so the loop runs to completion and the first seal error is reported
	// after the store is consistently on the new epoch.
	var sealErr error
	for _, old := range rt.shards {
		if err := s.handoff(old, nt); err != nil && sealErr == nil {
			sealErr = err
		}
	}
	if err := s.finishCutover(rt, nt); err != nil {
		return err
	}
	if sealErr != nil {
		return fmt.Errorf("store: reshard: %w", sealErr)
	}
	return nil
}

// finishCutover promotes the successor table and records the epoch change
// (in memory and, for durable stores, in the manifest). Caller holds
// ckptMu; every shard of rt must already be retired.
func (s *Store) finishCutover(rt, nt *routeTable) error {
	s.route.Store(nt)
	s.next.Store(nil)
	ec := EpochChange{Epoch: nt.epoch, Width: nt.width(), Version: s.version.Load()}
	s.epochs = append(s.epochs, ec)
	if s.dir == "" {
		return nil
	}
	man, err := ReadManifest(s.dir)
	if err != nil {
		return fmt.Errorf("store: reshard: %w", err)
	}
	man.Shards = nt.width()
	man.Epoch = nt.epoch
	man.Epochs = append(man.Epochs, ec)
	// The old watermarks and low-water marks described the retired
	// layout; dropping them sends the next Open down the width-change
	// recovery path (rings reset to the snapshot version, saved audit
	// cursors fall back to a rescan).
	man.Watermarks, man.LowWater = nil, nil
	if err := writeManifest(s.dir, man); err != nil {
		return fmt.Errorf("store: reshard: %w", err)
	}
	return nil
}

// handoff migrates one current-epoch shard into the successor table: every
// entity map, secondary index entry, and retained changelog
// record moves to its new owner, then the shard is marked retired and its
// memory released. Runs under the retiring shard's write lock, taking each
// touched successor shard's lock one at a time (current-epoch before
// successor-epoch, matching rlockView's order).
func (s *Store) handoff(old *shard, nt *routeTable) error {
	old.mu.Lock()
	defer old.mu.Unlock()

	// Group everything by successor-table owner first, then land each
	// target group under a single lock acquisition. Per-target changelog
	// groups stay version-sorted because the source ring is.
	type group struct {
		workers  []*model.Worker
		reqs     []*model.Requester
		tasks    []*model.Task
		contribs []*model.Contribution
		changes  []Change
	}
	groups := make(map[int]*group)
	at := func(i int) *group {
		g := groups[i]
		if g == nil {
			g = &group{}
			groups[i] = g
		}
		return g
	}
	for id, w := range old.workers {
		g := at(nt.index(string(id)))
		g.workers = append(g.workers, w)
	}
	for id, r := range old.requesters {
		g := at(nt.index(string(id)))
		g.reqs = append(g.reqs, r)
	}
	for id, t := range old.tasks {
		g := at(nt.index(string(id)))
		g.tasks = append(g.tasks, t)
	}
	for id, c := range old.contribs {
		g := at(nt.index(string(id)))
		g.contribs = append(g.contribs, c)
	}
	for _, c := range old.ring.changesAfter(0) {
		g := at(nt.index(changePrimaryID(c)))
		g.changes = append(g.changes, c)
	}

	for i := 0; i < nt.width(); i++ {
		g := groups[i]
		if g == nil {
			continue
		}
		t := nt.shards[i]
		t.mu.Lock()
		for _, w := range g.workers {
			t.workers[w.ID] = w
			for _, k := range w.Skills.Indices() {
				t.workersBySkill[k] = insertSortedID(t.workersBySkill[k], w.ID)
			}
		}
		for _, r := range g.reqs {
			t.requesters[r.ID] = r
		}
		for _, tk := range g.tasks {
			t.tasks[tk.ID] = tk
			for _, k := range tk.Skills.Indices() {
				t.tasksBySkill[k] = insertSortedID(t.tasksBySkill[k], tk.ID)
			}
			t.tasksByReq[tk.Requester] = insertSortedID(t.tasksByReq[tk.Requester], tk.ID)
		}
		for _, c := range g.contribs {
			t.contribs[c.ID] = c
		}
		for _, c := range g.contribs {
			t.contribsByTask[c.Task] = insertContribID(t.contribsByTask[c.Task], t.contribs, c.ID)
			t.contribsByWorker[c.Worker] = insertContribID(t.contribsByWorker[c.Worker], t.contribs, c.ID)
		}
		t.ring.merge(g.changes, old.ring.droppedMax)
		if old.applied > t.applied {
			// The watermark promise ("every owned mutation at or below
			// applied is visible") survives raising it past versions the
			// target never owned.
			t.applied = old.applied
		}
		t.mu.Unlock()
	}

	// Seal the retiring shard's WAL: its records stay on disk for
	// recovery (Open merges every epoch's directories) until the next
	// checkpoint retires the directory itself.
	var sealErr error
	if old.wal != nil {
		if err := old.wal.Sync(); err != nil {
			sealErr = err
		}
		if err := old.wal.Close(); err != nil && sealErr == nil {
			sealErr = err
		}
		old.wal = nil
	}

	old.retired = true
	if old.applied > old.ring.droppedMax {
		old.ring.droppedMax = old.applied
	}
	old.ring.buf, old.ring.start, old.ring.n = nil, 0, 0
	// Release the migrated state. Index slices are re-made empty (not
	// nil'd) so a reader that reaches a retired shard before checking the
	// flag still indexes safely.
	old.workers, old.requesters, old.tasks, old.contribs = nil, nil, nil, nil
	old.workersBySkill = make([][]model.WorkerID, len(old.workersBySkill))
	old.tasksBySkill = make([][]model.TaskID, len(old.tasksBySkill))
	old.tasksByReq, old.contribsByTask, old.contribsByWorker = nil, nil, nil
	return sealErr
}
