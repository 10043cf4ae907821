package store

// Routing. An id belongs to the shard its FNV-1a hash selects modulo the
// store's width. The width and the shard slice are fixed when the store is
// built (a durable store reopens at its manifest's width), so routing reads
// plain fields and every id keeps its shard for the store's lifetime.

// shardIndex routes an id to its owning shard. When the width is a power of
// two, h % n == h & (n-1), so routing skips the integer division.
func (s *Store) shardIndex(id string) int {
	h := fnv64a(id)
	if s.masked {
		return int(h & s.mask)
	}
	return int(h % uint64(len(s.shards)))
}

// shardFor returns the shard owning id.
func (s *Store) shardFor(id string) *shard { return s.shards[s.shardIndex(id)] }

// lockOwner write-locks and returns the shard owning id. Writers hold at
// most one shard lock, which keeps them out of every deadlock cycle.
func (s *Store) lockOwner(id string) *shard {
	sh := s.shardFor(id)
	sh.mu.Lock()
	return sh
}

// rlockOwner read-locks and returns the shard owning id.
func (s *Store) rlockOwner(id string) *shard {
	sh := s.shardFor(id)
	sh.mu.RLock()
	return sh
}

// rlockView read-locks every shard, in index order, and returns the shards
// with the release function: a whole-store read that no writer can move
// under.
func (s *Store) rlockView() ([]*shard, func()) {
	for _, sh := range s.shards {
		sh.mu.RLock()
	}
	return s.shards, func() {
		for _, sh := range s.shards {
			sh.mu.RUnlock()
		}
	}
}
