package store

import (
	"repro/internal/model"
	"repro/internal/wal"
)

// Mutation pairs one changelog record with the post-image of the mutated
// entity — everything a durable sink needs to replay the change on a cold
// store. Exactly one entity pointer is set, matching Change.Entity; the
// pointer aliases the store's own immutable clone (updates swap pointers,
// never mutate in place), so sinks may read it without copying but must
// not modify it.
type Mutation struct {
	Change       Change
	Worker       *model.Worker
	Requester    *model.Requester
	Task         *model.Task
	Contribution *model.Contribution
}

// LogSink consumes a shard's mutation stream in version order. Every shard
// owns one in-memory sink (its changelog ring) and, on durable stores, one
// write-ahead sink teeing the same stream to segmented files. Append is
// called under the owning shard's write lock, so implementations need no
// locking of their own and observe strictly increasing versions.
//
// Append returns a durability ticket: the record is accepted (ordered,
// encoded, queued) when Append returns, and durable when Commit.Wait
// returns. Mutators wait on the ticket after releasing the shard lock —
// append-under-lock, ack-outside-lock — so a group-commit fsync never runs
// under a shard lock. Sinks with nothing to flush (memory rings, ungrouped
// WAL policies) return the zero Commit, whose Wait is an immediate nil.
type LogSink interface {
	Append(m Mutation) (wal.Commit, error)
	// Sync flushes buffered records to stable storage (no-op for memory
	// sinks).
	Sync() error
	// Close releases the sink; Append must not be called afterwards.
	Close() error
}

// changeRing is the in-memory LogSink: the bounded per-shard changelog
// ring that incremental auditors read through ChangesSince. Versions
// within one ring are strictly increasing (appends happen under the shard
// lock) but not consecutive — the global sequencer interleaves shards.
type changeRing struct {
	buf   []Change
	start int
	n     int
	cap   int
	// droppedMax is the highest version ever evicted from this ring (0 if
	// none): the shard-local truncation signal. A reader positioned at
	// version v missed changes iff droppedMax > v.
	droppedMax uint64
}

// Append implements LogSink. Ring appends cannot fail and are immediately
// "durable" (they have no disk to reach).
func (r *changeRing) Append(m Mutation) (wal.Commit, error) {
	r.record(m.Change)
	return wal.Commit{}, nil
}

// Sync implements LogSink (memory rings have nothing to flush).
func (r *changeRing) Sync() error { return nil }

// Close implements LogSink.
func (r *changeRing) Close() error { return nil }

// record appends a change, evicting the oldest when full. With retention
// disabled (cap < 1) every change counts as immediately dropped so
// ChangesSince keeps reporting truncation.
func (r *changeRing) record(c Change) {
	if r.cap < 1 {
		if c.Version > r.droppedMax {
			r.droppedMax = c.Version
		}
		return
	}
	if r.n < r.cap {
		if len(r.buf) < r.cap {
			r.buf = append(r.buf, c)
		} else {
			r.buf[(r.start+r.n)%len(r.buf)] = c
		}
		r.n++
		return
	}
	// Full ring: overwrite the oldest record.
	if old := r.buf[r.start].Version; old > r.droppedMax {
		r.droppedMax = old
	}
	r.buf[r.start] = c
	r.start = (r.start + 1) % len(r.buf)
}

// setCap resizes the retention window, dropping the oldest retained
// records when shrinking.
func (r *changeRing) setCap(n int) {
	if n < 0 {
		n = 0
	}
	keep := r.n
	if keep > n {
		keep = n
	}
	if dropped := r.n - keep; dropped > 0 {
		last := r.buf[(r.start+dropped-1)%len(r.buf)].Version
		if last > r.droppedMax {
			r.droppedMax = last
		}
	}
	buf := make([]Change, 0, keep)
	for i := r.n - keep; i < r.n; i++ {
		buf = append(buf, r.buf[(r.start+i)%len(r.buf)])
	}
	r.buf = buf
	r.start = 0
	r.n = keep
	r.cap = n
}

// changesAfter copies the retained records with Version > v, oldest first.
// The ring is version-sorted, so the suffix is found by binary search.
func (r *changeRing) changesAfter(v uint64) []Change {
	lo, hi := 0, r.n
	for lo < hi {
		mid := (lo + hi) / 2
		if r.buf[(r.start+mid)%len(r.buf)].Version > v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == r.n {
		return nil
	}
	out := make([]Change, 0, r.n-lo)
	for i := lo; i < r.n; i++ {
		out = append(out, r.buf[(r.start+i)%len(r.buf)])
	}
	return out
}

// walSink is the durable LogSink: it encodes each mutation with the
// compact binary codec and appends it to a per-shard segmented WAL,
// keyed by version so checkpoint truncation can drop dead segments.
type walSink struct {
	w       *wal.Writer
	scratch []byte
}

func newWALSink(dir string, opts wal.Options) (*walSink, error) {
	w, err := wal.Create(dir, opts)
	if err != nil {
		return nil, err
	}
	return &walSink{w: w}, nil
}

// Append implements LogSink. Encoding and enqueueing happen under the
// shard lock, which is what keeps the on-disk order identical to the
// version order; the fsync behind the returned ticket does not (callers
// Wait after unlocking). AppendAsync copies the frame into the batch
// buffer synchronously, so reusing scratch across calls is safe.
func (s *walSink) Append(m Mutation) (wal.Commit, error) {
	s.scratch = encodeMutation(s.scratch[:0], m, walEpoch)
	return s.w.AppendAsync(m.Change.Version, s.scratch)
}

// Sync implements LogSink.
func (s *walSink) Sync() error { return s.w.Sync() }

// Close implements LogSink.
func (s *walSink) Close() error { return s.w.Close() }

// Stats exposes the underlying writer's append/batch/fsync counters.
func (s *walSink) Stats() wal.WriterStats { return s.w.Stats() }
