package store

import "repro/internal/model"

// Mutation pairs one changelog record with the post-image of the mutated
// entity — everything a WAL record carries to replay the change on a cold
// store. Exactly one entity pointer is set, matching Change.Entity; the
// pointer aliases the store's own immutable clone (updates swap pointers,
// never mutate in place), so the encoder may read it without copying but
// must not modify it.
type Mutation struct {
	Change       Change
	Worker       *model.Worker
	Requester    *model.Requester
	Task         *model.Task
	Contribution *model.Contribution
}

// changeRing is the bounded changelog ring that incremental auditors read
// through ChangesSince. Versions in it are strictly increasing: appends
// happen under the write lock.
type changeRing struct {
	buf   []Change
	start int
	n     int
	cap   int
	// droppedMax is the highest version ever evicted from this ring (0 if
	// none): the truncation signal. A reader positioned at version v
	// missed changes iff droppedMax > v.
	droppedMax uint64
}

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
