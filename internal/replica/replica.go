// Package replica implements WAL-shipped read replicas: a follower that
// tails the write-ahead directories of another process's durable store
// (internal/store) and event log (internal/eventlog), replaying mutations
// into its own read-only copy. The primary never knows the replica exists —
// shipping is pull-only, off the same segment files the primary appends to
// — so audit read load moves off the primary without touching its write
// path.
//
// Bootstrap + tail: Open rebuilds the checkpointed state from the
// manifest's snapshot (store.Bootstrap — no sinks attached, nothing on
// disk is mutated) at the manifest's shard width, and CatchUp polls that
// width's WAL shard directories — sealed segments and the growing active
// one — queues frames past the checkpoint, and applies them in globally
// dense version order through store.ApplyWALFrame, which keeps the entity
// it decodes instead of cloning it. A frame still being appended
// (torn tail) parks the directory's offset and is retried on the next
// pass; a version gap across directories simply waits for the missing
// shard's flush. The event log is tailed the same way from sequence 1
// (event segments are never truncated).
//
// Staleness contract: AppliedVersion is monotonically non-decreasing;
// Staleness reports (applied, observed, lag) where observed is the highest
// version seen on disk during the last pass, so lag bounds how far the
// replica trails the primary's *flushed* log. Mutations the primary has
// not yet synced to its segments are invisible here — after the primary
// stops writing and syncs, a CatchUp pass converges the replica exactly.
//
// Known limitation: a primary checkpoint may truncate segments the replica
// has not read yet (the primary retains the WAL only down to its own
// low-water marks). A replica that falls that far behind misses records
// and reports the hole through ErrGap rather than applying around it;
// re-open a fresh replica from the newer checkpoint instead.
package replica

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/eventlog"
	"repro/internal/store"
	"repro/internal/wal"
)

// ErrGap reports that the primary truncated WAL records the replica had
// not applied yet: the follower cannot reach the primary's state and must
// be re-opened from the current checkpoint.
var ErrGap = errors.New("replica: wal truncated past the applied version")

// Staleness is the replica's reported lag bound after a CatchUp pass.
type Staleness struct {
	// Applied is the highest global version replayed into the local store.
	Applied uint64
	// Observed is the highest version seen in the primary's flushed WAL
	// during the last pass (>= Applied).
	Observed uint64
	// Lag is Observed - Applied: how many flushed primary mutations the
	// replica has not applied yet (0 when fully caught up with the
	// flushed log).
	Lag uint64
}

// record is one unapplied WAL record queued on a directory tail (version
// order within a tail, by construction of the log): a store frame's
// payload, which pins the segment buffer it was read from until it is
// applied, or a decoded event.
type record struct {
	key     uint64
	payload []byte
	ev      eventlog.Event
}

// dirTail tracks the replica's read position in one segment directory:
// current segment ordinal, byte offset within it, and the decoded records
// waiting for their turn in the global order.
type dirTail struct {
	dir     string
	started bool
	ord     int
	off     int64
	pending []record
}

// poll reads every record now flushed past the tail's position, decoding
// through dec (which may skip a record by returning false). Returns the
// highest key observed.
func (t *dirTail) poll(dec func(key uint64, payload []byte) (record, bool, error)) (uint64, error) {
	segs, err := wal.Segments(t.dir)
	if err != nil {
		return 0, err
	}
	if len(segs) == 0 {
		return 0, nil
	}
	if !t.started {
		t.started = true
		t.ord = segs[0].Ordinal
		t.off = 0
	}
	var maxKey uint64
	for {
		idx := sort.Search(len(segs), func(i int) bool { return segs[i].Ordinal >= t.ord })
		if idx == len(segs) {
			// Our position was truncated away entirely; nothing to read
			// until new segments appear (the gap, if any, surfaces when
			// the global apply order stalls).
			return maxKey, nil
		}
		if segs[idx].Ordinal != t.ord {
			// The exact segment is gone (checkpoint truncation); jump to
			// the oldest survivor and let key-based skipping sort out
			// what was already applied.
			t.ord = segs[idx].Ordinal
			t.off = 0
		}
		r, err := wal.OpenSegmentReader(segs[idx].Path, t.off)
		if err != nil {
			if os.IsNotExist(err) {
				// Raced a truncation between listing and open.
				return maxKey, nil
			}
			// A shrunk file (out-of-range offset) means truncation moved
			// under us; restart the segment.
			t.off = 0
			return maxKey, nil
		}
		for {
			key, payload, err := r.Next()
			if err != nil {
				break
			}
			if key > maxKey {
				maxKey = key
			}
			rec, keep, derr := dec(key, payload)
			if derr != nil {
				r.Close()
				return maxKey, derr
			}
			if keep {
				t.pending = append(t.pending, rec)
			}
		}
		clean := r.Clean()
		t.off = r.Offset()
		r.Close()
		if clean && idx+1 < len(segs) {
			// Sealed segment fully consumed; move to the next one.
			t.ord = segs[idx+1].Ordinal
			t.off = 0
			continue
		}
		// Either we are parked on a torn/in-flight frame (retry it next
		// pass) or we drained the active segment.
		return maxKey, nil
	}
}

// Replica is a read-only follower of one durable platform directory.
// Methods are safe for concurrent use; the background poller started by
// Run serialises with manual CatchUp calls on the same mutex.
type Replica struct {
	dir string

	mu       sync.Mutex
	st       *store.Store
	log      *eventlog.Log
	man      *store.Manifest
	applied  uint64
	eventSeq uint64
	observed uint64
	tails    []*dirTail // one per WAL shard directory, in shard order
	events   *dirTail

	stop chan struct{}
	done chan struct{}
}

// Open bootstraps a replica from the checkpointed state of a durable
// store directory. Nothing under dir is ever written; the replica's store
// is volatile and owned entirely by this process. Call CatchUp (or Run)
// to start shipping the WAL tail.
func Open(dir string) (*Replica, error) {
	st, man, err := store.Bootstrap(dir)
	if err != nil {
		return nil, err
	}
	tails := make([]*dirTail, man.Shards)
	for i := range tails {
		tails[i] = &dirTail{dir: store.WALShardDir(dir, i)}
	}
	return &Replica{
		dir:      dir,
		st:       st,
		log:      eventlog.New(),
		man:      man,
		applied:  man.Version,
		observed: man.Version,
		tails:    tails,
		events:   &dirTail{dir: store.EventsDir(dir)},
	}, nil
}

// Store returns the replica's local store. Treat it as read-only: it is
// positioned at AppliedVersion and mutated only by CatchUp.
func (r *Replica) Store() *store.Store { return r.st }

// Log returns the replica's local event log (read-only, like Store).
func (r *Replica) Log() *eventlog.Log { return r.log }

// AppliedVersion returns the highest global version applied so far. It
// never decreases.
func (r *Replica) AppliedVersion() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied
}

// Watermarks returns the replica store's per-shard applied versions (the
// replica has the primary's width, and routes every id to the same shard).
func (r *Replica) Watermarks() []uint64 {
	out := make([]uint64, r.st.ShardCount())
	for i := range out {
		out[i] = r.st.ShardVersion(i)
	}
	return out
}

// Staleness reports the lag bound as of the last CatchUp pass.
func (r *Replica) Staleness() Staleness {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Staleness{Applied: r.applied, Observed: r.observed, Lag: r.observed - r.applied}
}

// CatchUp runs one shipping pass: poll every WAL directory for newly
// flushed records, then apply everything that extends the dense global
// version order. Returns the number of store mutations applied. A pass
// that applies nothing and observes nothing new means the replica has
// converged with the primary's flushed log.
func (r *Replica) CatchUp() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	for _, t := range r.tails {
		maxKey, err := t.poll(func(key uint64, payload []byte) (record, bool, error) {
			if key <= r.man.Version || key <= r.applied {
				// Covered by the bootstrap snapshot or already applied
				// (a truncation jump re-read the segment).
				return record{}, false, nil
			}
			return record{key: key, payload: payload}, true, nil
		})
		if err != nil {
			return 0, err
		}
		if maxKey > r.observed {
			r.observed = maxKey
		}
	}

	// Apply in dense global order: at each step exactly one directory's
	// queue head is version applied+1 (each version lives in one shard's
	// log). A missing head means that shard's record is not flushed yet —
	// stop and retry next pass.
	applied := 0
	for {
		var next *dirTail
		for _, t := range r.tails {
			for len(t.pending) > 0 && t.pending[0].key <= r.applied {
				t.pending = t.pending[1:]
			}
			if len(t.pending) > 0 && t.pending[0].key == r.applied+1 {
				next = t
				break
			}
		}
		if next == nil {
			break
		}
		if err := r.st.ApplyWALFrame(next.pending[0].key, next.pending[0].payload); err != nil {
			return applied, fmt.Errorf("replica: apply v%d: %w", next.pending[0].key, err)
		}
		next.pending = next.pending[1:]
		r.applied++
		applied++
	}

	if err := r.catchUpEvents(); err != nil {
		return applied, err
	}

	// Detect the truncation hole: every queue drained or parked beyond a
	// version we can never reach means the primary checkpointed past us.
	if r.observed > r.applied {
		stuck := true
		for _, t := range r.tails {
			if len(t.pending) > 0 && t.pending[0].key == r.applied+1 {
				stuck = false
				break
			}
		}
		if stuck {
			// Only report a hard gap when a newer manifest proves the
			// missing versions were checkpointed away (otherwise the
			// primary just has not flushed that shard yet).
			if man, err := store.ReadManifest(r.dir); err == nil && man.Version > r.applied {
				return applied, fmt.Errorf("%w: applied %d, checkpoint at %d", ErrGap, r.applied, man.Version)
			}
		}
	}
	return applied, nil
}

// catchUpEvents tails the event-log directory, applying events in dense
// sequence order (event segments are never truncated, so the stream always
// starts at sequence 1).
func (r *Replica) catchUpEvents() error {
	_, err := r.events.poll(func(seq uint64, payload []byte) (record, bool, error) {
		if seq <= r.eventSeq {
			return record{}, false, nil
		}
		e, err := eventlog.DecodeWALEvent(seq, payload)
		if err != nil {
			return record{}, false, fmt.Errorf("replica: events: %w", err)
		}
		return record{key: seq, ev: e}, true, nil
	})
	if err != nil {
		return err
	}
	t := r.events
	for len(t.pending) > 0 && t.pending[0].key == r.eventSeq+1 {
		e := t.pending[0].ev
		if _, err := r.log.Append(eventlog.Event{
			Time: e.Time, Type: e.Type,
			Worker: e.Worker, Task: e.Task, Requester: e.Requester, Contribution: e.Contribution,
			Amount: e.Amount, Field: e.Field, Note: e.Note,
		}); err != nil {
			return fmt.Errorf("replica: events: %w", err)
		}
		t.pending = t.pending[1:]
		r.eventSeq++
	}
	return nil
}

// Run starts a background poller calling CatchUp every interval until
// Stop. Errors are delivered to onErr (nil to ignore); polling continues
// after an error — a transient race with the primary's truncation heals on
// the next pass.
func (r *Replica) Run(interval time.Duration, onErr func(error)) {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go func() {
		defer close(r.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				if _, err := r.CatchUp(); err != nil && onErr != nil {
					onErr(err)
				}
			}
		}
	}()
}

// Stop halts the background poller started by Run (no-op otherwise).
func (r *Replica) Stop() {
	if r.stop == nil {
		return
	}
	close(r.stop)
	<-r.done
	r.stop, r.done = nil, nil
}
