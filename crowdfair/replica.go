package crowdfair

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/audit"
	"repro/internal/eventlog"
	"repro/internal/fairness"
	"repro/internal/store"
)

// ErrGap reports that the primary truncated WAL records the replica had
// not applied yet: the replica cannot reach the primary's state and must
// be re-opened from the current checkpoint.
var ErrGap = errors.New("replica: wal truncated past the applied version")

// Staleness is a replica's reported lag bound after a CatchUp pass.
type Staleness struct {
	// Applied is the highest global version replayed into the local store.
	Applied uint64
	// Observed is the highest version seen in the primary's flushed WAL
	// so far (>= Applied).
	Observed uint64
	// Lag is Observed - Applied: how many flushed primary mutations the
	// replica has not applied yet (0 when fully caught up with the
	// flushed log).
	Lag uint64
}

// Replica is a read-only follower of a durable platform directory, fed by
// re-reading the primary's write-ahead segments (WAL shipping). It serves
// the same audit surface as a Platform — AuditIncremental over its local
// copy — with an explicit staleness bound instead of read-your-writes:
// reads reflect every mutation the primary had flushed as of the last
// CatchUp pass, and Staleness says how far behind the flushed log the
// replica may still be. Mutations the primary has not yet written to its
// segments are invisible here; after the primary stops writing and syncs,
// CatchUp passes converge the replica exactly.
//
// A primary checkpoint truncates the segments below its own low-water
// marks, so every pass re-reads only the retained log. A replica that falls
// behind the truncation misses records and reports the hole through ErrGap
// rather than applying around it; re-open a fresh replica from the newer
// checkpoint instead.
type Replica struct {
	dir string
	st  *store.Store
	log *eventlog.Log

	mu       sync.Mutex // serialises CatchUp passes; guards observed
	observed uint64

	auditor    *audit.Engine
	auditorSig string // audit.ConfigSig of the config auditor runs under
}

// OpenReplica bootstraps a read replica from the checkpoint in a durable
// platform directory. Nothing under dir is written; the primary may keep
// running. Call CatchUp to ship the write-ahead tail.
func OpenReplica(dir string) (*Replica, error) {
	st, man, err := store.Bootstrap(dir)
	if err != nil {
		return nil, err
	}
	return &Replica{dir: dir, st: st, log: eventlog.New(), observed: man.Version}, nil
}

// CatchUp runs one shipping pass over the primary's write-ahead
// directories and returns the number of store mutations applied. The pass
// re-reads the retained log through the replays recovery runs:
// store.Store.CatchUp applies every record above the replica's version up
// to the first version gap, and eventlog.Log.CatchUp appends the events
// past the replica's trace; a record the primary is still appending waits
// for a later pass. After the primary stops writing and syncs its logs,
// one pass converges the replica exactly. A pass that races a checkpoint's
// segment truncation returns that error; the next pass lists the
// directories afresh.
func (r *Replica) CatchUp() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	applied, observed, err := r.st.CatchUp(r.dir)
	if observed > r.observed {
		r.observed = observed
	}
	if err != nil {
		return applied, fmt.Errorf("replica: %w", err)
	}
	if _, err := r.log.CatchUp(store.EventsDir(r.dir)); err != nil {
		return applied, fmt.Errorf("replica: %w", err)
	}
	// Versions on disk past the applied one that this pass could not reach
	// are either unflushed on some shard or checkpointed away. Only a newer
	// manifest proves the latter.
	if v := r.st.Version(); r.observed > v {
		if man, err := store.ReadManifest(r.dir); err == nil && man.Version > v {
			return applied, fmt.Errorf("%w: applied %d, checkpoint at %d", ErrGap, v, man.Version)
		}
	}
	return applied, nil
}

// AppliedVersion returns the highest global store version applied so far
// (monotonically non-decreasing).
func (r *Replica) AppliedVersion() uint64 { return r.st.Version() }

// Watermarks returns the replica store's per-shard applied versions (the
// replica has the primary's width, and routes every id to the same shard).
func (r *Replica) Watermarks() []uint64 {
	out := make([]uint64, r.st.ShardCount())
	for i := range out {
		out[i] = r.st.ShardVersion(i)
	}
	return out
}

// Staleness reports the replica's lag bound as of the last CatchUp pass.
func (r *Replica) Staleness() Staleness {
	r.mu.Lock()
	defer r.mu.Unlock()
	applied := r.st.Version()
	return Staleness{Applied: applied, Observed: r.observed, Lag: r.observed - applied}
}

// Store exposes the replica's local store. Treat it as read-only — it is
// advanced only by CatchUp.
func (r *Replica) Store() *store.Store { return r.st }

// AuditIncremental audits the replica's current state through the
// incremental engine, exactly as Platform.AuditIncremental does on the
// primary: at equal applied versions the reports are identical to the
// primary's. The engine warms across CatchUp passes, so continuous
// monitoring on the replica re-checks only what changed since the last
// call.
func (r *Replica) AuditIncremental(cfg AuditConfig) []*FairnessReport {
	if sig := audit.ConfigSig(cfg); r.auditor == nil || sig != r.auditorSig {
		r.auditor = audit.New(r.st, r.log, cfg)
		r.auditorSig = sig
	}
	return r.auditor.Audit()
}

// AuditFairness runs the batch fairness checkers over the replica's
// current state.
func (r *Replica) AuditFairness(cfg AuditConfig) []*FairnessReport {
	return fairness.CheckAll(r.st, r.log, cfg)
}

// Close releases nothing: the replica holds no files or goroutines, and
// its in-memory state stays readable.
func (r *Replica) Close() error { return nil }
