package crowdfair

import (
	"time"

	"repro/internal/audit"
	"repro/internal/fairness"
	"repro/internal/replica"
	"repro/internal/store"
)

// Staleness is a replica's reported lag bound: the highest global version
// applied locally, the highest version observed in the primary's flushed
// write-ahead log, and their difference.
type Staleness = replica.Staleness

// Replica is a read-only follower of a durable platform directory, fed by
// tailing the primary's write-ahead segments (WAL shipping). It serves
// the same audit surface as a Platform — AuditIncremental over its local
// copy — with an explicit staleness bound instead of read-your-writes:
// reads reflect every mutation the primary had flushed as of the last
// CatchUp pass, and Staleness says how far behind the flushed log the
// replica may still be.
type Replica struct {
	rep *replica.Replica

	auditor    *audit.Engine
	auditorSig string // audit.ConfigSig of the config auditor runs under
}

// OpenReplica bootstraps a read replica from the checkpoint in a durable
// platform directory. Nothing under dir is written; the primary may keep
// running. Call CatchUp (or Follow) to ship the write-ahead tail.
func OpenReplica(dir string) (*Replica, error) {
	rep, err := replica.Open(dir)
	if err != nil {
		return nil, err
	}
	return &Replica{rep: rep}, nil
}

// CatchUp runs one shipping pass over the primary's write-ahead
// directories and returns the number of store mutations applied. After
// the primary stops writing and syncs its logs, one pass converges the
// replica exactly.
func (r *Replica) CatchUp() (int, error) { return r.rep.CatchUp() }

// Follow starts a background poller that calls CatchUp every interval
// until Unfollow. Errors go to onErr (nil to ignore).
func (r *Replica) Follow(interval time.Duration, onErr func(error)) { r.rep.Run(interval, onErr) }

// Unfollow stops the poller started by Follow.
func (r *Replica) Unfollow() { r.rep.Stop() }

// AppliedVersion returns the highest global store version applied so far
// (monotonically non-decreasing).
func (r *Replica) AppliedVersion() uint64 { return r.rep.AppliedVersion() }

// Watermarks returns the replica store's per-shard applied versions.
func (r *Replica) Watermarks() []uint64 { return r.rep.Watermarks() }

// Staleness reports the replica's lag bound as of the last CatchUp pass.
func (r *Replica) Staleness() Staleness { return r.rep.Staleness() }

// Store exposes the replica's local store. Treat it as read-only — it is
// advanced only by CatchUp.
func (r *Replica) Store() *store.Store { return r.rep.Store() }

// AuditIncremental audits the replica's current state through the
// incremental engine, exactly as Platform.AuditIncremental does on the
// primary: at equal applied versions the reports are identical to the
// primary's. The engine warms across CatchUp passes, so continuous
// monitoring on the replica re-checks only what changed since the last
// call.
func (r *Replica) AuditIncremental(cfg AuditConfig) []*FairnessReport {
	if sig := audit.ConfigSig(cfg); r.auditor == nil || sig != r.auditorSig {
		r.auditor = audit.New(r.rep.Store(), r.rep.Log(), cfg)
		r.auditorSig = sig
	}
	return r.auditor.Audit()
}

// AuditFairness runs the batch fairness checkers over the replica's
// current state.
func (r *Replica) AuditFairness(cfg AuditConfig) []*FairnessReport {
	return fairness.CheckAll(r.rep.Store(), r.rep.Log(), cfg)
}

// Close stops any poller. The replica's in-memory state stays readable.
func (r *Replica) Close() error {
	r.rep.Stop()
	return nil
}
