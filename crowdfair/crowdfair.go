// Package crowdfair is the public API of this repository: a framework for
// checking and enforcing fairness and transparency in crowdsourcing
// platforms, implementing Borromeo, Laurent, Toyama & Amer-Yahia,
// "Fairness and Transparency in Crowdsourcing" (EDBT 2017).
//
// The package wraps the internal subsystems behind a Platform type:
//
//	u := crowdfair.NewUniverse("translation", "labeling")
//	p := crowdfair.NewPlatform(u)
//	p.AddRequester(&crowdfair.Requester{ID: "r1"})
//	p.AddWorker(&crowdfair.Worker{ID: "w1", Skills: u.MustVector("labeling")})
//	...
//	reports := p.AuditFairness(crowdfair.DefaultAuditConfig())
//
// Transparency policies are authored in the declarative language of the
// paper's §3.3.2 (see ParsePolicy), rendered to human-readable text, and
// audited against the platform's event trace. Full marketplace simulations
// (the controlled experiments of §4.1) run through Simulate.
//
// A durable platform (OpenPlatform) can be followed by read replicas
// (OpenReplica) in other processes. A replica is recovery's read side:
// each CatchUp pass re-reads the primary's retained write-ahead log
// through the replays OpenPlatform runs and applies what is past the
// replica's version. A pass that races a checkpoint's segment truncation
// returns a retryable error, and ErrGap reports a replica that fell behind
// a truncation and must be re-opened.
package crowdfair

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/audit"
	"repro/internal/eventlog"
	"repro/internal/fairness"
	"repro/internal/model"
	"repro/internal/store"
	"repro/internal/transparency"
	"repro/internal/wal"
)

// Re-exported model types: the platform data model of the paper's §3.2.
type (
	// Worker is the tuple (id, declared attrs, computed attrs, skills).
	Worker = model.Worker
	// Task is the tuple (id, requester, required skills, reward).
	Task = model.Task
	// Requester publishes tasks.
	Requester = model.Requester
	// Contribution is a worker's submitted answer with its outcome.
	Contribution = model.Contribution
	// Universe is the shared skill-keyword space S.
	Universe = model.Universe
	// SkillVector is the Boolean skill vector of tasks and workers.
	SkillVector = model.SkillVector
	// Attributes holds declared or computed worker attributes.
	Attributes = model.Attributes

	// WorkerID, TaskID, RequesterID, ContributionID identify entities.
	WorkerID       = model.WorkerID
	TaskID         = model.TaskID
	RequesterID    = model.RequesterID
	ContributionID = model.ContributionID
)

// Re-exported audit types.
type (
	// FairnessReport is the outcome of checking one fairness axiom.
	FairnessReport = fairness.Report
	// Violation is one audited axiom failure.
	Violation = fairness.Violation
	// AuditConfig parameterises the fairness checkers (similarity measures
	// and thresholds, per the paper's platform-dependent notion).
	AuditConfig = fairness.Config
	// TransparencyReport is the outcome of checking Axiom 6 or 7.
	TransparencyReport = transparency.AxiomReport
	// TransparencyGap is one undisclosed (field, subject) pair, as a
	// TransparencyReport's Detail.At returns it.
	TransparencyGap = transparency.Gap
	// Policy is a parsed declarative transparency policy.
	Policy = transparency.Policy
	// Catalogue is the schema of disclosable fields.
	Catalogue = transparency.Catalogue
	// Event is one platform trace record.
	Event = eventlog.Event
)

// Attribute constructors, re-exported.
var (
	// Num builds a numeric attribute value.
	Num = model.Num
	// Str builds a categorical attribute value.
	Str = model.Str
)

// Re-exported write-ahead log tuning — internal/wal is unimportable by
// consumers, so durable platforms configure persistence through these.
type (
	// WALOptions parameterises a durable platform's write-ahead logs
	// (segment size, sync policy).
	WALOptions = wal.Options
	// SyncPolicy selects when the logs fsync; see the Sync* values and
	// SyncInterval.
	SyncPolicy = wal.SyncPolicy
)

// Sync policies for WALOptions.Sync, weakest to strongest. Every policy
// appends through per-shard group commit: one write — and, for SyncAlways
// and SyncInterval, one fsync — covers every append queued while the
// previous one ran, so durable throughput stays within small-integer
// multiples of SyncNever under concurrency.
var (
	// SyncNever acks a mutation once its batch is written to the segment
	// file and leaves flushing to the OS: a process crash loses nothing
	// acknowledged, a power failure loses the unsynced tail.
	SyncNever = wal.SyncNever
	// SyncAlways acks each mutation only after a covering group fsync.
	SyncAlways = wal.SyncAlways
	// SyncInterval(d) acks immediately and writes and fsyncs the
	// accumulated batch every d: a crash loses at most the last d of
	// acknowledged writes.
	SyncInterval = wal.SyncInterval
	// ParseSyncPolicy parses "never", "interval[:<dur>]", or "always" —
	// the flag syntax.
	ParseSyncPolicy = wal.ParseSyncPolicy
)

// NewUniverse builds the skill universe; it panics on empty input (use
// model.NewUniverse directly for error handling).
func NewUniverse(skills ...string) *Universe { return model.MustUniverse(skills...) }

// DefaultAuditConfig returns the checker configuration used by the paper
// experiments: cosine skill similarity at 0.9, tolerant attribute matching,
// identical-access requirement, n-gram/nDCG contribution similarity at 0.8.
func DefaultAuditConfig() AuditConfig { return fairness.DefaultConfig() }

// Platform is a crowdsourcing platform under audit: entity state plus the
// append-only event trace the temporal axioms need. Platforms built with
// NewPlatform live purely in memory; OpenPlatform roots one in a directory
// whose store changelog and event trace are teed into segmented
// write-ahead logs, checkpointable with Checkpoint and recoverable —
// including the incremental auditor's warm state — by a later
// OpenPlatform over the same directory.
type Platform struct {
	st  *store.Store
	log *eventlog.Log

	// dir is the persistence root ("" for in-memory platforms).
	dir string

	// auditor is the lazily-created incremental audit engine; it is pinned
	// to the config of the first AuditIncremental call (or resumed from a
	// checkpoint by OpenPlatform) and discarded when the trace is replaced
	// (LoadTrace) or the config's signature (audit.ConfigSig) changes.
	// auditorCfg is kept for the checkpoint, which signs the engine's state
	// with it; auditorSig is its signature.
	auditor    *audit.Engine
	auditorCfg AuditConfig
	auditorSig string
}

// NewPlatform returns an empty in-memory platform over the universe.
func NewPlatform(u *Universe) *Platform {
	return &Platform{st: store.New(u), log: eventlog.New()}
}

// NewPlatformFromSnapshot returns an in-memory platform over a store
// snapshot, such as `crowdfair simulate -snapshot` writes, with an empty
// event trace. The platform keeps copies, so snap stays the caller's.
func NewPlatformFromSnapshot(snap *model.Snapshot) (*Platform, error) {
	st, err := store.FromSnapshot(snap)
	if err != nil {
		return nil, err
	}
	return &Platform{st: st, log: eventlog.New()}, nil
}

// OpenPlatform opens the durable platform rooted at dir, creating it over
// the universe u when the directory holds no platform yet. Recovery
// rebuilds the store from its last checkpoint plus the write-ahead tail
// (surviving torn final records) and replays the persisted event trace;
// if the checkpoint carries auditor state saved under a config matching
// cfg, the incremental auditor warm-starts — its first AuditIncremental
// replays only post-checkpoint deltas instead of re-scanning every pair.
func OpenPlatform(dir string, u *Universe, cfg AuditConfig) (*Platform, error) {
	return OpenPlatformWAL(dir, u, cfg, WALOptions{})
}

// OpenPlatformWAL is OpenPlatform with explicit write-ahead log tuning:
// wopts.Sync selects the durability/throughput trade (SyncNever,
// SyncInterval, SyncAlways) for both the store changelog and the event
// trace, and wopts.SegmentBytes the rotation threshold. The
// policy is an open-time property, not a stored one — the same directory
// may be reopened under a different policy.
func OpenPlatformWAL(dir string, u *Universe, cfg AuditConfig, wopts WALOptions) (*Platform, error) {
	if !store.Exists(dir) {
		if u == nil {
			return nil, fmt.Errorf("crowdfair: creating %s needs a universe", dir)
		}
		st, err := store.NewDurable(u, store.DefaultShardCount, dir, wopts)
		if err != nil {
			return nil, err
		}
		log, err := eventlog.OpenDurable(store.EventsDir(dir), wopts)
		if err != nil {
			return nil, err
		}
		return &Platform{st: st, log: log, dir: dir, auditorCfg: cfg, auditorSig: audit.ConfigSig(cfg)}, nil
	}
	man, err := store.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	// The store, the event trace and the auditor's saved state recover from
	// disjoint files and share no data until audit.Resume joins them, so
	// the three run side by side. The trace's goroutine also folds the
	// recovered trace into its ledger, which the first audit would
	// otherwise fold.
	var (
		wg     sync.WaitGroup
		log    *eventlog.Log
		logErr error
		state  *audit.State
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		if log, logErr = eventlog.OpenDurable(store.EventsDir(dir), wopts); logErr == nil {
			log.ReadLedger(func(*eventlog.Ledger) {})
		}
	}()
	go func() {
		defer wg.Done()
		// No usable saved state (none recorded, a damaged sidecar, another
		// config) is not an error: the auditor cold-starts.
		state, _ = audit.LoadState(dir, man, cfg)
	}()
	st, _, err := store.Open(dir, 0, wopts)
	wg.Wait()
	if err != nil || logErr != nil {
		if err == nil {
			st.Close()
		}
		if logErr == nil {
			log.Close()
		}
		return nil, errors.Join(err, logErr)
	}
	p := &Platform{st: st, log: log, dir: dir, auditorCfg: cfg, auditorSig: audit.ConfigSig(cfg)}
	if state != nil {
		// Nor is a failed resume (e.g. saved state that does not match the
		// recovered store): the first AuditIncremental cold-starts.
		if eng, err := audit.Resume(st, log, cfg, state); err == nil {
			p.auditor = eng
		}
	}
	return p, nil
}

// Durable reports whether the platform persists its trace.
func (p *Platform) Durable() bool { return p.dir != "" }

// Checkpoint writes a recovery point under the platform's directory: the
// store snapshot, the incremental auditor's warm state (when one exists),
// the manifest naming both, and truncates write-ahead segments both the
// snapshot and the auditor have passed. Only durable platforms checkpoint.
func (p *Platform) Checkpoint() error {
	if p.dir == "" {
		return fmt.Errorf("crowdfair: checkpoint of an in-memory platform (use OpenPlatform)")
	}
	o := audit.BuildCheckpointOptions(p.auditor, p.auditorCfg, p.log.Len())
	if err := p.log.Sync(); err != nil {
		return err
	}
	_, err := p.st.Checkpoint(o)
	return err
}

// Close flushes and closes the platform's write-ahead logs. The in-memory
// state stays readable; further mutations are no longer persisted.
func (p *Platform) Close() error {
	return errors.Join(p.st.Close(), p.log.Close())
}

// AddWorker registers a worker and logs their arrival: AddWorkers with one
// worker, so a write-ahead log error comes back as an error.
func (p *Platform) AddWorker(w *Worker) error { return p.AddWorkers([]*Worker{w}) }

// AddRequester registers a requester.
func (p *Platform) AddRequester(r *Requester) error { return p.st.PutRequester(r) }

// PostTask publishes a task and logs TaskPosted (PostTasks with one task).
func (p *Platform) PostTask(t *Task) error { return p.PostTasks([]*Task{t}) }

// Offer records that a task was made visible to a worker — the access
// evidence Axioms 1 and 2 audit (OfferBatch with one offer).
func (p *Platform) Offer(task TaskID, worker WorkerID) error {
	return p.OfferBatch([]Offer{{Task: task, Worker: worker}})
}

// RecordContribution stores a contribution and its submission event
// (RecordContributions with one contribution).
func (p *Platform) RecordContribution(c *Contribution) error {
	return p.RecordContributions([]*Contribution{c})
}

// AppendEvent appends a raw trace event (for replaying external traces).
func (p *Platform) AppendEvent(e Event) error {
	_, err := p.log.Append(e)
	return err
}

// now returns the next logical timestamp (monotone with the log). LastTime
// reads the tail under the log's read lock without copying the trace —
// the previous Events()-based implementation cloned the whole log per
// mutation, turning every serving write into an O(trace) allocation.
func (p *Platform) now() int64 {
	return p.log.LastTime()
}

// Store exposes the underlying store for advanced queries.
func (p *Platform) Store() *store.Store { return p.st }

// Log exposes the underlying event log.
func (p *Platform) Log() *eventlog.Log { return p.log }

// AuditFairness runs all five fairness axiom checkers over the platform
// trace and returns their reports in axiom order.
func (p *Platform) AuditFairness(cfg AuditConfig) []*FairnessReport {
	return fairness.CheckAll(p.st, p.log, cfg)
}

// AuditIncremental audits the trace through the incremental engine
// (internal/audit): the first call runs the full cold-start scan, later
// calls re-check only the pairs the store changelog and event log mark as
// dirty — an order-of-magnitude win for continuous monitoring. Reported
// violations and every axiom's Report.Checked are guaranteed identical to
// AuditFairness over the same trace. The violation slices are the engine's
// standing ones: treat them as read-only. Changing cfg between calls resets
// the engine (a cold start under the new thresholds).
func (p *Platform) AuditIncremental(cfg AuditConfig) []*FairnessReport {
	return p.AuditPass(cfg).Reports
}

// AuditPass is AuditIncremental with the pass's report fingerprint and its
// changed-violation count, both produced under the engine's lock with the
// reports — what a serving tier publishes without re-reading them.
func (p *Platform) AuditPass(cfg AuditConfig) audit.Pass {
	if sig := audit.ConfigSig(cfg); p.auditor == nil || sig != p.auditorSig {
		p.auditor = audit.New(p.st, p.log, cfg)
		p.auditorCfg, p.auditorSig = cfg, sig
	}
	return p.auditor.AuditPass()
}

// AuditTransparency runs the Axiom 6 and 7 checkers against the trace,
// using the standard catalogue when cat is nil.
func (p *Platform) AuditTransparency(cat *Catalogue) (axiom6, axiom7 *TransparencyReport) {
	if cat == nil {
		cat = transparency.StandardCatalogue()
	}
	return transparency.CheckAxiom6(cat, p.log), transparency.CheckAxiom7(cat, p.log)
}

// WriteTrace serialises the platform's event trace as JSON lines.
func (p *Platform) WriteTrace(w io.Writer) error {
	_, err := p.log.WriteTo(w)
	return err
}

// LoadTrace replaces the platform's event log with a trace previously
// produced by WriteTrace. Durable platforms refuse: swapping in an
// in-memory log would silently end event persistence.
func (p *Platform) LoadTrace(r io.Reader) error {
	if p.dir != "" {
		return fmt.Errorf("crowdfair: LoadTrace on a durable platform")
	}
	l, err := eventlog.Read(r)
	if err != nil {
		return err
	}
	p.log = l
	p.auditor = nil // the engine's cursor points into the old log
	return nil
}

// ParsePolicy parses a declarative transparency policy and statically
// checks it against the standard catalogue, returning all check errors
// joined.
func ParsePolicy(src string) (*Policy, error) {
	pol, err := transparency.Parse(src)
	if err != nil {
		return nil, err
	}
	if errs := transparency.StandardCatalogue().Check(pol); len(errs) > 0 {
		return nil, fmt.Errorf("crowdfair: policy %q: %d check error(s), first: %w", pol.Name, len(errs), errs[0])
	}
	return pol, nil
}

// RenderPolicy translates a policy into human-readable commitments using
// the standard catalogue.
func RenderPolicy(pol *Policy) string {
	return transparency.Render(pol, transparency.StandardCatalogue())
}

// ComparePolicies diffs two policies (the cross-platform comparison the
// declarative design enables) and renders the result.
func ComparePolicies(a, b *Policy) string {
	return transparency.Compare(a, b).String()
}

// PolicyScore quantifies how much of the standard catalogue a policy
// discloses to workers, in [0,1].
func PolicyScore(pol *Policy) float64 {
	return transparency.TransparencyScore(pol, transparency.StandardCatalogue())
}

// StandardCatalogue exposes the paper-derived disclosure schema.
func StandardCatalogue() *Catalogue { return transparency.StandardCatalogue() }

// LintPolicy returns redundancy warnings (duplicate and shadowed rules)
// for a policy, as human-readable strings. An empty result means the
// policy has no redundant commitments.
func LintPolicy(pol *Policy) []string {
	var out []string
	for _, w := range transparency.Lint(pol) {
		out = append(out, w.String())
	}
	return out
}
