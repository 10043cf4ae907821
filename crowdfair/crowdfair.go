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
	"repro/internal/similarity"
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

// Sync policies for WALOptions.Sync, weakest to strongest. SyncAlways and
// SyncInterval commit through per-shard group commit: one fsync covers
// every append queued while the previous fsync ran, so durable throughput
// stays within small-integer multiples of SyncNever under concurrency.
var (
	// SyncNever leaves flushing to the OS: a process crash loses nothing,
	// a power failure loses the unsynced tail.
	SyncNever = wal.SyncNever
	// SyncOnRotate fsyncs each segment as it is sealed.
	SyncOnRotate = wal.SyncOnRotate
	// SyncAlways acks each mutation only after a covering group fsync.
	SyncAlways = wal.SyncAlways
	// SyncInterval(d) acks immediately and fsyncs the accumulated tail
	// every d: a crash loses at most the last d of acknowledged writes.
	SyncInterval = wal.SyncInterval
	// ParseSyncPolicy parses "never", "rotate", "interval[:<dur>]", or
	// "always" — the flag/config syntax.
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
	// (LoadTrace) or the config changes.
	auditor    *audit.Engine
	auditorCfg AuditConfig
}

// NewPlatform returns an empty in-memory platform over the universe.
func NewPlatform(u *Universe) *Platform {
	return &Platform{st: store.New(u), log: eventlog.New()}
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
// SyncOnRotate, SyncInterval, SyncAlways) for both the store changelog and
// the event trace, and wopts.SegmentBytes the rotation threshold. The
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
		return &Platform{st: st, log: log, dir: dir, auditorCfg: cfg}, nil
	}
	man, err := store.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	// The store, the event trace and the auditor's saved state recover from
	// disjoint files and share no data until audit.Resume joins them, so
	// the three run side by side.
	var (
		wg     sync.WaitGroup
		log    *eventlog.Log
		logErr error
		state  *audit.State
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		log, logErr = eventlog.OpenDurable(store.EventsDir(dir), wopts)
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
	p := &Platform{st: st, log: log, dir: dir, auditorCfg: cfg}
	if state != nil {
		// Nor is a failed resume (e.g. the store reopened at a different
		// shard width): the first AuditIncremental cold-starts.
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

// AddWorker registers a worker and logs their arrival.
func (p *Platform) AddWorker(w *Worker) error {
	if err := p.st.PutWorker(w); err != nil {
		return err
	}
	p.log.MustAppend(eventlog.Event{Time: p.now(), Type: eventlog.WorkerJoined, Worker: w.ID})
	return nil
}

// AddRequester registers a requester.
func (p *Platform) AddRequester(r *Requester) error { return p.st.PutRequester(r) }

// PostTask publishes a task and logs TaskPosted.
func (p *Platform) PostTask(t *Task) error {
	if err := p.st.PutTask(t); err != nil {
		return err
	}
	p.log.MustAppend(eventlog.Event{Time: p.now(), Type: eventlog.TaskPosted, Task: t.ID, Requester: t.Requester})
	return nil
}

// Offer records that a task was made visible to a worker — the access
// evidence Axioms 1 and 2 audit.
func (p *Platform) Offer(task TaskID, worker WorkerID) error {
	t, err := p.offeredTask(task, worker)
	if err != nil {
		return err
	}
	p.log.MustAppend(eventlog.Event{
		Time: p.now(), Type: eventlog.TaskOffered, Task: task, Worker: worker, Requester: t.Requester,
	})
	return nil
}

// RecordContribution stores a contribution and its submission event.
func (p *Platform) RecordContribution(c *Contribution) error {
	if err := p.st.PutContribution(c); err != nil {
		return err
	}
	p.log.MustAppend(eventlog.Event{
		Time: p.now(), Type: eventlog.TaskSubmitted, Task: c.Task, Worker: c.Worker, Contribution: c.ID,
	})
	return nil
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

// Reshard changes the platform store's shard count online: entities are
// handed off shard by shard under the write lock, readers and writers keep
// running throughout, and on durable platforms the write-ahead layout and
// manifest move to the new route epoch atomically with the cutover. A
// warmed incremental auditor survives — its next AuditIncremental remaps
// cursors onto the new layout and re-checks only the overlap.
func (p *Platform) Reshard(n int) error { return p.st.Reshard(n) }

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
	if p.auditor == nil || !sameAuditConfig(p.auditorCfg, cfg) {
		p.auditor = audit.New(p.st, p.log, cfg)
		p.auditorCfg = cfg
	}
	return p.auditor.AuditPass()
}

// sameAuditConfig compares the checker-relevant fields of two configs.
// Measure functions are compared by name; Candidates is ignored — the
// incremental engine installs its own provider either way. A config judged
// different only costs a cold start, never correctness.
func sameAuditConfig(a, b AuditConfig) bool {
	return a.SkillMeasure.Name == b.SkillMeasure.Name &&
		a.SkillThreshold == b.SkillThreshold &&
		sameAttrPolicy(a.AttrPolicy, b.AttrPolicy) &&
		a.AttrThreshold == b.AttrThreshold &&
		a.AccessThreshold == b.AccessThreshold &&
		a.RewardTolerance == b.RewardTolerance &&
		a.ContributionThreshold == b.ContributionThreshold &&
		a.PayTolerance == b.PayTolerance &&
		a.Exhaustive == b.Exhaustive &&
		a.CandidateKind() == b.CandidateKind() &&
		(a.CandidateKind() != fairness.CandidateLSH || a.LSHSeed == b.LSHSeed)
}

// sameAttrPolicy deep-compares two attribute policies, including the
// per-field tolerance overrides and the ignore set, so platforms auditing
// under a custom policy keep reusing their warmed incremental engine
// instead of silently cold-starting on every AuditIncremental call.
func sameAttrPolicy(a, b *similarity.AttrPolicy) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.NumTolerance != b.NumTolerance || a.MissingPenalty != b.MissingPenalty {
		return false
	}
	if len(a.FieldTolerance) != len(b.FieldTolerance) {
		return false
	}
	for k, v := range a.FieldTolerance {
		if bv, ok := b.FieldTolerance[k]; !ok || bv != v {
			return false
		}
	}
	// IgnoreFields entries explicitly set to false mean the same as absent.
	for k, on := range a.IgnoreFields {
		if on != b.IgnoreFields[k] {
			return false
		}
	}
	for k, on := range b.IgnoreFields {
		if on != a.IgnoreFields[k] {
			return false
		}
	}
	return true
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

// EncodePolicyJSON serialises a policy to its JSON interchange form.
func EncodePolicyJSON(pol *Policy) ([]byte, error) {
	return pol.MarshalJSON()
}

// DecodePolicyJSON parses a policy from its JSON interchange form and
// statically checks it against the standard catalogue.
func DecodePolicyJSON(data []byte) (*Policy, error) {
	pol, err := transparency.DecodePolicy(data)
	if err != nil {
		return nil, err
	}
	if errs := transparency.StandardCatalogue().Check(pol); len(errs) > 0 {
		return nil, fmt.Errorf("crowdfair: policy %q: %d check error(s), first: %w", pol.Name, len(errs), errs[0])
	}
	return pol, nil
}
