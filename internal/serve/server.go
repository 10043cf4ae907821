// Package serve is the online serving surface over crowdfair.Platform: an
// HTTP/JSON front-end whose hot path is engineered for the layers below it
// rather than merely wired to them.
//
// Each mutation request is applied on its own goroutine through the
// platform's bulk entry point (a one-element slice), and answered with that
// call's outcome. Concurrent requests share durability waits in the WAL's
// group commit, not in this package. Two mechanisms carry the load story:
//
//   - Admission control (admit.go): mutations are shed with HTTP 429 +
//     Retry-After when MaxQueue mutations are already in flight or the
//     incremental auditor has fallen more than MaxAuditLag store versions
//     behind, so overload degrades into fast, explicit rejections instead
//     of collapsing the latency of admitted requests.
//
//   - Cached snapshots: audit reports are served from a version-stamped
//     snapshot refreshed by an in-loop incremental-audit goroutine — a read
//     never triggers an audit, it observes the freshest completed one.
//     Publishing a pass is O(1) in what has accumulated: the engine keeps
//     its standing reports merged beside a running order-free digest and
//     hands over the fingerprint with them (AuditFingerprint is its oracle).
//
// A /debug surface (net/http/pprof + expvar counters for mutations in
// flight, shed counts, and audit lag) makes serving benchmarks profilable
// like the existing -memprofile paths.
package serve

import (
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/crowdfair"
	"repro/internal/audit"
	"repro/internal/fairness"
)

// Platform and AuditConfig alias the public API types the server fronts.
type (
	Platform    = crowdfair.Platform
	AuditConfig = crowdfair.AuditConfig
)

// Config parameterises a Server. The zero value of every knob selects the
// documented default; Platform is required.
type Config struct {
	// Platform is the platform under service (required).
	Platform *Platform
	// Audit is the fairness configuration the in-loop auditor runs under.
	Audit AuditConfig

	// MaxQueue bounds the mutations in flight: admitted and not yet
	// answered (default 4096). Arrivals beyond it are shed with 429.
	MaxQueue int
	// MaxAuditLag sheds mutations once the cached audit snapshot trails
	// the store by more than this many versions (default 0: disabled).
	// It is the backpressure valve that keeps "audited" a live property
	// under write floods.
	MaxAuditLag uint64
	// RetryAfter is the advisory delay clients receive with a 429
	// (default 500ms).
	RetryAfter time.Duration
	// AuditEvery is the cadence of the in-loop AuditIncremental refresh
	// (default 100ms; negative disables the loop — snapshots then move
	// only through AuditNow).
	AuditEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxQueue == 0 {
		c.MaxQueue = 4096
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = 500 * time.Millisecond
	}
	if c.AuditEvery == 0 {
		c.AuditEvery = 100 * time.Millisecond
	}
	return c
}

// Server is the HTTP front-end. Construct with New, wire Handler into an
// http.Server (or httptest), call Start before serving and Stop when done.
type Server struct {
	cfg Config
	p   *Platform
	mux *http.ServeMux

	slots    chan struct{} // one token per mutation in flight
	stopc    chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup // the audit loop

	// admitMu is held shared from admit's stopped check to its inflight.Add
	// and exclusively while Stop sets stopped, so Stop's inflight.Wait covers
	// every admitted mutation and none is admitted after it.
	admitMu  sync.RWMutex
	stopped  bool
	inflight sync.WaitGroup

	// snapshot is the cached audit result reads are served from; audited
	// is the store version stamped into it (the admission lag baseline)
	// and auditedEvents the trace length read with that version.
	snapshot      atomic.Pointer[AuditSnapshot]
	audited       atomic.Uint64
	auditedEvents atomic.Int64
	auditMu       sync.Mutex // serialises AuditNow with the background loop

	// Counters, exported through /statsz and /debug/vars (applied through
	// BatchStats).
	admitted  atomic.Uint64 // mutations admitted
	applied   atomic.Uint64 // admitted mutations whose platform call returned
	shedQueue atomic.Uint64 // 429s from MaxQueue mutations in flight
	shedLag   atomic.Uint64 // 429s from audit lag
	audits    atomic.Uint64 // audit passes completed
	changed   atomic.Uint64 // violations the last pass retracted or added
	publishUS atomic.Uint64 // last pass: engine return to snapshot stored, µs
}

// AuditSnapshot is the version-stamped cached audit result served by
// GET /v1/audit.
type AuditSnapshot struct {
	// Version is the store version observed before the audit pass began:
	// every mutation at or below it is reflected in the reports.
	Version uint64 `json:"version"`
	// Pass counts completed audit passes (1 = cold scan).
	Pass uint64 `json:"pass"`
	// TookMS is the wall time, in milliseconds, of the platform's incremental
	// audit call alone: changelog read, delta check, folding the findings into
	// the standing reports, reading off their fingerprint. Not the wait for
	// the audit lock before it, nor building and storing this snapshot after
	// it (/statsz audit_publish_us).
	TookMS float64 `json:"took_ms"`
	// Fingerprint is the pass's AuditFingerprint — the equality handle
	// determinism checks and serial oracles compare against.
	Fingerprint string `json:"fingerprint"`
	// Reports summarises the five axiom reports in axiom order.
	Reports []ReportSummary `json:"reports"`
}

// ReportSummary is the wire form of one axiom report.
type ReportSummary struct {
	Axiom      string `json:"axiom"`
	Checked    int    `json:"checked"`
	Violations int    `json:"violations"`
	Satisfied  bool   `json:"satisfied"`
}

// AuditFingerprint reduces a report set to a stable hex digest: per axiom,
// its name, Checked and violation count plus the order-free sum of its
// rendered violations' hashes (audit.Fingerprint), computed from scratch. Two
// report sets with equal fingerprints hold the same rendered violations — the
// comparison the serving determinism gates (same seed → same final audit
// report) are built on, and the oracle for the fingerprint snapshots carry.
func AuditFingerprint(reps []*fairness.Report) string { return audit.Fingerprint(reps) }

// ErrStopped is returned (and mapped to HTTP 503) for a mutation that arrives
// after Stop.
var ErrStopped = errors.New("serve: server stopped")

// New builds a Server over cfg.Platform. It panics if the platform is nil.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.Platform == nil {
		panic("serve: Config.Platform is required")
	}
	s := &Server{
		cfg:   cfg,
		p:     cfg.Platform,
		slots: make(chan struct{}, cfg.MaxQueue),
		stopc: make(chan struct{}),
	}
	s.mux = s.buildMux()
	return s
}

// Start runs one synchronous audit pass, so reads have a snapshot from the
// first request on, and launches the in-loop audit goroutine. Mutations
// need no goroutine of their own: each applies on its request's.
func (s *Server) Start() {
	s.AuditNow()
	if s.cfg.AuditEvery > 0 {
		s.wg.Add(1)
		go s.auditLoop()
	}
	setDebugServer(s)
}

// Stop closes admission (later mutations fail with ErrStopped), waits until
// every mutation in flight has been applied and answered, and then stops the
// audit loop. The platform stays usable. Stopping a stopped server is a
// no-op.
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		s.admitMu.Lock()
		s.stopped = true
		s.admitMu.Unlock()
		s.inflight.Wait()
		close(s.stopc)
	})
	s.wg.Wait()
}

// Handler returns the server's HTTP handler, including the /debug surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Snapshot returns the current cached audit snapshot (nil before the first
// pass completes, which Start prevents by auditing synchronously).
func (s *Server) Snapshot() *AuditSnapshot { return s.snapshot.Load() }

// QueueDepth returns how many mutations are in flight: admitted and not yet
// answered.
func (s *Server) QueueDepth() int { return len(s.slots) }

// BatchStats returns how many platform calls the admitted mutations made and
// how many mutations those calls covered. Every mutation is its own bulk
// call, so both are the count of mutations applied.
func (s *Server) BatchStats() (batches, ops uint64) {
	n := s.applied.Load()
	return n, n
}

// AuditLag returns how many store versions the cached audit snapshot
// trails the live store by.
func (s *Server) AuditLag() uint64 {
	v := s.p.Version()
	a := s.audited.Load()
	if v <= a {
		return 0
	}
	return v - a
}

// AuditNow runs one audit pass synchronously and publishes the refreshed
// snapshot. Benchmarks and tests use it to observe a final, fully
// caught-up report; the background loop calls the same path.
func (s *Server) AuditNow() *AuditSnapshot {
	s.auditMu.Lock()
	defer s.auditMu.Unlock()
	ver, events := s.p.Version(), s.p.Log().Len()
	start := time.Now()
	pass := s.p.AuditPass(s.cfg.Audit)
	took := time.Since(start)
	snap := &AuditSnapshot{
		Version:     ver,
		Pass:        s.audits.Add(1),
		TookMS:      float64(took.Microseconds()) / 1e3,
		Fingerprint: pass.Fingerprint,
	}
	for _, r := range pass.Reports {
		snap.Reports = append(snap.Reports, ReportSummary{
			Axiom:      r.Axiom.String(),
			Checked:    r.Checked,
			Violations: len(r.Violations),
			Satisfied:  r.Satisfied(),
		})
	}
	s.snapshot.Store(snap)
	s.audited.Store(ver)
	s.auditedEvents.Store(int64(events))
	s.changed.Store(uint64(pass.Changed))
	s.publishUS.Store(uint64((time.Since(start) - took).Microseconds()))
	return snap
}

// auditLoop refreshes the audit snapshot on the configured cadence,
// skipping a pass only while neither the store version nor the trace
// length moved since the last one: offers append trace events without
// bumping the version, and they move Axioms 1, 2 and 5.
func (s *Server) auditLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.AuditEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopc:
			return
		case <-t.C:
			if s.p.Version() != s.audited.Load() || int64(s.p.Log().Len()) != s.auditedEvents.Load() {
				s.AuditNow()
			}
		}
	}
}
