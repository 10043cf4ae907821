package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/crowdfair"
	"repro/internal/model"
	"repro/internal/store"
)

// buildMux wires the /v1 API, the health/stats endpoints, and the /debug
// surface. Routing is Go 1.21-style (this module pins go 1.21, so the 1.22
// method/wildcard mux patterns are unavailable): literal paths for
// collections, trailing-slash subtrees with manual id extraction for
// single entities, and explicit method dispatch in each handler.
func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/workers", s.handleWorkers)
	mux.HandleFunc("/v1/workers/", s.handleWorkerByID)
	mux.HandleFunc("/v1/requesters", s.handleRequesters)
	mux.HandleFunc("/v1/tasks", s.handleTasks)
	mux.HandleFunc("/v1/tasks/", s.handleTaskByID)
	mux.HandleFunc("/v1/contributions", s.handleContributions)
	mux.HandleFunc("/v1/contributions/", s.handleContributionByID)
	mux.HandleFunc("/v1/offers", s.handleOffers)
	mux.HandleFunc("/v1/audit", s.handleAudit)
	mux.HandleFunc("/v1/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	registerDebug(mux)
	return mux
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

// writeError maps err onto an HTTP status: shed → 429 with Retry-After,
// store sentinels → 409/404/400, stopped → 503, anything else → 500.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	var shed *ShedError
	status := http.StatusInternalServerError
	switch {
	case errors.As(err, &shed):
		w.Header().Set("Retry-After", strconv.FormatFloat(s.cfg.RetryAfter.Seconds(), 'f', -1, 64))
		status = http.StatusTooManyRequests
	case errors.Is(err, store.ErrDuplicate):
		status = http.StatusConflict
	case errors.Is(err, store.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, store.ErrInvalid):
		status = http.StatusBadRequest
	case errors.Is(err, ErrStopped):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// decodeInto strictly decodes the request body into v.
func decodeInto(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: bad request body: %v", store.ErrInvalid, err)
	}
	return nil
}

// okBody acknowledges an applied mutation.
type okBody struct {
	OK      bool   `json:"ok"`
	Version uint64 `json:"version"`
}

func (s *Server) okNow() okBody { return okBody{OK: true, Version: s.p.Version()} }

func methodNotAllowed(w http.ResponseWriter) {
	writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "method not allowed"})
}

// pathID extracts the entity id from a subtree path like /v1/workers/w12.
func pathID(r *http.Request, prefix string) (string, bool) {
	id := strings.TrimPrefix(r.URL.Path, prefix)
	if id == "" || strings.Contains(id, "/") {
		return "", false
	}
	return id, true
}

func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w)
		return
	}
	var wk model.Worker
	if err := decodeInto(r, &wk); err != nil {
		s.writeError(w, err)
		return
	}
	s.mutate(w, func() error { return s.p.AddWorkers([]*model.Worker{&wk}) })
}

func (s *Server) handleWorkerByID(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(r, "/v1/workers/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	switch r.Method {
	case http.MethodGet:
		wk, err := s.p.Store().Worker(model.WorkerID(id))
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, wk)
	case http.MethodPut:
		var wk model.Worker
		if err := decodeInto(r, &wk); err != nil {
			s.writeError(w, err)
			return
		}
		if wk.ID == "" {
			wk.ID = model.WorkerID(id)
		}
		if wk.ID != model.WorkerID(id) {
			s.writeError(w, fmt.Errorf("%w: body id %q != path id %q", store.ErrInvalid, wk.ID, id))
			return
		}
		s.mutate(w, func() error { return s.p.UpdateWorkers([]*model.Worker{&wk}) })
	default:
		methodNotAllowed(w)
	}
}

func (s *Server) handleRequesters(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w)
		return
	}
	var rq model.Requester
	if err := decodeInto(r, &rq); err != nil {
		s.writeError(w, err)
		return
	}
	s.mutate(w, func() error { return s.p.AddRequester(&rq) })
}

func (s *Server) handleTasks(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w)
		return
	}
	var t model.Task
	if err := decodeInto(r, &t); err != nil {
		s.writeError(w, err)
		return
	}
	s.mutate(w, func() error { return s.p.PostTasks([]*model.Task{&t}) })
}

func (s *Server) handleTaskByID(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(r, "/v1/tasks/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	if r.Method != http.MethodGet {
		methodNotAllowed(w)
		return
	}
	t, err := s.p.Store().Task(model.TaskID(id))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, t)
}

func (s *Server) handleContributions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w)
		return
	}
	var c model.Contribution
	if err := decodeInto(r, &c); err != nil {
		s.writeError(w, err)
		return
	}
	s.mutate(w, func() error { return s.p.RecordContributions([]*model.Contribution{&c}) })
}

func (s *Server) handleContributionByID(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(r, "/v1/contributions/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	switch r.Method {
	case http.MethodGet:
		c, err := s.p.Store().Contribution(model.ContributionID(id))
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, c)
	case http.MethodPut:
		var c model.Contribution
		if err := decodeInto(r, &c); err != nil {
			s.writeError(w, err)
			return
		}
		if c.ID == "" {
			c.ID = model.ContributionID(id)
		}
		if c.ID != model.ContributionID(id) {
			s.writeError(w, fmt.Errorf("%w: body id %q != path id %q", store.ErrInvalid, c.ID, id))
			return
		}
		s.mutate(w, func() error { return s.p.UpdateContribution(&c) })
	default:
		methodNotAllowed(w)
	}
}

func (s *Server) handleOffers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w)
		return
	}
	var o crowdfair.Offer
	if err := decodeInto(r, &o); err != nil {
		s.writeError(w, err)
		return
	}
	s.mutate(w, func() error { return s.p.OfferBatch([]crowdfair.Offer{o}) })
}

// handleAudit serves the cached, version-stamped audit snapshot. It never
// runs an audit: freshness is whatever the in-loop auditor last published,
// and the Version/lag fields tell the client exactly how fresh that is.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w)
		return
	}
	snap := s.Snapshot()
	if snap == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "no audit snapshot yet"})
		return
	}
	resp := struct {
		*AuditSnapshot
		StoreVersion uint64 `json:"store_version"`
		Lag          uint64 `json:"lag"`
	}{snap, s.p.Version(), s.AuditLag()}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w)
		return
	}
	if !s.p.Durable() {
		writeJSON(w, http.StatusConflict, errorBody{Error: "platform is not durable (no WAL directory)"})
		return
	}
	if err := s.p.Checkpoint(); err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.okNow())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// statszBody is the serving stats snapshot: entity inventory, audit
// freshness, mutations in flight, and the shedding counters the load
// harness asserts against.
type statszBody struct {
	Version       uint64 `json:"version"`
	Workers       int    `json:"workers"`
	Tasks         int    `json:"tasks"`
	Contributions int    `json:"contributions"`
	Events        int    `json:"events"`
	AuditVersion  uint64 `json:"audit_version"`
	AuditLag      uint64 `json:"audit_lag"`
	AuditPasses   uint64 `json:"audit_passes"`
	AuditChanged  uint64 `json:"audit_changed"`    // last pass: violations retracted + added
	AuditPublish  uint64 `json:"audit_publish_us"` // last pass: engine return → snapshot stored
	QueueDepth    int    `json:"queue_depth"`      // mutations in flight
	QueueCap      int    `json:"queue_cap"`
	Admitted      uint64 `json:"admitted"`
	ShedQueue     uint64 `json:"shed_queue"`
	ShedLag       uint64 `json:"shed_lag"`
	WALAppends    uint64 `json:"wal_appends"`
	WALBatches    uint64 `json:"wal_batches"`
	WALSyncs      uint64 `json:"wal_syncs"`
}

func (s *Server) statsz() statszBody {
	workers, tasks, contribs, events := s.p.EntityCounts()
	b := statszBody{
		Version:       s.p.Version(),
		Workers:       workers,
		Tasks:         tasks,
		Contributions: contribs,
		Events:        events,
		AuditVersion:  s.audited.Load(),
		AuditLag:      s.AuditLag(),
		AuditPasses:   s.audits.Load(),
		AuditChanged:  s.changed.Load(),
		AuditPublish:  s.publishUS.Load(),
		QueueDepth:    len(s.slots),
		QueueCap:      cap(s.slots),
		Admitted:      s.admitted.Load(),
		ShedQueue:     s.shedQueue.Load(),
		ShedLag:       s.shedLag.Load(),
	}
	if s.p.Durable() {
		ws := s.p.Store().WALStats()
		b.WALAppends, b.WALBatches, b.WALSyncs = ws.Appends, ws.Batches, ws.Syncs
	}
	return b
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w)
		return
	}
	writeJSON(w, http.StatusOK, s.statsz())
}
