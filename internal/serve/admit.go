package serve

import (
	"fmt"
	"net/http"
)

// ShedError is returned (and mapped to HTTP 429 + Retry-After) when
// admission control rejects a mutation. Reason distinguishes the
// queue-full and audit-lag valves.
type ShedError struct {
	Reason string
	Lag    uint64
}

func (e *ShedError) Error() string {
	if e.Lag > 0 {
		return fmt.Sprintf("serve: shed (%s, audit lag %d versions)", e.Reason, e.Lag)
	}
	return fmt.Sprintf("serve: shed (%s)", e.Reason)
}

// admit takes an in-flight slot for one mutation, or sheds it when the
// auditor trails the store by more than MaxAuditLag versions or MaxQueue
// mutations are already in flight, or refuses it after Stop. On nil the
// caller must call release once the mutation is answered.
func (s *Server) admit() error {
	if m := s.cfg.MaxAuditLag; m > 0 {
		if lag := s.AuditLag(); lag > m {
			s.shedLag.Add(1)
			return &ShedError{Reason: "audit lag over bound", Lag: lag}
		}
	}
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.stopped {
		return ErrStopped
	}
	select {
	case s.slots <- struct{}{}:
	default:
		s.shedQueue.Add(1)
		return &ShedError{Reason: "mutation queue full"}
	}
	s.inflight.Add(1)
	s.admitted.Add(1)
	return nil
}

// release frees the in-flight slot admit took.
func (s *Server) release() {
	<-s.slots
	s.inflight.Done()
}

// mutate runs apply through admission control on the request's own
// goroutine and writes the outcome. The store enforces every check apply
// can fail (validation, duplicates, dangling references) atomically under
// its write lock, so a bad request 4xxes without a pre-screen. A 200
// carries the store version read after apply returned: it covers the write
// it acknowledges.
func (s *Server) mutate(w http.ResponseWriter, apply func() error) {
	if err := s.admit(); err != nil {
		s.writeError(w, err)
		return
	}
	defer s.release()
	err := apply()
	s.applied.Add(1)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.okNow())
}
