package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/crowdfair"
	"repro/internal/model"
)

// TestInFlightCapAndStop pins admission as a cap on mutations in flight and
// Stop as a barrier behind them. At MaxQueue 1 a mutation parked inside its
// platform call holds the only slot: a second mutation sheds with 429 at
// once, Stop returns only after the parked one is released and answered, and
// a mutation after Stop gets 503 and changes nothing.
func TestInFlightCapAndStop(t *testing.T) {
	p := crowdfair.NewPlatform(crowdfair.NewUniverse("s0", "s1"))
	s := New(Config{Platform: p, MaxQueue: 1, AuditEvery: -1})
	s.Start()
	post := func(id string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		body := strings.NewReader(`{"ID":"` + id + `"}`)
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/requesters", body))
		return rec
	}

	entered, release := make(chan struct{}), make(chan struct{})
	parked := httptest.NewRecorder()
	go s.mutate(parked, func() error {
		close(entered)
		<-release
		return p.AddRequester(&model.Requester{ID: "r1"})
	})
	<-entered

	rec := post("r2")
	if rec.Code != http.StatusTooManyRequests || !strings.Contains(rec.Body.String(), "mutation queue full") {
		t.Fatalf("second mutation: status %d, body %q; want 429 mutation queue full", rec.Code, rec.Body.String())
	}
	if d := s.QueueDepth(); d != 1 {
		t.Fatalf("QueueDepth = %d with one mutation parked, want 1", d)
	}

	// Stop's own return orders the parked handler's write before this read.
	stopped := make(chan string, 1)
	go func() {
		s.Stop()
		stopped <- parked.Body.String()
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a mutation was parked in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if body := <-stopped; !strings.Contains(body, `"ok":true`) {
		t.Fatalf("Stop returned before the parked mutation was answered (body %q)", body)
	}

	version := p.Version()
	if rec := post("r3"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("mutation after Stop: status %d, want 503", rec.Code)
	}
	if v := p.Version(); v != version {
		t.Fatalf("store moved from version %d to %d after Stop", version, v)
	}
}
