package serve_test

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"repro/crowdfair"
	"repro/internal/model"
	"repro/internal/serve"
)

// mutationRoutes are the routes that change the platform: each decodes its
// request body (the checkpoint route reads none) and applies it.
var mutationRoutes = []struct{ method, path string }{
	{"POST", "/v1/workers"},
	{"PUT", "/v1/workers/w1"},
	{"POST", "/v1/requesters"},
	{"POST", "/v1/tasks"},
	{"POST", "/v1/contributions"},
	{"PUT", "/v1/contributions/c1"},
	{"POST", "/v1/offers"},
	{"POST", "/v1/checkpoint"},
}

// FuzzMutationBodies sends arbitrary bytes to one mutation route of a
// fresh in-memory server holding requester r1, worker w1, task t1 and
// contribution c1. Whatever the body, the server must answer without a
// panic and without a 5xx: a body it cannot use is the client's error.
func FuzzMutationBodies(f *testing.F) {
	// One body per route that it applies (an in-memory checkpoint answers
	// 409), in mutationRoutes order.
	for route, body := range []string{
		`{"ID":"w2","Skills":"101"}`,
		`{"ID":"w1","Skills":"010","Computed":{"acceptance_ratio":{"num":0.5}},"Declared":{"country":{"str":"fr"}}}`,
		`{"ID":"r2","Name":"R2"}`,
		`{"ID":"t2","Requester":"r1","Skills":"100","Reward":1}`,
		`{"ID":"c2","Task":"t1","Worker":"w1","Quality":0.9,"SubmittedAt":2}`,
		`{"ID":"c1","Task":"t1","Worker":"w1","Accepted":true,"Paid":1}`,
		`{"Task":"t1","Worker":"w1"}`,
		``,
	} {
		f.Add(uint8(route), []byte(body))
	}
	f.Add(uint8(0), []byte(`{"ID":"w3","Skills":"1"}`))
	f.Add(uint8(3), []byte(`{"ID":"t3","Requester":"nobody","Reward":-1}`))
	f.Add(uint8(6), []byte(`{"Task":"t404","Worker":"w1"`))
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		r := mutationRoutes[int(route)%len(mutationRoutes)]
		s := seededServer(t)
		defer s.Stop()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(r.method, r.path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("%s %s %q: status %d: %s", r.method, r.path, body, rec.Code, rec.Body)
		}
	})
}

// seededServer starts a server over a fresh in-memory platform holding r1,
// w1, t1 and c1. Its audit loop is off, so Start runs one synchronous pass
// and starts no goroutine.
func seededServer(t *testing.T) *serve.Server {
	t.Helper()
	u := crowdfair.NewUniverse("s0", "s1", "s2")
	p := crowdfair.NewPlatform(u)
	if err := p.AddRequester(&model.Requester{ID: "r1"}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddWorkers([]*model.Worker{{ID: "w1", Skills: u.MustVector("s0")}}); err != nil {
		t.Fatal(err)
	}
	if err := p.PostTasks([]*model.Task{{ID: "t1", Requester: "r1", Skills: u.MustVector("s0"), Reward: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := p.RecordContributions([]*model.Contribution{{ID: "c1", Task: "t1", Worker: "w1", Quality: 0.5, SubmittedAt: 1}}); err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Config{Platform: p, Audit: crowdfair.DefaultAuditConfig(), AuditEvery: -1})
	s.Start()
	return s
}
