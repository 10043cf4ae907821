package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/crowdfair"
	"repro/internal/load"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/store"
)

func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	if cfg.Platform == nil {
		cfg.Platform = crowdfair.NewPlatform(crowdfair.NewUniverse("s0", "s1", "s2"))
	}
	if cfg.Audit.SkillThreshold == 0 {
		cfg.Audit = crowdfair.DefaultAuditConfig()
	}
	s := serve.New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Stop()
	})
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any) *http.Response {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func wantStatus(t *testing.T, resp *http.Response, want int) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != want {
		var b bytes.Buffer
		_, _ = b.ReadFrom(resp.Body)
		t.Fatalf("status = %d, want %d (body: %s)", resp.StatusCode, want, b.String())
	}
}

func TestCRUDRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})

	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/requesters", &model.Requester{ID: "r1", Name: "R"}), 200)
	w := &model.Worker{ID: "w1", Skills: model.SkillVector{true, false, true}}
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/workers", w), 200)
	task := &model.Task{ID: "t1", Requester: "r1", Skills: model.SkillVector{true, false, false}, Reward: 1}
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/tasks", task), 200)
	c := &model.Contribution{ID: "c1", Task: "t1", Worker: "w1", Quality: 0.9, SubmittedAt: 1}
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/contributions", c), 200)
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/offers", &crowdfair.Offer{Task: "t1", Worker: "w1"}), 200)

	// Read the worker back and check the payload survived the round trip.
	resp := doJSON(t, "GET", ts.URL+"/v1/workers/w1", nil)
	var got model.Worker
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.ID != "w1" || len(got.Skills) != 3 || !got.Skills[0] {
		t.Fatalf("worker round trip = %+v", got)
	}

	// Update the worker and confirm the write took.
	w.Computed = model.Attributes{model.AttrAcceptanceRatio: model.Num(0.5)}
	wantStatus(t, doJSON(t, "PUT", ts.URL+"/v1/workers/w1", w), 200)
	resp = doJSON(t, "GET", ts.URL+"/v1/workers/w1", nil)
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.Computed[model.AttrAcceptanceRatio] != model.Num(0.5) {
		t.Fatalf("update not visible: %+v", got.Computed)
	}

	// Accept the contribution through PUT.
	c.Accepted = true
	c.Paid = 1
	wantStatus(t, doJSON(t, "PUT", ts.URL+"/v1/contributions/c1", c), 200)

	// Error mapping: duplicate → 409, missing → 404, garbage → 400.
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/workers", w), 409)
	wantStatus(t, doJSON(t, "GET", ts.URL+"/v1/workers/nope", nil), 404)
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/tasks", map[string]any{"Bogus": 1}), 400)
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/offers", &crowdfair.Offer{Task: "t404", Worker: "w1"}), 404)
	// Checkpoint on an in-memory platform is a conflict, not a crash.
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/checkpoint", nil), 409)
}

func TestAuditEndpointServesCachedSnapshot(t *testing.T) {
	// Background audits disabled: the snapshot only moves via AuditNow, so
	// the handler observably serves the cache rather than re-auditing.
	p := crowdfair.NewPlatform(crowdfair.NewUniverse("s0", "s1", "s2"))
	s, ts := newTestServer(t, serve.Config{Platform: p, AuditEvery: -1})
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/requesters", &model.Requester{ID: "r1"}), 200)

	resp := doJSON(t, "GET", ts.URL+"/v1/audit", nil)
	var snap struct {
		Version      uint64 `json:"version"`
		Pass         uint64 `json:"pass"`
		Fingerprint  string `json:"fingerprint"`
		StoreVersion uint64 `json:"store_version"`
		Lag          uint64 `json:"lag"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Pass != 1 {
		t.Fatalf("pass = %d, want 1 (the synchronous Start audit)", snap.Pass)
	}
	if snap.Lag == 0 {
		t.Fatal("mutation after the audit should show as lag")
	}
	if snap.Fingerprint == "" {
		t.Fatal("empty fingerprint")
	}
	got := s.AuditNow()
	if got.Pass != 2 {
		t.Fatalf("AuditNow pass = %d", got.Pass)
	}
	// The published fingerprint is the engine's running one; the from-scratch
	// function over a full scan is its oracle.
	if want := serve.AuditFingerprint(p.AuditFairness(crowdfair.DefaultAuditConfig())); got.Fingerprint != want {
		t.Fatalf("published fingerprint %s != from-scratch %s", got.Fingerprint, want)
	}
}

// TestShedOnAuditLag drives the audit-lag valve deterministically: with
// background audits off and MaxAuditLag=1, the third sequential mutation
// must observe lag 2 and shed with 429 + Retry-After, and a catch-up audit
// must re-open admission.
func TestShedOnAuditLag(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{MaxAuditLag: 1, AuditEvery: -1})
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/requesters", &model.Requester{ID: "r1"}), 200)
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/requesters", &model.Requester{ID: "r2"}), 200)

	resp := doJSON(t, "POST", ts.URL+"/v1/requesters", &model.Requester{ID: "r3"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	var body struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if !strings.Contains(body.Error, "audit lag") {
		t.Fatalf("shed reason = %q", body.Error)
	}

	// Catching the auditor up re-opens admission.
	s.AuditNow()
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/requesters", &model.Requester{ID: "r3"}), 200)
}

// TestAckCarriesPostWriteVersion pins the acknowledgement body: a 200's
// version is the store version after the write it acknowledges, so each of
// a run of sequential mutations reads back exactly p.Version() and the
// versions strictly increase.
func TestAckCarriesPostWriteVersion(t *testing.T) {
	p := crowdfair.NewPlatform(crowdfair.NewUniverse("s0", "s1"))
	_, ts := newTestServer(t, serve.Config{Platform: p, AuditEvery: -1})
	var last uint64
	for _, m := range []struct {
		method, path string
		body         any
	}{
		{"POST", "/v1/requesters", &model.Requester{ID: "r1"}},
		{"POST", "/v1/workers", &model.Worker{ID: "w1", Skills: model.SkillVector{true, false}}},
		{"POST", "/v1/tasks", &model.Task{ID: "t1", Requester: "r1", Skills: model.SkillVector{true, false}, Reward: 1}},
		{"POST", "/v1/contributions", &model.Contribution{ID: "c1", Task: "t1", Worker: "w1", Quality: 0.5}},
		{"PUT", "/v1/workers/w1", &model.Worker{ID: "w1", Skills: model.SkillVector{true, true}}},
	} {
		resp := doJSON(t, m.method, ts.URL+m.path, m.body)
		var ack struct {
			OK      bool   `json:"ok"`
			Version uint64 `json:"version"`
		}
		err := json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !ack.OK {
			t.Fatalf("%s %s: status %d, ack %+v, err %v", m.method, m.path, resp.StatusCode, ack, err)
		}
		if v := p.Version(); ack.Version != v {
			t.Fatalf("%s %s acked version %d, store is at %d after it", m.method, m.path, ack.Version, v)
		}
		if ack.Version <= last {
			t.Fatalf("%s %s acked version %d, not above the previous %d", m.method, m.path, ack.Version, last)
		}
		last = ack.Version
	}
}

// TestOfferOnlyTrafficIsAudited: an offer appends a trace event and leaves
// the store version alone, yet it moves Axiom 1 (here, one of two
// identical workers is offered the task), so the background loop must
// re-audit on it. The served fingerprint has to reach a fresh full audit's.
func TestOfferOnlyTrafficIsAudited(t *testing.T) {
	p := crowdfair.NewPlatform(crowdfair.NewUniverse("s0", "s1"))
	cfg := crowdfair.DefaultAuditConfig()
	s, ts := newTestServer(t, serve.Config{Platform: p, Audit: cfg, AuditEvery: 2 * time.Millisecond})
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/requesters", &model.Requester{ID: "r1"}), 200)
	for _, id := range []model.WorkerID{"w1", "w2"} {
		wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/workers", &model.Worker{ID: id, Skills: model.SkillVector{true, false}}), 200)
	}
	task := &model.Task{ID: "t1", Requester: "r1", Skills: model.SkillVector{true, false}, Reward: 1}
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/tasks", task), 200)
	ver := p.Version()
	for deadline := time.Now().Add(5 * time.Second); s.Snapshot().Version != ver; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the audit loop never caught up with the writes")
		}
	}

	before := s.Snapshot().Fingerprint
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/offers", &crowdfair.Offer{Task: "t1", Worker: "w1"}), 200)
	if p.Version() != ver {
		t.Fatalf("an offer moved the store version %d -> %d", ver, p.Version())
	}
	want := serve.AuditFingerprint(p.AuditFairness(cfg))
	if before == want {
		t.Fatal("the offer did not change the audit: the test shows nothing")
	}
	for deadline := time.Now().Add(5 * time.Second); s.Snapshot().Fingerprint != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("served fingerprint %s never reached the full audit's %s after an offer", s.Snapshot().Fingerprint, want)
		}
	}
}

// TestConcurrentServeMatchesSerialOracle is the serving determinism gate
// (run under -race in CI): a closed-loop concurrent replay of a seeded
// plan — mutation HTTP requests racing the in-loop incremental auditor —
// must end in exactly the audit report a serial application of the same
// plan produces.
func TestConcurrentServeMatchesSerialOracle(t *testing.T) {
	plan := load.BuildPlan(load.MixSpec{Workers: 40, Tasks: 12, Requests: 400}, 12345)
	cfg := crowdfair.DefaultAuditConfig()

	p := crowdfair.NewPlatform(plan.Universe)
	if err := plan.SeedPlatform(p); err != nil {
		t.Fatal(err)
	}
	// A fast audit cadence maximises audits racing mutations.
	s := serve.New(serve.Config{Platform: p, Audit: cfg, AuditEvery: time.Millisecond})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	runner := &load.Runner{Base: ts.URL}
	res := runner.Run(plan, 8)
	if res.Errors != 0 || res.Shed != 0 {
		t.Fatalf("run had %d errors, %d sheds (all requests must apply for the oracle comparison)", res.Errors, res.Shed)
	}
	s.Stop()

	final := s.AuditNow()
	want, err := plan.Oracle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if final.Fingerprint != want {
		t.Fatalf("concurrent replay fingerprint %s != serial oracle %s", final.Fingerprint, want)
	}
}

// TestCheckpointUnderServeMatchesSerialOracle is the serving oracle over a
// durable platform: the same concurrent replay, with a checkpoint every 2 ms
// racing the writes and the audit loop, must end in the serial oracle's
// fingerprint — live, and again on the first audit pass after a reopen,
// which warm-starts from the last checkpoint's auditor state.
func TestCheckpointUnderServeMatchesSerialOracle(t *testing.T) {
	plan := load.BuildPlan(load.MixSpec{Workers: 40, Tasks: 12, Requests: 400}, 12345)
	cfg := crowdfair.DefaultAuditConfig()
	want, err := plan.Oracle(cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	p, err := crowdfair.OpenPlatform(dir, plan.Universe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.SeedPlatform(p); err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Config{Platform: p, Audit: cfg, AuditEvery: time.Millisecond})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	type outcome struct {
		checkpoints int
		err         error
	}
	done := make(chan outcome, 1)
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var o outcome
		for {
			select {
			case <-stop:
				done <- o
				return
			case <-tick.C:
				if o.err = p.Checkpoint(); o.err != nil {
					done <- o
					return
				}
				o.checkpoints++
			}
		}
	}()
	res := (&load.Runner{Base: ts.URL}).Run(plan, 8)
	close(stop)
	o := <-done
	if o.err != nil {
		t.Fatalf("checkpoint %d under serve: %v", o.checkpoints+1, o.err)
	}
	if o.checkpoints == 0 {
		t.Fatal("no checkpoint ran during the replay")
	}
	if res.Errors != 0 || res.Shed != 0 {
		t.Fatalf("run had %d errors, %d sheds (all requests must apply for the oracle comparison)", res.Errors, res.Shed)
	}
	s.Stop()
	if got := s.AuditNow().Fingerprint; got != want {
		t.Fatalf("live fingerprint %s after %d checkpoints != serial oracle %s", got, o.checkpoints, want)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if man, err := store.ReadManifest(dir); err != nil || man.AuditFile == "" {
		t.Fatalf("the last checkpoint carried no auditor state to warm-start from (%v)", err)
	}

	q, err := crowdfair.OpenPlatformWAL(dir, nil, cfg, crowdfair.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if got := q.AuditPass(cfg).Fingerprint; got != want {
		t.Fatalf("warm first pass after reopen %s != serial oracle %s", got, want)
	}
}

// TestStatszAndDebugVars exercises the observability surface.
func TestStatszAndDebugVars(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/requesters", &model.Requester{ID: "r1"}), 200)

	resp := doJSON(t, "GET", ts.URL+"/statsz", nil)
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, key := range []string{"version", "admitted", "shed_queue", "shed_lag", "audit_passes", "audit_lag", "queue_cap", "audit_changed", "audit_publish_us"} {
		if _, ok := st[key]; !ok {
			t.Fatalf("statsz missing %q: %v", key, st)
		}
	}

	resp = doJSON(t, "GET", ts.URL+"/debug/vars", nil)
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := vars["crowdserve"]; !ok {
		t.Fatal("/debug/vars missing crowdserve")
	}
	resp = doJSON(t, "GET", ts.URL+"/debug/pprof/cmdline", nil)
	wantStatus(t, resp, 200)
}

// TestStopAppliesNothingTwice pins shutdown: Stop applies nothing of its own
// (an offer applied twice is a second event), and a second Stop returns
// instead of panicking.
func TestStopAppliesNothingTwice(t *testing.T) {
	p := crowdfair.NewPlatform(crowdfair.NewUniverse("s0", "s1"))
	s := serve.New(serve.Config{Platform: p, AuditEvery: -1})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/requesters", &model.Requester{ID: "r1"}), 200)
	w := &model.Worker{ID: "w1", Skills: model.SkillVector{true, false}}
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/workers", w), 200)
	task := &model.Task{ID: "t1", Requester: "r1", Skills: model.SkillVector{true, false}, Reward: 1}
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/tasks", task), 200)
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/offers", &crowdfair.Offer{Task: "t1", Worker: "w1"}), 200)

	before := p.Log().Len()
	s.Stop()
	if after := p.Log().Len(); after != before {
		t.Fatalf("Stop re-applied a mutation: %d events -> %d", before, after)
	}
	s.Stop()
}

// TestEnqueueAfterStopFailsFast pins the other half of shutdown: once Stop
// has returned, a mutation must be refused with 503 at admission — not
// parked, and not applied — and must leave neither the in-flight count nor
// the platform changed.
func TestEnqueueAfterStopFailsFast(t *testing.T) {
	p := crowdfair.NewPlatform(crowdfair.NewUniverse("s0", "s1"))
	s := serve.New(serve.Config{Platform: p, AuditEvery: -1})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/requesters", &model.Requester{ID: "r1"}), 200)
	s.Stop()
	version := p.Version()

	done := make(chan *http.Response, 1)
	go func() { done <- doJSON(t, "POST", ts.URL+"/v1/requesters", &model.Requester{ID: "r2"}) }()
	select {
	case resp := <-done:
		wantStatus(t, resp, http.StatusServiceUnavailable)
	case <-time.After(5 * time.Second):
		t.Fatal("mutation after Stop parked instead of failing fast")
	}
	if d := s.QueueDepth(); d != 0 {
		t.Fatalf("%d mutations in flight after Stop", d)
	}
	if v := p.Version(); v != version {
		t.Fatalf("store moved from version %d to %d after Stop", version, v)
	}
	// Reads outlive Stop: the snapshot and the entities stay servable.
	wantStatus(t, doJSON(t, "GET", ts.URL+"/v1/audit", nil), 200)
}
