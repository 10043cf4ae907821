package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/crowdfair"
	"repro/internal/serve"
)

// serveSpec is one serving set-up: who calls, how, and onto what.
type serveSpec struct {
	rate  float64 // open loop, requests per second
	mix   mix
	sync  crowdfair.SyncPolicy
	shape popShape
}

var serveOpenMixed = serveSpec{
	rate: 1500, mix: openMix,
	sync:  crowdfair.SyncInterval(5 * time.Millisecond), // crowdserve's -walsync default
	shape: popShape{workers: 4000, tasksPerCluster: 20, contribEvery: 4},
}

// clients is the number of sender goroutines, each with one connection,
// all in this process.
func clients() int {
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}

func (sp serveSpec) scaled(o options) serveSpec {
	if o.smoke {
		sp.shape = popShape{workers: 200, tasksPerCluster: 2, contribEvery: 4}
		sp.rate = 300
	}
	return sp
}

func (sp serveSpec) plan(o options) *plan {
	return generatePlan(sp.shape, sp.mix, int(sp.rate*float64(o.seconds)), sp.rate, o.seed)
}

// serveEnv is one live serving stack: durable platform, server, loopback
// listener.
type serveEnv struct {
	dir string
	p   *crowdfair.Platform
	srv *serve.Server
	ts  *httptest.Server
	// handler times each request inside the HTTP server when tracing.
	handler *timingHandler
}

// startServe builds the stack crowdserve would: a durable platform under a
// fresh directory, seeded, fronted by a started Server on real loopback.
func startServe(sp serveSpec, pl *plan, root string, traced bool) (*serveEnv, error) {
	dir, err := os.MkdirTemp(root, "platform-")
	if err != nil {
		return nil, err
	}
	cfg := crowdfair.DefaultAuditConfig()
	p, err := crowdfair.OpenPlatformWAL(dir, pl.pop.universe, cfg, crowdfair.WALOptions{Sync: sp.sync})
	if err != nil {
		return nil, err
	}
	if err := pl.pop.seed(p); err != nil {
		return nil, fmt.Errorf("seed: %w", err)
	}
	env := &serveEnv{dir: dir, p: p, srv: serve.New(serve.Config{Platform: p, Audit: cfg})}
	env.srv.Start()
	var h http.Handler = env.srv.Handler()
	if traced {
		env.handler = &timingHandler{next: h, spans: make([]handlerSpan, len(pl.reqs))}
		h = env.handler
	}
	env.ts = httptest.NewServer(h)
	return env, nil
}

// stop tears the stack down in dependency order. The directory stays for
// the caller to inspect or remove.
func (e *serveEnv) stop() error {
	e.ts.Close()
	e.srv.Stop()
	return e.p.Close()
}

// handlerSpan is the server-side interval of one request.
type handlerSpan struct{ start, end time.Time }

// timingHandler wraps the server's handler in a traced run. The client
// names each request in X-Bench-Req, which joins this span to the client's.
type timingHandler struct {
	next  http.Handler
	spans []handlerSpan // indexed by request; each slot written once
}

func (h *timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	if i, err := strconv.Atoi(r.Header.Get("X-Bench-Req")); err == nil && i >= 0 && i < len(h.spans) {
		h.spans[i] = handlerSpan{start, time.Now()}
	}
}

// sample is the client's view of one request, as offsets from the start of
// the measured phase.
type sample struct {
	// due is when the request was scheduled, deq when a sender began to send
	// it, done when its response had been read. A closed loop has no
	// schedule: due is deq.
	due, deq, done time.Duration
	status         int  // HTTP status; 0 for a transport error or timeout
	sent           bool // a sender took the request
	waited         bool // the sender was free before due and slept until it
}

func (s *sample) ok() bool { return s.status == http.StatusOK }

// probeEvery is the sampler's period. Staleness is measured between two
// sampler readings, so the period is also its resolution: 1 ms is 1 % of
// the ~100 ms it measures here.
const probeEvery = time.Millisecond

// probe is one sampler reading.
type probe struct {
	at         time.Duration
	staleness  time.Duration
	queueDepth int
	auditLag   uint64
	backlog    int
	passMS     float64 // wall time of the audit pass behind the current snapshot
	pass       uint64
}

// loadResult is everything one measured phase observed.
type loadResult struct {
	t0      time.Time
	samples []sample // indexed like the plan's requests
	probes  []probe
	wall    time.Duration // phase start to last response
}

// alarm is a precise sleep: a timerfd read through the runtime's network
// poller. time.Sleep will not do for pacing: on an idle process the Go
// runtime waits for its next timer in epoll_wait, whose timeout is whole
// milliseconds, so a sub-millisecond sleep overshoots by about one — more
// than the request it paces takes. A timer that is a file descriptor wakes
// the poller when it fires instead, and unlike a thread blocked in
// nanosleep(2) the sleeping goroutine holds no scheduler slot meanwhile.
type alarm struct {
	fd uintptr // kept apart: (*os.File).Fd would put the descriptor in blocking mode
	f  *os.File
}

func newAlarm() (*alarm, error) {
	const clockMonotonic, nonblockCloexec = 1, syscall.O_NONBLOCK | syscall.O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, nonblockCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &alarm{fd, os.NewFile(fd, "timerfd")}, nil
}

// sleepUntil returns at t, or at once if t has passed.
func (a *alarm) sleepUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	// struct itimerspec{it_interval, it_value}: one shot, d from now.
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, a.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := a.f.Read(expirations[:])
	return err
}

func (a *alarm) Close() error { return a.f.Close() }

// runLoad drives the first n requests of the plan at the server from
// clients() senders, one connection each. A sender takes the next request
// and, in an open loop, sleeps until its due time if that is still ahead;
// latency counts from the due instant either way, so a stall charges every
// request it delays. In a closed loop a sender takes the next request the
// moment its previous one is answered, until the deadline.
func runLoad(env *serveEnv, pl *plan, n int, dur time.Duration) (*loadResult, error) {
	res := &loadResult{samples: make([]sample, n)}
	base := env.ts.URL
	open := pl.due != nil
	errs := make([]error, clients()) // a sender's timer failure, one slot each

	var next atomic.Int64
	stopProbe := make(chan struct{})
	var probeWG, sendWG sync.WaitGroup

	res.t0 = time.Now()
	t0 := res.t0
	deadline := t0.Add(dur)

	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		res.probes = sampleServer(env, pl, n, t0, &next, stopProbe)
	}()
	for c := 0; c < clients(); c++ {
		sendWG.Add(1)
		go func(c int) {
			defer sendWG.Done()
			var wake *alarm
			if open {
				if wake, errs[c] = newAlarm(); errs[c] != nil {
					return
				}
				defer wake.Close()
			}
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
			for {
				i := int(next.Add(1) - 1)
				if i >= n || (!open && !time.Now().Before(deadline)) {
					return
				}
				s := &res.samples[i]
				if open {
					due := t0.Add(pl.due[i])
					s.waited = time.Now().Before(due)
					if errs[c] = wake.sleepUntil(due); errs[c] != nil {
						return
					}
				}
				s.sent = true
				s.deq = time.Since(t0)
				s.due = s.deq
				if open {
					s.due = pl.due[i]
				}
				s.status = send(client, base, &pl.reqs[i], i, env.handler != nil)
				s.done = time.Since(t0)
			}
		}(c)
	}
	sendWG.Wait()
	res.wall = time.Since(t0)
	close(stopProbe)
	probeWG.Wait()
	return res, errors.Join(errs...)
}

// send issues one request and returns its status (0 on transport error).
func send(client *http.Client, base string, r *request, i int, traced bool) int {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, base+r.path, body)
	if err != nil {
		return 0
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traced {
		req.Header.Set("X-Bench-Req", strconv.Itoa(i))
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused; the status is the outcome
	resp.Body.Close()
	return resp.StatusCode
}

// sampleServer reads the server's freshness and queues every probeEvery until
// stop closes. Staleness is the age of the oldest store version the cached
// audit snapshot does not cover: the sampler remembers when it first saw
// each version, drops the ones the snapshot has caught up with, and the
// front of what remains is the oldest uncovered one.
func sampleServer(env *serveEnv, pl *plan, n int, t0 time.Time, next *atomic.Int64, stop <-chan struct{}) []probe {
	type seen struct {
		version uint64
		at      time.Time
	}
	var pending []seen
	var out []probe
	fallenDue := 0 // open loop: requests whose due time has passed
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return out
		case now := <-tick.C:
			v := env.p.Version()
			if len(pending) == 0 || v > pending[len(pending)-1].version {
				pending = append(pending, seen{v, now})
			}
			snap := env.srv.Snapshot()
			covered := snap.Version
			for len(pending) > 0 && pending[0].version <= covered {
				pending = pending[1:]
			}
			pr := probe{at: now.Sub(t0), queueDepth: env.srv.QueueDepth(), auditLag: env.srv.AuditLag(), passMS: snap.TookMS, pass: snap.Pass}
			if pl.due != nil {
				for fallenDue < n && pl.due[fallenDue] <= pr.at {
					fallenDue++
				}
				// Due and not yet taken by a sender (each sender holds at
				// most one request it is still waiting to send).
				pr.backlog = max(0, fallenDue-int(next.Load()))
			}
			if len(pending) > 0 {
				pr.staleness = now.Sub(pending[0].at)
			}
			out = append(out, pr)
		}
	}
}

// loadStats is a measured phase reduced to numbers.
type loadStats struct {
	attempted, ok, shed, errors int
	writes, reads               []timed // OK latencies in ms, stamped by completion
	// genLag is send start − due: the wait for a free sender plus wakeLag,
	// which is how late a sender that slept until due woke — the generator's
	// own fault and nobody else's.
	genLag, wakeLag []float64
	wall            time.Duration
	offeredRate     float64
}

func (res *loadResult) stats(pl *plan) loadStats {
	st := loadStats{wall: res.wall}
	var lastDeq time.Duration
	for i := range res.samples {
		s := &res.samples[i]
		if !s.sent {
			continue
		}
		st.attempted++
		st.genLag = append(st.genLag, ms(s.deq-s.due))
		if s.waited {
			st.wakeLag = append(st.wakeLag, ms(s.deq-s.due))
		}
		if s.deq > lastDeq {
			lastDeq = s.deq
		}
		switch {
		case s.ok():
			st.ok++
			obs := timed{at: s.done, value: ms(s.done - s.due)}
			if pl.reqs[i].kind.mutation() {
				st.writes = append(st.writes, obs)
			} else {
				st.reads = append(st.reads, obs)
			}
		case s.status == http.StatusTooManyRequests:
			st.shed++
		default:
			st.errors++
		}
	}
	if lastDeq > 0 {
		st.offeredRate = float64(st.attempted) / lastDeq.Seconds()
	}
	return st
}

// auditPasses returns the wall time in ms of each audit pass that finished
// during the phase, as the server reported it in its snapshots.
func (res *loadResult) auditPasses() []float64 {
	var out []float64
	for i := 1; i < len(res.probes); i++ {
		if res.probes[i].pass != res.probes[i-1].pass {
			out = append(out, res.probes[i].passMS)
		}
	}
	return out
}

// stallShare is the share of the phase during which an audit pass was
// running. A pass takes both cores for tens of milliseconds, and a request
// that falls due meanwhile waits for one: latency here has two modes.
func (res *loadResult) stallShare() float64 {
	sum := 0.0
	for _, took := range res.auditPasses() {
		sum += took
	}
	return min(sum/ms(res.wall), 0.9)
}

// undelayedMedian is the median latency of the requests that did not wait
// behind an audit pass: the median of all but the slowest stall share. With
// a quarter to a third of the run spent in passes, the plain median sits on
// the knee between the two modes and swings by half when the share moves by
// a tenth; this one stays in the serving mode, and what the passes cost
// shows in report_lag_ms and load.write_p95/p99_ms instead.
func undelayedMedian(obs []timed, stall float64) float64 {
	return quantile(values(obs), 0.5*(1-stall))
}

func values(obs []timed) []float64 {
	out := make([]float64, len(obs))
	for i, o := range obs {
		out[i] = o.value
	}
	return out
}

// maxWakeLagMS bounds at p99 how late a sleeping sender wakes. The harness
// shares two cores with the server, and an audit pass holds both for
// 20–40 ms, so a woken sender waits up to ~20 ms for a core in a healthy
// run; past 50 ms the schedule the open loop claims to follow is not the
// one it followed.
const maxWakeLagMS = 50

// validity reports why an open-loop phase's numbers cannot be trusted
// (nothing when they can): the generator, not the server, fell short.
func (res *loadResult) validity(st loadStats, rate float64) []string {
	var why []string
	if st.offeredRate < 0.98*rate {
		why = append(why, fmt.Sprintf("offered %.0f req/s, under 98%% of the %.0f req/s target", st.offeredRate, rate))
	}
	if lag := quantile(st.wakeLag, 0.99); lag > maxWakeLagMS {
		why = append(why, fmt.Sprintf("sender wake-up lateness p99 %.1f ms over %d ms", lag, maxWakeLagMS))
	}
	// Backlog still growing over the last 5 s: the mean of the final
	// second against the mean of the second that began 5 s before the end.
	if n := len(res.probes); n > 0 {
		end := res.probes[n-1].at
		mean := func(lo, hi time.Duration) float64 {
			sum, k := 0.0, 0
			for _, p := range res.probes {
				if p.at >= lo && p.at < hi {
					sum += float64(p.backlog)
					k++
				}
			}
			if k == 0 {
				return 0
			}
			return sum / float64(k)
		}
		if end > 6*time.Second {
			early, late := mean(end-5*time.Second, end-4*time.Second), mean(end-time.Second, end+1)
			if late-early > 0.05*rate {
				why = append(why, fmt.Sprintf("client backlog grew from %.0f to %.0f requests over the last 5 s", early, late))
			}
		}
	}
	return why
}

// checkServe is the serving correctness gate: after the last ack and
// before Server.Stop (which re-applies its final batch today), the served
// platform's audit fingerprint, version and entity counts must equal those
// of a serial replay of exactly the acknowledged mutations.
func checkServe(env *serveEnv, pl *plan, res *loadResult) []string {
	snap := env.srv.AuditNow()
	version := env.p.Version()
	w, t, c, e := env.p.EntityCounts()

	oracle := crowdfair.NewPlatform(pl.pop.universe)
	if err := pl.pop.seed(oracle); err != nil {
		return []string{fmt.Sprintf("oracle seed: %v", err)}
	}
	for i := range res.samples {
		if res.samples[i].ok() {
			if err := pl.reqs[i].apply(oracle); err != nil {
				return []string{fmt.Sprintf("oracle replay of request %d (%s): %v", i, pl.reqs[i].kind, err)}
			}
		}
	}
	var bad []string
	if fp := serve.AuditFingerprint(oracle.AuditIncremental(crowdfair.DefaultAuditConfig())); fp != snap.Fingerprint {
		bad = append(bad, fmt.Sprintf("audit fingerprint %s != serial replay's %s", snap.Fingerprint[:12], fp[:12]))
	}
	if ov := oracle.Version(); ov != version {
		bad = append(bad, fmt.Sprintf("store version %d != serial replay's %d", version, ov))
	}
	if ow, ot, oc, oe := oracle.EntityCounts(); ow != w || ot != t || oc != c || oe != e {
		bad = append(bad, fmt.Sprintf("entity counts %d/%d/%d/%d != serial replay's %d/%d/%d/%d", w, t, c, e, ow, ot, oc, oe))
	}
	return bad
}

// checkReopened is the durable-ack phase's durability gate: every write was
// acknowledged only after its fsync, so a reopened directory must hold
// every acknowledged contribution and worker state and at least as many
// events as the seed plus the acknowledged offers and submissions.
func checkReopened(dir string, pl *plan, res *loadResult, sync crowdfair.SyncPolicy) []string {
	p, err := crowdfair.OpenPlatformWAL(dir, nil, crowdfair.DefaultAuditConfig(), crowdfair.WALOptions{Sync: sync})
	if err != nil {
		return []string{fmt.Sprintf("reopen: %v", err)}
	}
	defer p.Close()
	events := len(pl.pop.workers) + len(pl.pop.tasks) + len(pl.pop.contribs) + len(pl.pop.offers) + len(pl.pop.disclosures)
	lastUpdate := make(map[crowdfair.WorkerID]*request) // a worker's updates are a population apart, so plan order is apply order
	var bad []string
	for i := range res.samples {
		if !res.samples[i].ok() {
			continue
		}
		r := &pl.reqs[i]
		switch r.kind {
		case reqContribution:
			events++
			if _, err := p.Store().Contribution(r.contrib.ID); err != nil && len(bad) < 5 {
				bad = append(bad, fmt.Sprintf("acked contribution %s lost: %v", r.contrib.ID, err))
			}
		case reqWorkerUpdate:
			lastUpdate[r.worker.ID] = r
		case reqOffer:
			events++
		}
	}
	for id, r := range lastUpdate {
		got, err := p.Store().Worker(id)
		if (err != nil || !bytes.Equal(mustJSON(got), r.body)) && len(bad) < 5 {
			bad = append(bad, fmt.Sprintf("acked update of worker %s lost", id))
		}
	}
	if _, _, _, got := p.EntityCounts(); got < events {
		bad = append(bad, fmt.Sprintf("reopened trace has %d events, acked %d", got, events))
	}
	return bad
}

func runServe(sp serveSpec, o options) (*report, error) {
	sp = sp.scaled(o)
	if o.trace {
		return runServeTraced(sp, o)
	}
	rep := newReport()

	var env *serveEnv
	var pl *plan
	setupS, err := medianSetup(func() (err error) {
		pl = sp.plan(o)
		env, err = startServe(sp, pl, o.dir, false)
		return err
	}, func() error { return env.stop() })
	if err != nil {
		return nil, err
	}
	startMeasured()
	cpu := cpuSeconds()
	res, err := runLoad(env, pl, len(pl.reqs), time.Duration(o.seconds)*time.Second)
	if err != nil {
		return nil, err
	}
	cpu = cpuSeconds() - cpu
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	st := res.stats(pl)

	rep.gates = checkServe(env, pl, res)
	if err := env.stop(); err != nil {
		return nil, err
	}
	if !o.smoke {
		rep.invalid = res.validity(st, sp.rate)
	}

	var stale []float64
	for _, p := range res.probes {
		stale = append(stale, ms(p.staleness))
	}
	rep.attempted, rep.failed = st.attempted, st.attempted-st.ok
	stall := res.stallShare()
	rep.slot("op_p50_ms", "write_p50_ms", undelayedMedian(st.writes, stall))
	rep.slot("alt_op_ms", "read_p50_ms", undelayedMedian(st.reads, stall))
	rep.slot("throughput_per_s", "throughput_rps", float64(st.ok)/st.wall.Seconds())
	rep.slot("report_lag_ms", "audit_staleness_p50_ms", median(stale))
	rep.set("peak_rss_mb", rss)
	rep.set("setup_s", setupS)
	rep.note("fail_share", float64(rep.failed)/float64(max(rep.attempted, 1)), "share")
	rep.note("load.gen_lag_p50_ms", median(st.genLag), "ms")
	rep.note("load.gen_lag_p99_ms", quantile(st.genLag, 0.99), "ms")
	rep.note("load.wake_lag_p50_ms", median(st.wakeLag), "ms")
	rep.note("load.wake_lag_p99_ms", quantile(st.wakeLag, 0.99), "ms")
	rep.note("load.write_p99_ms", windowQuantile(st.writes, 0.99), "ms")
	rep.note("load.write_p50_ms", median(values(st.writes)), "ms")
	rep.note("serve.audit_stall_share", stall, "share")
	rep.note("serve.audit_pass_p50_ms", median(res.auditPasses()), "ms")
	rep.note("serve.audit_passes", float64(len(res.auditPasses())), "count")
	// Harness and server are one process, so this counts the senders too.
	rep.note("proc.cpu_us_per_request", cpu/float64(max(st.ok, 1))*1e6, "us")
	return rep, nil
}
