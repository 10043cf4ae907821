package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/crowdfair"
	"repro/internal/audit"
	"repro/internal/eventlog"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/wal"
)

// ladderOps caps how many mutations each rung of the replay ladder
// applies: enough for a steady median, few enough that the rungs fit in a
// traced run.
const ladderOps = 3000

// runServeTraced is the traced twin of runServe: the same plan, rate and
// clients at one-third length, once untraced and once with a span around
// every request on both sides of the socket (their p50 difference is the
// tracing overhead), then the replay ladder and the durable-ack phase.
func runServeTraced(sp serveSpec, o options) (*report, error) {
	rep := newReport()
	pl := sp.plan(o)
	n := len(pl.reqs) / 3
	dur := time.Duration(o.seconds) * time.Second / 3

	phase := func(traced bool) (*serveEnv, *loadResult, error) {
		env, err := startServe(sp, pl, o.dir, traced)
		if err != nil {
			return nil, nil, err
		}
		res, err := runLoad(env, pl, n, dur)
		return env, res, err
	}
	env, res, err := phase(false)
	if err != nil {
		return nil, err
	}
	untraced := undelayedMedian(res.stats(pl).writes, res.stallShare())
	if err := env.stop(); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(env.dir); err != nil {
		return nil, err
	}

	if env, res, err = phase(true); err != nil {
		return nil, err
	}
	// Closing the listener waits for every handler to return, so each
	// server-side span is complete before it is read.
	env.ts.Close()
	st := res.stats(pl)
	tr := newTracer()
	tr.t0 = res.t0
	var handler, overhead, depth, lag []float64
	for i := range res.samples {
		s := &res.samples[i]
		if !s.sent {
			continue
		}
		at := func(d time.Duration) time.Time { return res.t0.Add(d) }
		root := tr.add("load.request", at(s.due), at(s.done), -1, i)
		tr.add("load.queue", at(s.due), at(s.deq), root, i)
		if h := env.handler.spans[i]; !h.start.IsZero() {
			tr.add("serve.handler", h.start, h.end, root, i)
			if s.ok() {
				handler = append(handler, ms(h.end.Sub(h.start)))
				overhead = append(overhead, ms((s.done-s.deq)-h.end.Sub(h.start)))
			}
		}
	}
	for _, p := range res.probes {
		depth = append(depth, float64(p.queueDepth))
		lag = append(lag, float64(p.auditLag))
	}
	rep.gates = checkServe(env, pl, res)
	batches, batched := env.srv.BatchStats()
	stats, err := fetchStatsz(env)
	if err != nil {
		return nil, err
	}
	ws := env.p.Store().WALStats()
	// Mutations per shard, busiest over mean, from the changelog rings (the
	// workload fits them; ShardVersion is a global watermark, not a count).
	changes := make([]float64, env.p.Store().ShardCount())
	for i := range changes {
		cs, _ := env.p.Store().ShardChangesSince(i, 0)
		changes[i] = float64(len(cs))
	}
	version, events := env.p.Version(), env.p.Log().Len()
	if err := env.stop(); err != nil {
		return nil, err
	}
	walBytes, err := dirBytes(store.WALDir(env.dir))
	if err != nil {
		return nil, err
	}
	eventBytes, err := dirBytes(store.EventsDir(env.dir))
	if err != nil {
		return nil, err
	}

	traced := undelayedMedian(st.writes, res.stallShare())
	rep.attempted, rep.failed = st.attempted, st.attempted-st.ok
	rep.setLayer("load.gen_lag_p50_ms", median(st.genLag))
	rep.setLayer("load.gen_lag_p99_ms", quantile(st.genLag, 0.99))
	rep.setLayer("load.wake_lag_p50_ms", median(st.wakeLag))
	rep.setLayer("load.wake_lag_p99_ms", quantile(st.wakeLag, 0.99))
	rep.setLayer("load.write_p50_ms", median(values(st.writes)))
	rep.setLayer("load.write_p95_ms", quantile(values(st.writes), 0.95))
	rep.setLayer("load.write_p99_ms", windowQuantile(st.writes, 0.99))
	rep.setLayer("load.read_p99_ms", windowQuantile(st.reads, 0.99))
	rep.setLayer("load.attempted", float64(st.attempted))
	rep.setLayer("load.ok", float64(st.ok))
	rep.setLayer("load.shed", float64(st.shed))
	rep.setLayer("load.errors", float64(st.errors))
	rep.setLayer("serve.handler_p50_ms", median(handler))
	rep.setLayer("serve.handler_p99_ms", quantile(handler, 0.99))
	rep.setLayer("serve.http_overhead_p50_ms", median(overhead))
	if batches > 0 {
		rep.setLayer("serve.batch_mean_ops", float64(batched)/float64(batches))
	}
	rep.setLayer("serve.queue_depth_p50", median(depth))
	rep.setLayer("serve.queue_depth_max", quantile(depth, 1))
	rep.setLayer("serve.shed_queue", stats["shed_queue"])
	rep.setLayer("serve.shed_lag", stats["shed_lag"])
	rep.setLayer("serve.audit_passes", stats["audit_passes"])
	rep.setLayer("serve.audit_stall_share", res.stallShare())
	rep.setLayer("serve.audit_lag_p50_versions", median(lag))
	rep.setLayer("store.changes", float64(version))
	if busiest := quantile(changes, 1); busiest > 0 {
		sum := 0.0
		for _, c := range changes {
			sum += c
		}
		rep.setLayer("store.shard_skew", busiest*float64(len(changes))/sum)
	}
	rep.setLayer("eventlog.events", float64(events))
	rep.setLayer("eventlog.disk_bytes", float64(eventBytes))
	// Store shards only: the event-trace writer exposes no counters.
	rep.setLayer("wal.appends", float64(ws.Appends))
	rep.setLayer("wal.batches", float64(ws.Batches))
	rep.setLayer("wal.syncs", float64(ws.Syncs))
	if ws.Syncs > 0 {
		rep.setLayer("wal.appends_per_sync", float64(ws.Appends)/float64(ws.Syncs))
	}
	rep.setLayer("wal.disk_bytes", float64(walBytes))
	rep.setLayer("trace.overhead_pct", 100*(traced-untraced)/untraced)
	rep.note("write_p50_ms.traced", traced, "ms")
	rep.note("write_p50_ms.untraced", untraced, "ms")

	// The ladder replays exactly the mutations the traced phase got acked,
	// in plan order.
	var muts []*request
	for i := range res.samples {
		if res.samples[i].ok() && pl.reqs[i].kind.mutation() && len(muts) < ladderOps {
			muts = append(muts, &pl.reqs[i])
		}
	}
	// Mutations the audit loop saw per pass in the traced phase: achieved
	// mutation rate × AuditEvery (100 ms).
	perPass := max(1, int(float64(len(st.writes))/st.wall.Seconds()/10))
	if err := runLadder(sp, pl, muts, perPass, o, tr, rep); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	if err := runDurable(sp, pl, dur, o, tr, rep); err != nil {
		return nil, fmt.Errorf("durable phase: %w", err)
	}
	rep.tracer = tr
	return rep, nil
}

// runDurable is the write path with the commit wait on the critical path:
// the plan's mutations sent closed loop, one caller per core, to a server
// whose every acknowledgement waits for a group-commit fsync (SyncAlways).
// It was to be a workload of its own, serve_closed_sync; but each of its
// numbers is a multiple of the device's fsync latency, which on the
// reference sandbox drifts by a third between runs, so none of them can
// carry a bound and they are layer metrics instead. Both serving
// correctness gates run here too, and a reopened directory must hold every
// acknowledged write.
func runDurable(sp serveSpec, pl *plan, dur time.Duration, o options, tr *tracer, rep *report) error {
	sp.sync = crowdfair.SyncAlways
	writes := pl.writesOnly()
	env, err := startServe(sp, writes, o.dir, false)
	if err != nil {
		return err
	}
	res, err := runLoad(env, writes, len(writes.reqs), dur)
	if err != nil {
		return err
	}
	st := res.stats(writes)
	rep.gates = append(rep.gates, checkServe(env, writes, res)...)
	ws := env.p.Store().WALStats()
	if err := env.stop(); err != nil {
		return err
	}
	rep.gates = append(rep.gates, checkReopened(env.dir, writes, res, sp.sync)...)
	if err := os.RemoveAll(env.dir); err != nil {
		return err
	}
	rep.gates = append(rep.gates, failures("durable phase", st)...)

	rep.setLayer("durable.write_p50_ms", median(values(st.writes)))
	rep.setLayer("durable.write_p95_ms", quantile(values(st.writes), 0.95))
	rep.setLayer("durable.throughput_rps", float64(st.ok)/st.wall.Seconds())
	if ws.Syncs > 0 {
		rep.setLayer("durable.appends_per_sync", float64(ws.Appends)/float64(ws.Syncs))
	}
	// One append and its fsync, alone: the device's share of the above.
	size := 0
	for i := range writes.reqs {
		size += len(writes.reqs[i].body)
	}
	if err := walRung(tr, "durable.wal", o.dir, crowdfair.WALOptions{Sync: sp.sync}, size/max(len(writes.reqs), 1), ladderOps/3); err != nil {
		return err
	}
	rep.setLayer("durable.wal_commit_p50_us", median(tr.durations("durable.wal", time.Microsecond)))
	return nil
}

// failures turns any request of a phase that was not answered 200 into a
// failed gate: the phase's requests are not in the run's attempted count.
func failures(phase string, st loadStats) []string {
	if st.ok == st.attempted {
		return nil
	}
	return []string{fmt.Sprintf("%s: %d of %d requests failed (%d shed, %d errors)", phase, st.attempted-st.ok, st.attempted, st.shed, st.errors)}
}

// walRung appends n payloads of the given size to a fresh log under dir,
// waiting for each commit, with a span named name around each.
func walRung(tr *tracer, name, dir string, wopts crowdfair.WALOptions, size, n int) error {
	dir, err := os.MkdirTemp(dir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := wal.Create(dir, wopts)
	if err != nil {
		return err
	}
	payload := make([]byte, size)
	for i := 0; i < n; i++ {
		tr.time(name, -1, i, func() {
			var c wal.Commit
			if c, err = w.AppendAsync(uint64(i+1), payload); err == nil {
				err = c.Wait()
			}
		})
		if err != nil {
			w.Close()
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return w.Close()
}

// fetchStatsz reads the server's own counters the way an operator would.
func fetchStatsz(env *serveEnv) (map[string]float64, error) {
	rec := httptest.NewRecorder()
	env.srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/statsz", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /statsz: status %d", rec.Code)
	}
	var out map[string]float64 // every /statsz field is a number
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("GET /statsz: %w", err)
	}
	return out, nil
}

// runLadder applies the same mutation sequence single-threaded at each
// public boundary below the HTTP server, under the workload's sync policy,
// so a layer's own cost is its rung's time minus the rung beneath it:
//
//	rung 0  serve      Handler().ServeHTTP on a recorder — no sockets
//	rung 1  crowdfair  one-element RecordContributions / OfferBatch / UpdateWorkers,
//	                   with an audit pass every perPass mutations
//	rung 2  store      PutContribution / UpdateWorker; eventlog Append
//	rung 3  wal        AppendAsync + Wait at the mean frame size
func runLadder(sp serveSpec, pl *plan, muts []*request, perPass int, o options, tr *tracer, rep *report) error {
	cfg := crowdfair.DefaultAuditConfig()
	wopts := crowdfair.WALOptions{Sync: sp.sync}
	fresh := func() (*crowdfair.Platform, string, error) {
		dir, err := os.MkdirTemp(o.dir, "rung-")
		if err != nil {
			return nil, "", err
		}
		p, err := crowdfair.OpenPlatformWAL(dir, pl.pop.universe, cfg, wopts)
		if err != nil {
			return nil, "", err
		}
		return p, dir, pl.pop.seed(p)
	}
	var err error

	// Rung 0.
	p, dir, err := fresh()
	if err != nil {
		return err
	}
	srv := serve.New(serve.Config{Platform: p, Audit: cfg, AuditEvery: -1})
	srv.Start()
	h := srv.Handler()
	for i, m := range muts {
		req := httptest.NewRequest(m.method, m.path, bytes.NewReader(m.body))
		rec := httptest.NewRecorder()
		tr.time("rung0.serve", -1, i, func() { h.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			return fmt.Errorf("rung 0: %s %s: status %d", m.method, m.path, rec.Code)
		}
	}
	srv.Stop()
	if err := p.Close(); err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}

	// Rung 1, with the audit loop's share of the work made explicit.
	if p, dir, err = fresh(); err != nil {
		return err
	}
	eng := audit.New(p.Store(), p.Log(), cfg)
	tr.time("audit.cold", -1, -1, func() { eng.Audit() })
	var last []*crowdfair.FairnessReport
	for i, m := range muts {
		tr.time("rung1."+m.kind.String(), -1, i, func() { err = m.apply(p) })
		if err != nil {
			return fmt.Errorf("rung 1: %w", err)
		}
		if (i+1)%perPass == 0 {
			tr.time("audit.pass", -1, i, func() { last = eng.Audit() })
		}
	}
	counters := eng.Cache().Counters()
	if err := p.Close(); err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}

	// Rung 2: the store and the event trace, each on its own.
	dir, err = os.MkdirTemp(o.dir, "rung-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.NewDurable(pl.pop.universe, store.DefaultShardCount, dir, wopts)
	if err != nil {
		return err
	}
	log, err := eventlog.OpenDurable(store.EventsDir(dir), wopts)
	if err != nil {
		return err
	}
	for _, r := range pl.pop.requesters {
		if err := st.PutRequester(r); err != nil {
			return err
		}
	}
	if err := st.BulkPutWorkers(pl.pop.workers); err != nil {
		return err
	}
	if err := st.BulkPutTasks(pl.pop.tasks); err != nil {
		return err
	}
	frameBytes, frames := 0, 0
	for i, m := range muts {
		start := time.Now()
		switch m.kind {
		case reqContribution:
			tr.time("rung2.store", -1, i, func() { err = st.PutContribution(m.contrib) })
			if err == nil {
				tr.time("rung2.eventlog", -1, i, func() {
					_, err = log.Append(eventlog.Event{Type: eventlog.TaskSubmitted, Task: m.contrib.Task, Worker: m.contrib.Worker, Contribution: m.contrib.ID})
				})
			}
		case reqWorkerUpdate:
			tr.time("rung2.store", -1, i, func() { err = st.UpdateWorker(m.worker) })
		case reqOffer:
			tr.time("rung2.eventlog", -1, i, func() {
				_, err = log.Append(eventlog.Event{Type: eventlog.TaskOffered, Task: m.offer.Task, Worker: m.offer.Worker})
			})
		}
		if err != nil {
			return fmt.Errorf("rung 2: %w", err)
		}
		tr.add("rung2.all", start, time.Now(), -1, i)
		frameBytes += len(m.body)
		frames++
	}
	if err := st.Close(); err != nil {
		return err
	}
	if err := log.Close(); err != nil {
		return err
	}

	// Rung 3: the log alone, at the mean size of what the rungs above wrote.
	if err := walRung(tr, "rung3.wal", dir, wopts, frameBytes/max(frames, 1), len(muts)); err != nil {
		return fmt.Errorf("rung 3: %w", err)
	}

	p50 := func(name string) float64 { return median(tr.durations(name, time.Microsecond)) }
	var rung1 []float64
	for k := reqContribution; k <= reqOffer; k++ {
		rung1 = append(rung1, tr.durations("rung1."+k.String(), time.Microsecond)...)
	}
	direct, apply := p50("rung0.serve"), median(rung1)
	rep.setLayer("serve.direct_p50_us", direct)
	rep.setLayer("serve.self_p50_us", direct-apply)
	rep.setLayer("crowdfair.contribution_p50_us", p50("rung1."+reqContribution.String()))
	rep.setLayer("crowdfair.offer_p50_us", p50("rung1."+reqOffer.String()))
	rep.setLayer("crowdfair.worker_update_p50_us", p50("rung1."+reqWorkerUpdate.String()))
	rep.setLayer("crowdfair.self_p50_us", apply-p50("rung2.all"))
	rep.setLayer("store.apply_p50_us", p50("rung2.store"))
	rep.setLayer("store.self_p50_us", p50("rung2.store")-p50("rung3.wal"))
	rep.setLayer("eventlog.append_p50_us", p50("rung2.eventlog"))
	rep.setLayer("wal.append_commit_p50_us", p50("rung3.wal"))
	passes := tr.durations("audit.pass", time.Millisecond)
	rep.setLayer("audit.pass_p50_ms", median(passes))
	rep.setLayer("audit.pass_p90_ms", quantile(passes, 0.9))
	if last != nil {
		rep.setLayer("audit.checked_pairs", float64(last[0].Checked+last[1].Checked))
		rep.setLayer("audit.violations", float64(countViolations(last)))
	}
	if total := counters.Hits + counters.Misses; total > 0 {
		rep.setLayer("audit.cache_hit_share", float64(counters.Hits)/float64(total))
	}
	rep.setLayer("audit.cache_evictions", float64(counters.Evictions))
	return nil
}
