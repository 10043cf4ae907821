package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/crowdfair"
	"repro/internal/eventlog"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/wal"
)

// recoverSpec sizes recover_restart: a population, then rounds of churn
// written through the platform; Checkpoint() after 80 % of the rounds.
type recoverSpec struct {
	shape  popShape
	rounds int
	frac   float64
}

func recoverSpecFor(o options) recoverSpec {
	if o.smoke {
		return recoverSpec{shape: popShape{workers: 400, tasksPerCluster: 2, contribEvery: 4}, rounds: 20, frac: 0.02}
	}
	// Sized so that one open takes about a second on the reference box.
	return recoverSpec{shape: popShape{workers: 10000, tasksPerCluster: 2, contribEvery: 4}, rounds: 300, frac: 0.02}
}

// preparedDir is a closed durable platform directory and what a correct
// recovery of it must reproduce.
type preparedDir struct {
	dir         string
	version     uint64
	counts      [4]int
	fingerprint string
	userBytes   int64 // JSON bytes of every entity and event handed to the platform
	checkpointS float64
}

// prepare builds the directory through crowdfair.Platform calls only.
func (sp recoverSpec) prepare(root string, seed int64) (*preparedDir, error) {
	rng := rand.New(rand.NewSource(seed))
	pp := generatePopulation(sp.shape, rng)
	churn := generateChurn(pp, sp.shape, sp.rounds, sp.frac, rng)
	dir, err := os.MkdirTemp(root, "prepared-")
	if err != nil {
		return nil, err
	}
	cfg := churnAuditConfig(seed)
	p, err := crowdfair.OpenPlatformWAL(dir, pp.universe, cfg, crowdfair.WALOptions{Sync: crowdfair.SyncNever})
	if err != nil {
		return nil, err
	}
	if err := pp.seed(p); err != nil {
		return nil, fmt.Errorf("seed: %w", err)
	}
	pd := &preparedDir{dir: dir}
	for i := range churn {
		if i == sp.rounds*8/10 {
			// Audit first, so the checkpoint carries the warm auditor the
			// reopened platform resumes from.
			p.AuditIncremental(cfg)
			start := time.Now()
			if err := p.Checkpoint(); err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
			pd.checkpointS = time.Since(start).Seconds()
		}
		if err := churn[i].apply(p); err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
	}
	pd.fingerprint = serve.AuditFingerprint(p.AuditIncremental(cfg))
	pd.version = p.Version()
	pd.counts[0], pd.counts[1], pd.counts[2], pd.counts[3] = p.EntityCounts()
	if err := p.Close(); err != nil {
		return nil, err
	}
	for _, v := range []any{pp.requesters, pp.workers, pp.tasks, pp.contribs, pp.offers, pp.disclosures} {
		pd.userBytes += int64(len(mustJSON(v)))
	}
	for i := range churn {
		for _, v := range []any{churn[i].workers, churn[i].repaid, churn[i].offers, churn[i].disclosures} {
			pd.userBytes += int64(len(mustJSON(v)))
		}
	}
	return pd, nil
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// restart is one timed recovery of a fresh copy of the prepared directory.
type restart struct {
	open, audit, close time.Duration
	bad                []string
}

// restartOnce copies the directory (untimed), opens it, runs the first
// incremental audit and closes — and checks that the recovered platform is
// the one that was closed.
func (pd *preparedDir) restartOnce(root string, seed int64, tr *tracer, req int) (restart, error) {
	var r restart
	dir, err := os.MkdirTemp(root, "copy-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	if err := copyDir(pd.dir, dir); err != nil {
		return r, err
	}
	cfg := churnAuditConfig(seed)

	start := time.Now()
	p, err := crowdfair.OpenPlatformWAL(dir, nil, cfg, crowdfair.WALOptions{Sync: crowdfair.SyncNever})
	if err != nil {
		return r, fmt.Errorf("reopen: %w", err)
	}
	opened := time.Now()
	reps := p.AuditIncremental(cfg)
	audited := time.Now()
	r.open, r.audit = opened.Sub(start), audited.Sub(opened)
	if tr != nil {
		parent := tr.add("recover.restart", start, audited, -1, req)
		tr.add("crowdfair.open", start, opened, parent, req)
		tr.add("audit.first", opened, audited, parent, req)
	}

	if v := p.Version(); v != pd.version {
		r.bad = append(r.bad, fmt.Sprintf("recovered version %d != pre-close %d", v, pd.version))
	}
	var counts [4]int
	counts[0], counts[1], counts[2], counts[3] = p.EntityCounts()
	if counts != pd.counts {
		r.bad = append(r.bad, fmt.Sprintf("recovered counts %v != pre-close %v", counts, pd.counts))
	}
	if fp := serve.AuditFingerprint(reps); fp != pd.fingerprint {
		r.bad = append(r.bad, fmt.Sprintf("recovered audit fingerprint %s != pre-close %s", fp[:12], pd.fingerprint[:12]))
	}
	start = time.Now()
	err = p.Close()
	r.close = time.Since(start)
	return r, err
}

func runRecover(o options) (*report, error) {
	sp := recoverSpecFor(o)
	rep := newReport()
	var pd *preparedDir
	build := func() (err error) {
		pd, err = sp.prepare(o.dir, o.seed)
		return err
	}
	var setupS float64
	var err error
	if o.trace {
		err = build() // a traced run reports no set-up time
	} else {
		setupS, err = medianSetup(build, func() error { return os.RemoveAll(pd.dir) })
	}
	if err != nil {
		return nil, err
	}
	startMeasured()

	budget := time.Duration(o.seconds) * time.Second
	var tr *tracer
	if o.trace {
		budget /= 3
		tr = newTracer()
	}
	var opens, audits, both []float64
	timed := time.Duration(0)
	for begin := time.Now(); len(opens) < 3 || time.Since(begin) < budget; {
		r, err := pd.restartOnce(o.dir, o.seed, tr, len(opens))
		if err != nil {
			return nil, err
		}
		rep.gates = append(rep.gates, r.bad...)
		opens = append(opens, ms(r.open))
		audits = append(audits, ms(r.audit))
		both = append(both, ms(r.open+r.audit))
		timed += r.open + r.audit + r.close
		// Untimed: collect the closed platform, so an iteration's peak
		// memory is its own and not the previous one's garbage as well.
		runtime.GC()
		if o.smoke && len(opens) >= 2 {
			break
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	disk, err := dirBytes(pd.dir)
	if err != nil {
		return nil, err
	}
	ratio := float64(disk) / float64(pd.userBytes)
	rep.attempted = len(opens)

	if !o.trace {
		rep.slot("op_p50_ms", "recover_open_p50_ms", median(opens))
		rep.slot("alt_op_ms", "recover_first_audit_p50_ms", median(audits))
		rep.slot("throughput_per_s", "restarts_per_s", float64(len(opens))/timed.Seconds())
		rep.slot("report_lag_ms", "recover_ready_p50_ms", median(both))
		rep.set("peak_rss_mb", rss)
		rep.set("setup_s", setupS)
		rep.note("disk_bytes_per_user_byte", ratio, "ratio")
		rep.note("store.changes", float64(pd.version), "count")
		rep.note("eventlog.events", float64(pd.counts[3]), "count")
		return rep, nil
	}

	rep.tracer = tr
	rep.setLayer("disk.bytes_per_user_byte", ratio)
	rep.setLayer("store.checkpoint_s", pd.checkpointS)
	rep.setLayer("store.changes", float64(pd.version))
	rep.setLayer("eventlog.events", float64(pd.counts[3]))
	rep.note("crowdfair.open_p50_ms", median(opens), "ms")
	rep.note("audit.first_p50_ms", median(audits), "ms")
	if err := pd.readSides(o.dir, tr, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// readSides times each layer's read path alone on copies of the prepared
// directory: store.Open, eventlog.OpenDurable, a sequential WAL scan, and a
// replica bootstrap — the WAL's second reader.
func (pd *preparedDir) readSides(root string, tr *tracer, rep *report) error {
	dir, err := os.MkdirTemp(root, "read-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := copyDir(pd.dir, dir); err != nil {
		return err
	}
	wopts := wal.Options{Sync: wal.SyncNever}
	for i := 0; i < 3; i++ {
		var st *store.Store
		tr.time("store.open", -1, i, func() { st, _, err = store.Open(dir, 0, wopts) })
		if err != nil {
			return fmt.Errorf("store.Open: %w", err)
		}
		if err := st.Close(); err != nil {
			return err
		}
		var log *eventlog.Log
		tr.time("eventlog.open", -1, i, func() { log, err = eventlog.OpenDurable(store.EventsDir(dir), wopts) })
		if err != nil {
			return fmt.Errorf("eventlog.OpenDurable: %w", err)
		}
		if err := log.Close(); err != nil {
			return err
		}
	}
	rep.setLayer("store.open_p50_ms", median(tr.durations("store.open", time.Millisecond)))
	rep.setLayer("eventlog.open_p50_ms", median(tr.durations("eventlog.open", time.Millisecond)))

	// Every segment directory under the platform, store shards and event
	// trace alike, scanned front to back.
	var walDirs []string
	var walBytes, eventBytes int64
	segments := 0
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || !info.IsDir() {
			return err
		}
		segs, err := wal.Segments(path)
		if err != nil || len(segs) == 0 {
			return nil // not a segment directory
		}
		walDirs = append(walDirs, path)
		segments += len(segs)
		n, err := dirBytes(path)
		if err != nil {
			return err
		}
		if path == store.EventsDir(dir) {
			eventBytes = n
		} else {
			walBytes += n
		}
		return nil
	})
	if err != nil {
		return err
	}
	scan := tr.time("wal.replay", -1, -1, func() {
		for _, d := range walDirs {
			var r *wal.Reader
			if r, err = wal.OpenDir(d); err != nil {
				return
			}
			for {
				if _, _, err = r.Next(); err != nil {
					break
				}
			}
			r.Close()
			if !errors.Is(err, io.EOF) {
				return
			}
			err = nil
		}
	})
	if err != nil {
		return fmt.Errorf("wal scan: %w", err)
	}
	rep.setLayer("wal.replay_mb_per_s", float64(walBytes+eventBytes)/(1<<20)/tr.seconds(scan))
	rep.setLayer("wal.disk_bytes", float64(walBytes))
	rep.setLayer("wal.segments", float64(segments))
	rep.setLayer("eventlog.disk_bytes", float64(eventBytes))

	boot := tr.time("replica.bootstrap_catchup", -1, -1, func() {
		var r *crowdfair.Replica
		if r, err = crowdfair.OpenReplica(dir); err != nil {
			return
		}
		_, err = r.CatchUp()
		r.Close()
	})
	if err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	rep.setLayer("replica.bootstrap_catchup_ms", tr.seconds(boot)*1e3)
	return nil
}
