package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/crowdfair"
	"repro/internal/load"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/wal"
	"repro/internal/workload"
)

// serveBenchOpts parameterises -servebench.
type serveBenchOpts struct {
	requests int           // measured requests per cell
	conc     string        // comma list of closed-loop concurrencies
	sloP99   time.Duration // SLO p99 per endpoint
	capIters int           // capacity-search bisection rounds
	overRate float64       // open-loop overload rate (0: 2x best closed-loop achieved)
	out      string        // report path ("" = stdout)
	seed     uint64
}

// serveBenchReport is the BENCH_serve.json payload: closed-loop latency at
// several concurrencies over a durable WAL-backed platform, a determinism
// double-run checked against the serial oracle, an overload cell proving
// 429 shedding protects admitted-request latency, and a capacity search
// for the highest SLO-clean open-loop rate.
type serveBenchReport struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	Seed      uint64 `json:"seed"`
	Requests  int    `json:"requests_per_cell"`

	SLO load.SLO `json:"slo"`

	ClosedLoop  []serveClosedCell    `json:"closed_loop"`
	Determinism serveDeterminismCell `json:"determinism"`
	Overload    serveOverloadCell    `json:"overload"`
	Capacity    *load.CapacityResult `json:"capacity"`
}

// serveClosedCell is one closed-loop latency measurement over a durable
// platform: the WAL's group-commit amortisation (appends per fsync) is the
// mechanism the latency numbers are explained by. MeanBatchSize is 1, since
// every mutation is its own platform call (serve.Server.BatchStats).
type serveClosedCell struct {
	Concurrency   int          `json:"concurrency"`
	Durable       bool         `json:"durable"`
	WALSync       string       `json:"wal_sync"`
	Result        *load.Result `json:"result"`
	MeanBatchSize float64      `json:"mean_batch_size"`
	WALAppends    uint64       `json:"wal_appends"`
	WALSyncs      uint64       `json:"wal_syncs"`
	// AppendsPerSync is the group-commit amortisation factor concurrent
	// requests feed.
	AppendsPerSync float64 `json:"appends_per_sync"`
	FinalAuditVer  uint64  `json:"final_audit_version"`
}

// serveDeterminismCell double-runs one plan concurrently and compares both
// final audit fingerprints to the serially-applied oracle.
type serveDeterminismCell struct {
	Seed         uint64 `json:"seed"`
	Concurrency  int    `json:"concurrency"`
	FingerprintA string `json:"fingerprint_run_a"`
	FingerprintB string `json:"fingerprint_run_b"`
	Oracle       string `json:"oracle"`
	Match        bool   `json:"match"`
}

// serveOverloadCell drives an open-loop rate past what the audit pipeline
// sustains into a small admission window and records what the shedding
// bought: Pass asserts the overload contract — real shedding (429s) while
// the p99 of *admitted* mutations stays within 2x the SLO.
type serveOverloadCell struct {
	Rate          float64      `json:"rate"`
	MaxQueue      int          `json:"max_queue"`
	MaxAuditLag   uint64       `json:"max_audit_lag"`
	Result        *load.Result `json:"result"`
	ShedRate      float64      `json:"shed_rate"`
	AdmittedP99MS float64      `json:"admitted_p99_ms"`
	BoundMS       float64      `json:"bound_ms"` // 2x SLO p99
	Pass          bool         `json:"pass"`
}

// overloadConns bounds the client connection pool for open-loop cells. An
// over-capacity open loop with an unbounded client dials a socket per
// backlogged request; the listener's accept queue overflows and every
// response — 429s included — waits out SYN retransmits, so the cell would
// measure the kernel's connection backlog instead of the admission
// controller it exists to exercise.
const overloadConns = 256

// parseIntList parses a comma-separated list of positive integers.
func parseIntList(list string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad entry %q (want integers >= 1)", s)
		}
		out = append(out, v)
	}
	return out, nil
}

// serveCell runs one measured load cell on a fresh server and tears
// everything down afterwards. client may be nil for the default pool;
// open-loop cells pass a bounded pool so an over-capacity schedule
// saturates the admission controller instead of the TCP accept queue.
func serveCell(plan *load.Plan, cfg serve.Config, sched workload.ArrivalSchedule, slo *load.SLO, client *http.Client) (*load.Result, *serve.Server, error) {
	if err := plan.SeedPlatform(cfg.Platform); err != nil {
		return nil, nil, err
	}
	s := serve.New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	res := (&load.Runner{Base: ts.URL, Client: client}).Run(plan, sched, slo)
	ts.Close()
	s.Stop()
	return res, s, nil
}

func runServeBench(o serveBenchOpts, stdout io.Writer) error {
	concs, err := parseIntList(o.conc)
	if err != nil {
		return fmt.Errorf("-serveconc: %w", err)
	}
	if len(concs) < 2 {
		return fmt.Errorf("-serveconc needs at least two concurrency levels, got %v", concs)
	}
	auditCfg := crowdfair.DefaultAuditConfig()
	slo := &load.SLO{P99: o.sloP99, MaxErrorRate: 0, MaxShedRate: 0.01}
	rep := &serveBenchReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Seed:      o.seed,
		Requests:  o.requests,
		SLO:       *slo,
	}
	spec := load.MixSpec{Requests: o.requests}

	// Closed-loop latency over a durable WAL-backed platform: every
	// mutation waits on a group commit it shares with concurrent ones.
	sync := wal.SyncInterval(2 * time.Millisecond)
	bestRate := 0.0
	for _, c := range concs {
		dir, err := os.MkdirTemp("", "servebench")
		if err != nil {
			return err
		}
		plan := load.BuildPlan(spec, o.seed)
		p, err := crowdfair.OpenPlatformWAL(dir, plan.Universe, auditCfg, crowdfair.WALOptions{Sync: sync})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		res, s, err := serveCell(plan, serve.Config{Platform: p, Audit: auditCfg, AuditEvery: 25 * time.Millisecond}, workload.ClosedLoop(c), slo, nil)
		var ws wal.WriterStats
		if err == nil {
			ws = p.Store().WALStats()
			err = p.Close()
		}
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
		if err != nil {
			return err
		}
		cell := serveClosedCell{
			Concurrency:   c,
			Durable:       true,
			WALSync:       sync.String(),
			Result:        res,
			FinalAuditVer: s.Snapshot().Version,
		}
		batches, batchedOps := s.BatchStats()
		if batches > 0 {
			cell.MeanBatchSize = float64(batchedOps) / float64(batches)
		}
		cell.WALAppends, cell.WALSyncs = ws.Appends, ws.Syncs
		if ws.Syncs > 0 {
			cell.AppendsPerSync = float64(ws.Appends) / float64(ws.Syncs)
		}
		rep.ClosedLoop = append(rep.ClosedLoop, cell)
		if res.AchievedRate > bestRate {
			bestRate = res.AchievedRate
		}
		fmt.Fprintf(os.Stderr, "servebench: closed c=%d: %.0f req/s, batch %.1f, appends/sync %.1f\n",
			c, res.AchievedRate, cell.MeanBatchSize, cell.AppendsPerSync)
	}

	// Determinism: the same plan replayed concurrently twice must land on
	// the serial oracle's audit fingerprint both times.
	det, err := runServeDeterminism(spec, o.seed, auditCfg)
	if err != nil {
		return err
	}
	rep.Determinism = *det
	if !det.Match {
		return fmt.Errorf("servebench: determinism check failed: run A %s, run B %s, oracle %s",
			det.FingerprintA, det.FingerprintB, det.Oracle)
	}

	// Overload: an open-loop rate the transport can carry but the audit
	// pipeline cannot — mutations outpace the auditor, the lag valve trips,
	// and the excess 429s. The contract: real shedding while the admitted
	// p99 holds within 2x SLO. The rate sits modestly above the best
	// closed-loop rate on purpose: arrival-stamped latency can only stay
	// bounded while total throughput (served + shed) matches the offered
	// rate, so driving far past what the host's cores can even generate
	// would measure client and scheduler backlog, not admission control.
	overRate := o.overRate
	if overRate == 0 {
		overRate = 1.25 * bestRate
	}
	over, err := runServeOverload(spec, o.seed, auditCfg, overRate, slo)
	if err != nil {
		return err
	}
	rep.Overload = *over
	fmt.Fprintf(os.Stderr, "servebench: overload %.0f req/s: shed %.1f%%, admitted p99 %.1fms (bound %.0fms), pass=%v\n",
		over.Rate, 100*over.ShedRate, over.AdmittedP99MS, over.BoundMS, over.Pass)

	// Capacity: highest open-loop rate that stays SLO-clean, fresh server
	// per probe so trials are comparable.
	lo := bestRate / 8
	if lo < 50 {
		lo = 50
	}
	hi := 2 * overRate
	trial := 0
	rep.Capacity = load.SearchCapacity(lo, hi, o.capIters, func(rate float64) *load.Result {
		trial++
		res, err := runServeOpenTrial(spec, stats.DeriveSeed(o.seed, 7, uint64(trial)), auditCfg, rate, slo, o.requests)
		if err != nil {
			fmt.Fprintf(os.Stderr, "servebench: capacity probe %.0f req/s failed: %v\n", rate, err)
			return &load.Result{}
		}
		fmt.Fprintf(os.Stderr, "servebench: capacity probe %.0f req/s: pass=%v shed=%.1f%%\n", rate, res.SLOPass, 100*res.ShedRate)
		return res
	})

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if o.out != "" {
		if err := os.WriteFile(o.out, raw, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "servebench: report written to %s\n", o.out)
		return nil
	}
	_, err = stdout.Write(raw)
	return err
}

func runServeDeterminism(spec load.MixSpec, seed uint64, auditCfg crowdfair.AuditConfig) (*serveDeterminismCell, error) {
	const conc = 16
	cell := &serveDeterminismCell{Seed: seed, Concurrency: conc}
	fps := make([]string, 2)
	for i := range fps {
		plan := load.BuildPlan(spec, seed)
		p := crowdfair.NewPlatform(plan.Universe)
		res, s, err := serveCell(plan, serve.Config{Platform: p, Audit: auditCfg, AuditEvery: time.Millisecond}, workload.ClosedLoop(conc), nil, nil)
		if err != nil {
			return nil, err
		}
		if res.Errors > 0 || res.Shed > 0 {
			return nil, fmt.Errorf("servebench: determinism run %d had %d errors, %d sheds", i, res.Errors, res.Shed)
		}
		fps[i] = s.AuditNow().Fingerprint
	}
	oracle, err := load.BuildPlan(spec, seed).Oracle(auditCfg)
	if err != nil {
		return nil, err
	}
	cell.FingerprintA, cell.FingerprintB, cell.Oracle = fps[0], fps[1], oracle
	cell.Match = fps[0] == oracle && fps[1] == oracle
	return cell, nil
}

func runServeOverload(spec load.MixSpec, seed uint64, auditCfg crowdfair.AuditConfig, rate float64, slo *load.SLO) (*serveOverloadCell, error) {
	// Both admission valves engage here. The queue bound caps how long an
	// admitted mutation can wait for a batch. The audit-lag bound is what
	// actually throttles sustained overload: the auditor cannot keep up, lag
	// crosses the bound, and excess mutations 429 at the gate before they
	// consume apply or connection capacity — which is what keeps the
	// admitted p99 flat while the offered rate is far beyond capacity.
	const (
		maxQueue    = 64
		maxAuditLag = 32
	)
	plan := load.BuildPlan(spec, seed)
	p := crowdfair.NewPlatform(plan.Universe)
	sched := workload.OpenLoopPoisson(rate, len(plan.Requests), stats.NewRNG(stats.DeriveSeed(seed, 5, 0)))
	res, _, err := serveCell(plan, serve.Config{
		Platform: p, Audit: auditCfg,
		MaxQueue:    maxQueue,
		MaxAuditLag: maxAuditLag,
		RetryAfter:  25 * time.Millisecond,
		AuditEvery:  25 * time.Millisecond,
	}, sched, slo, load.PooledClient(overloadConns))
	if err != nil {
		return nil, err
	}
	cell := &serveOverloadCell{
		Rate:        rate,
		MaxQueue:    maxQueue,
		MaxAuditLag: maxAuditLag,
		Result:      res,
		ShedRate:    res.ShedRate,
		BoundMS:     2 * float64(slo.P99.Microseconds()) / 1e3,
	}
	for _, ep := range []string{load.EpContribution, load.EpWorkerUpdate, load.EpOffer} {
		if es := res.Endpoints[ep]; es != nil && es.OK > 0 && es.P99MS > cell.AdmittedP99MS {
			cell.AdmittedP99MS = es.P99MS
		}
	}
	cell.Pass = res.Shed > 0 && cell.AdmittedP99MS <= cell.BoundMS
	return cell, nil
}

// runServeOpenTrial is one capacity probe: fresh in-memory server, fresh
// derived seed, open-loop at the probed rate. Trial length is capped so
// low-rate probes do not dominate wall time.
func runServeOpenTrial(spec load.MixSpec, seed uint64, auditCfg crowdfair.AuditConfig, rate float64, slo *load.SLO, maxRequests int) (*load.Result, error) {
	n := int(rate * 3) // ~3 seconds of offered load
	if n > maxRequests {
		n = maxRequests
	}
	if n < 200 {
		n = 200
	}
	tspec := spec
	tspec.Requests = n
	plan := load.BuildPlan(tspec, seed)
	p := crowdfair.NewPlatform(plan.Universe)
	sched := workload.OpenLoopPoisson(rate, len(plan.Requests), stats.NewRNG(stats.DeriveSeed(seed, 6, 0)))
	res, _, err := serveCell(plan, serve.Config{Platform: p, Audit: auditCfg, AuditEvery: 25 * time.Millisecond}, sched, slo, load.PooledClient(overloadConns))
	return res, err
}
