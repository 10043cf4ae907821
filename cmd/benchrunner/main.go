// Command benchrunner regenerates the experiment tables of DESIGN.md
// (E1–E11), either one-shot in the format recorded in EXPERIMENTS.md or as
// a parallel parameter sweep over a grid of experiments × scales × seeds.
//
// Usage:
//
//	benchrunner [-seed N] [-only E4]
//	benchrunner -sweep E1,E4 [-seeds 1,2,3] [-scales 0.5,1,2] [-parallelism 8] [-json]
//	benchrunner -storebench [-goroutines 8] [-shards 1,2,4,8,16] [-ops 200000]
//	benchrunner -walbench [-walsync never|rotate|always] [-walsegkb 512] [-walworkers 300] [-walrounds 8] [-waldir DIR]
//	benchrunner -reshardbench [-goroutines 8] [-reshardfrom 8] [-reshardto 16]
//	benchrunner -auditbench [-auditsizes 2000,10000] [-auditdirty 0.01,0.05] [-auditworkers 1,2,4,8] [-auditrounds 5] [-auditbackend lsh] [-auditout BENCH_audit.json]
//
// The default mode runs every experiment once at the given seed. Sweep
// mode drives the same experiments through the internal/sweep worker pool:
// -sweep selects experiments ("all" for E1–E11), -seeds and -scales span
// the grid, -parallelism bounds the pool (default GOMAXPROCS), and -json
// switches the report from human tables to machine-readable JSON. Sweep
// results are deterministic for a given grid regardless of parallelism.
//
// Store-bench mode measures contended mutation throughput against the
// hash-sharded store at each shard count in -shards, with -goroutines
// concurrent writers issuing -ops updates in total — the quickest way to
// see the single-RWMutex baseline (shards=1) against the sharded layout on
// the current machine.
//
// WAL-bench mode measures the durable-persistence layer: raw segmented-log
// append throughput per fsync policy, durable-simulation overhead and
// recovery time across trace lengths, and warm vs cold first-audit latency
// after a restart (asserting the warm pass reports exactly what a cold
// full scan reports).
//
// Reshard-bench mode measures the two costs of the epoch-routed store:
// the mutation-latency spike concurrent writers see while Reshard splits
// the store live (baseline window vs during-split window, plus the
// reshard's own wall time), and the staleness a WAL-shipping read replica
// accumulates against write rate, with its catch-up time once writes stop.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/eventlog"
	"repro/internal/experiments"
	"repro/internal/fairness"
	"repro/internal/model"
	"repro/internal/replica"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/wal"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h/-help: usage already printed, exit 0
		}
		fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
		os.Exit(2)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchrunner", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 42, "deterministic seed (one-shot mode, and the default sweep seed)")
	only := fs.String("only", "", "run a single experiment (E1..E11)")
	sweepSel := fs.String("sweep", "", "comma-separated experiments to sweep, or \"all\"")
	seedList := fs.String("seeds", "", "comma-separated replicate seeds for the sweep grid")
	scaleList := fs.String("scales", "", "comma-separated scale factors for the sweep grid")
	parallelism := fs.Int("parallelism", 0, "sweep worker-pool size (0 = GOMAXPROCS)")
	asJSON := fs.Bool("json", false, "emit the sweep report as JSON instead of tables")
	storeBench := fs.Bool("storebench", false, "measure contended store mutation throughput per shard count")
	goroutines := fs.Int("goroutines", 8, "concurrent writers for -storebench")
	shardList := fs.String("shards", "1,2,4,8,16", "comma-separated shard counts for -storebench")
	ops := fs.Int("ops", 200000, "total mutations per -storebench cell")
	walBench := fs.Bool("walbench", false, "measure WAL append throughput, recovery time, and warm vs cold first-audit latency")
	walDir := fs.String("waldir", "", "persistence root for -walbench (default: a temp dir, removed afterwards)")
	walSync := fs.String("walsync", "never", "WAL fsync policy for -walbench trace runs (never|rotate|always)")
	walSegKB := fs.Int("walsegkb", 512, "WAL segment size in KiB for -walbench")
	walWorkers := fs.Int("walworkers", 300, "population size for the -walbench trace")
	walRounds := fs.Int("walrounds", 8, "simulation rounds for the -walbench trace")
	walConc := fs.String("walconc", "1,8,64,256", "comma-separated appender concurrencies for the -walbench group-commit sweep")
	walOps := fs.Int("walops", 8000, "appends per -walbench group-commit sweep cell")
	walOut := fs.String("walout", "", "write the -walbench group-commit sweep JSON report to this file")
	reshardBench := fs.Bool("reshardbench", false, "measure mutation latency during a live shard split and replica catch-up lag vs write rate")
	reshardFrom := fs.Int("reshardfrom", 8, "shard count before the -reshardbench split")
	reshardTo := fs.Int("reshardto", 16, "shard count after the -reshardbench split")
	lshBench := fs.Bool("lshbench", false, "measure exact vs MinHash/LSH candidate generation: first-audit latency and incremental churn")
	lshSizes := fs.String("lshsizes", "10000,100000,1000000", "comma-separated population sizes for -lshbench")
	lshExactMax := fs.Int("lshexactmax", 200000, "largest population the exact backend runs at in -lshbench (larger sizes record a skip)")
	lshChurnMax := fs.Int("lshchurnmax", 100000, "largest population the -lshbench churn phase runs at")
	lshChurnRounds := fs.Int("lshchurnrounds", 5, "delta passes per -lshbench churn cell")
	lshChurnMuts := fs.Int("lshchurnmuts", 200, "worker mutations per -lshbench delta pass")
	lshOut := fs.String("lshout", "", "write the -lshbench JSON report to this file (default: stdout)")
	auditBench := fs.Bool("auditbench", false, "sweep the parallel audit pipeline over population × dirty fraction × worker-pool width")
	auditSizes := fs.String("auditsizes", "2000,10000", "comma-separated population sizes for -auditbench")
	auditDirty := fs.String("auditdirty", "0.01,0.05", "comma-separated dirty fractions per delta pass for -auditbench")
	auditWorkers := fs.String("auditworkers", "1,2,4,8", "comma-separated par worker-pool widths for -auditbench (put 1 first: it is the speedup and determinism baseline)")
	auditRounds := fs.Int("auditrounds", 5, "delta passes per -auditbench cell")
	auditBackend := fs.String("auditbackend", "lsh", "candidate backend for -auditbench (exact|lsh)")
	auditOut := fs.String("auditout", "", "write the -auditbench JSON report to this file (default: stdout)")
	serveBench := fs.Bool("servebench", false, "measure the HTTP serving hot path: closed/open-loop latency vs SLO, overload shedding, and a capacity search")
	serveRequests := fs.Int("serverequests", 4000, "measured requests per -servebench cell")
	serveConc := fs.String("serveconc", "8,32", "comma-separated closed-loop concurrencies for -servebench (at least two)")
	serveSLO := fs.Duration("serveslo", 100*time.Millisecond, "SLO p99 latency bound per endpoint for -servebench")
	serveCapIters := fs.Int("servecapiters", 5, "capacity-search bisection rounds for -servebench")
	serveOverRate := fs.Float64("serveoverrate", 0, "open-loop overload rate for -servebench (0: 3x best closed-loop achieved rate)")
	serveOut := fs.String("serveout", "", "write the -servebench JSON report to this file (default: stdout)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the selected benchmark to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (after a final GC) of the selected benchmark to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeHeapProfile(*memProfile); err != nil {
				fmt.Fprintf(stderr, "benchrunner: -memprofile: %v\n", err)
			}
		}()
	}

	// The bench modes are mutually exclusive: each takes over the whole
	// run, so naming two at once used to silently run whichever this
	// dispatch chain tested first. Reject the ambiguity instead.
	var modes []string
	for _, m := range []struct {
		name string
		set  bool
	}{
		{"-auditbench", *auditBench},
		{"-lshbench", *lshBench},
		{"-storebench", *storeBench},
		{"-reshardbench", *reshardBench},
		{"-walbench", *walBench},
		{"-servebench", *serveBench},
		{"-sweep", *sweepSel != ""},
	} {
		if m.set {
			modes = append(modes, m.name)
		}
	}
	if len(modes) > 1 {
		return fmt.Errorf("conflicting bench modes %s: pick exactly one", strings.Join(modes, " "))
	}
	if len(modes) == 1 && modes[0] != "-sweep" && *only != "" {
		return fmt.Errorf("-only selects experiments for the default/sweep modes and does not compose with %s", modes[0])
	}

	if *serveBench {
		return runServeBench(serveBenchOpts{
			requests: *serveRequests, conc: *serveConc, sloP99: *serveSLO,
			capIters: *serveCapIters, overRate: *serveOverRate,
			out: *serveOut, seed: *seed,
		}, stdout)
	}
	if *auditBench {
		return runAuditBench(auditBenchOpts{
			sizes: *auditSizes, fracs: *auditDirty, workers: *auditWorkers,
			rounds: *auditRounds, backend: *auditBackend, out: *auditOut, seed: *seed,
		}, stdout)
	}
	if *lshBench {
		return runLSHBench(lshBenchOpts{
			sizes: *lshSizes, exactMax: *lshExactMax,
			churnMax: *lshChurnMax, churnRounds: *lshChurnRounds, churnMuts: *lshChurnMuts,
			out: *lshOut, seed: *seed,
		}, stdout)
	}
	if *storeBench {
		return runStoreBench(*shardList, *goroutines, *ops, stdout)
	}
	if *reshardBench {
		return runReshardBench(reshardBenchOpts{
			goroutines: *goroutines, from: *reshardFrom, to: *reshardTo, seed: *seed,
		}, stdout)
	}
	if *walBench {
		pol, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			return err
		}
		return runWALBench(walBenchOpts{
			dir: *walDir, sync: pol, segKB: *walSegKB,
			workers: *walWorkers, rounds: *walRounds, seed: *seed,
			conc: *walConc, gcOps: *walOps, out: *walOut,
		}, stdout)
	}
	if *sweepSel == "" && *seedList == "" && *scaleList == "" {
		return runOneShot(*seed, *only, stdout)
	}
	if *only != "" {
		// -only composes with the grid flags by narrowing the sweep to one
		// experiment; naming experiments two ways at once is ambiguous.
		if *sweepSel != "" {
			return fmt.Errorf("use either -only or -sweep to select experiments, not both")
		}
		*sweepSel = *only
	}
	grid, err := buildGrid(*sweepSel, *seedList, *scaleList, *seed)
	if err != nil {
		return err
	}
	report, err := sweep.Run(grid, sweep.Options{Parallelism: *parallelism})
	if err != nil {
		return err
	}
	if *asJSON {
		raw, err := report.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(raw))
		return nil
	}
	fmt.Fprint(stdout, report.String())
	return nil
}

// writeHeapProfile snapshots live allocations after a final GC, so the
// profile shows what the selected benchmark retains, not collectable
// garbage.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// runOneShot preserves the original benchrunner behaviour (and the exact
// seeds of the tables recorded in EXPERIMENTS.md).
func runOneShot(seed uint64, only string, stdout io.Writer) error {
	if only != "" {
		spec, ok := experiments.SpecByID(only)
		if !ok {
			return fmt.Errorf("unknown experiment %q (want E1..E11)", only)
		}
		fmt.Fprintln(stdout, spec.Run(experiments.Params{Seed: seed, Scale: 1}))
		return nil
	}
	for _, t := range experiments.All(seed) {
		fmt.Fprintln(stdout, t)
	}
	return nil
}

// runStoreBench drives the contended-mutation comparison: goroutines
// writers split ops UpdateWorker calls over disjoint worker sets, per shard
// count, reporting throughput and the speedup over the single-RWMutex
// baseline (shards=1). Wall-clock scaling needs real cores: with fewer
// than `goroutines` CPUs the writers timeshare and speedups flatten.
func runStoreBench(shardList string, goroutines, ops int, stdout io.Writer) error {
	if goroutines < 1 {
		return fmt.Errorf("-goroutines must be >= 1")
	}
	if ops < goroutines {
		ops = goroutines
	}
	var shardCounts []int
	for _, s := range strings.Split(shardList, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 1 {
			return fmt.Errorf("bad -shards entry %q", s)
		}
		shardCounts = append(shardCounts, v)
	}
	rng := stats.NewRNG(42)
	pop := workload.GeneratePopulation(workload.PopulationSpec{
		Workers: 2048, Archetypes: 8,
	}, rng.Split())
	if goroutines > len(pop.Workers) {
		// Every writer needs a non-empty disjoint worker set.
		goroutines = len(pop.Workers)
	}
	groups := make([][]*model.Worker, goroutines)
	for i, w := range pop.Workers {
		groups[i%goroutines] = append(groups[i%goroutines], w)
	}

	fmt.Fprintf(stdout, "store contention: %d updates, %d goroutines, GOMAXPROCS=%d\n",
		ops, goroutines, runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "%8s  %14s  %10s\n", "shards", "throughput", "speedup")
	var base float64
	for _, sc := range shardCounts {
		st := store.NewSharded(pop.Universe, sc)
		if err := st.BulkPutWorkers(pop.Workers); err != nil {
			return err
		}
		perG := ops / goroutines
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ws := groups[g]
				for i := 0; i < perG; i++ {
					w := ws[i%len(ws)]
					w.Computed[model.AttrAcceptanceRatio] = model.Num(float64(i%100) / 100)
					if err := st.UpdateWorker(w); err != nil {
						panic(err) // disjoint pre-inserted workers: cannot fail
					}
				}
			}(g)
		}
		wg.Wait()
		thr := float64(perG*goroutines) / time.Since(start).Seconds()
		if base == 0 {
			base = thr
		}
		fmt.Fprintf(stdout, "%8d  %11.0f/s  %9.2fx\n", sc, thr, thr/base)
	}
	return nil
}

type reshardBenchOpts struct {
	goroutines int
	from, to   int
	seed       uint64
}

// pct returns the p-th percentile of a latency sample (sorts in place).
func pct(lats []time.Duration, p float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[int(p*float64(len(lats)-1))]
}

// runReshardBench measures the epoch-routed store's two headline costs.
//
// Phase 1 — mutation latency under a live split: writers hammer disjoint
// worker sets on a durable store while Reshard(from -> to) runs in the
// middle of the run. Each operation's latency lands in the baseline or
// the during-split sample depending on whether the reshard was in flight
// when it started; writers to a shard mid-handoff block only for that
// shard's migration, which is exactly the p99/max spike reported.
//
// Phase 2 — replica staleness vs write rate: a WAL-shipping replica polls
// the primary's directory while a paced writer syncs batches at each
// target rate; the sampled Staleness.Lag shows how far the follower
// trails the flushed log, and the catch-up time is how long after writes
// stop it takes to converge.
func runReshardBench(o reshardBenchOpts, stdout io.Writer) error {
	if o.goroutines < 1 || o.from < 1 || o.to < 1 {
		return fmt.Errorf("-goroutines, -reshardfrom and -reshardto must be >= 1")
	}
	root, err := os.MkdirTemp("", "reshardbench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	rng := stats.NewRNG(o.seed)
	pop := workload.GeneratePopulation(workload.PopulationSpec{
		Workers: 4096, Archetypes: 8,
	}, rng.Split())
	goroutines := o.goroutines
	if goroutines > len(pop.Workers) {
		goroutines = len(pop.Workers)
	}

	// Phase 1: latency during a live split.
	st, err := store.NewDurable(pop.Universe, o.from, filepath.Join(root, "primary"), wal.Options{})
	if err != nil {
		return err
	}
	if err := st.BulkPutWorkers(pop.Workers); err != nil {
		return err
	}
	groups := make([][]*model.Worker, goroutines)
	for i, w := range pop.Workers {
		groups[i%goroutines] = append(groups[i%goroutines], w)
	}
	var splitting, stop atomic.Bool
	base := make([][]time.Duration, goroutines)
	split := make([][]time.Duration, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ws := groups[g]
			for i := 0; !stop.Load(); i++ {
				w := ws[i%len(ws)]
				during := splitting.Load()
				t0 := time.Now()
				w.Computed[model.AttrAcceptanceRatio] = model.Num(float64(i%100) / 100)
				if err := st.UpdateWorker(w); err != nil {
					panic(err) // disjoint pre-inserted workers: cannot fail
				}
				el := time.Since(t0)
				if during {
					split[g] = append(split[g], el)
				} else {
					base[g] = append(base[g], el)
				}
			}
		}(g)
	}
	const settle = 400 * time.Millisecond
	time.Sleep(settle) // baseline window
	splitting.Store(true)
	reshardStart := time.Now()
	if err := st.Reshard(o.to); err != nil {
		return err
	}
	reshardWall := time.Since(reshardStart)
	splitting.Store(false)
	time.Sleep(settle) // post-split window folds into the baseline
	stop.Store(true)
	wg.Wait()
	var baseAll, splitAll []time.Duration
	for g := 0; g < goroutines; g++ {
		baseAll = append(baseAll, base[g]...)
		splitAll = append(splitAll, split[g]...)
	}
	fmt.Fprintf(stdout, "live split %d -> %d shards under %d writers (GOMAXPROCS=%d):\n",
		o.from, o.to, goroutines, runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "  reshard wall time: %s  (%d entities)\n",
		reshardWall.Round(time.Microsecond), len(pop.Workers))
	fmt.Fprintf(stdout, "  %-16s  %8s  %10s  %10s  %10s\n", "window", "ops", "p50", "p99", "max")
	for _, w := range []struct {
		name string
		lats []time.Duration
	}{{"baseline", baseAll}, {"during split", splitAll}} {
		if len(w.lats) == 0 {
			fmt.Fprintf(stdout, "  %-16s  %8d\n", w.name, 0)
			continue
		}
		fmt.Fprintf(stdout, "  %-16s  %8d  %10s  %10s  %10s\n", w.name, len(w.lats),
			pct(w.lats, 0.50).Round(time.Nanosecond),
			pct(w.lats, 0.99).Round(time.Nanosecond),
			w.lats[len(w.lats)-1].Round(time.Nanosecond))
	}
	if err := st.Close(); err != nil {
		return err
	}

	// Phase 2: replica catch-up lag vs write rate.
	fmt.Fprintf(stdout, "\nreplica staleness vs write rate (poll every 10ms, sync every 25ms):\n")
	fmt.Fprintf(stdout, "  %10s  %8s  %10s  %10s  %12s\n", "rate", "writes", "mean lag", "max lag", "catch-up")
	for _, rate := range []int{2000, 10000, 50000} {
		dir := filepath.Join(root, fmt.Sprintf("rep-%d", rate))
		pst, err := store.NewDurable(pop.Universe, 4, dir, wal.Options{})
		if err != nil {
			return err
		}
		if err := pst.BulkPutWorkers(pop.Workers); err != nil {
			return err
		}
		if err := pst.SyncWAL(); err != nil {
			return err
		}
		rep, err := replica.Open(dir)
		if err != nil {
			return err
		}
		if _, err := rep.CatchUp(); err != nil {
			return err
		}
		rep.Run(10*time.Millisecond, nil)

		// Pace the writer: a batch every 25ms for one second, synced so
		// the replica can see it.
		const tick = 25 * time.Millisecond
		perTick := rate * int(tick) / int(time.Second)
		writes := 0
		var lagSamples []float64
		deadline := time.Now().Add(1 * time.Second)
		for i := 0; time.Now().Before(deadline); i++ {
			for j := 0; j < perTick; j++ {
				w := pop.Workers[(writes+j)%len(pop.Workers)]
				w.Computed[model.AttrAcceptanceRatio] = model.Num(float64(j%100) / 100)
				if err := pst.UpdateWorker(w); err != nil {
					return err
				}
			}
			writes += perTick
			if err := pst.SyncWAL(); err != nil {
				return err
			}
			// Steady-state shipping delay: how many committed primary
			// mutations the follower has not applied at this instant
			// (Staleness().Lag only reports flushed-but-unapplied records
			// as of the replica's own last pass, which a drained poll
			// leaves at zero).
			lagSamples = append(lagSamples, float64(pst.Version()-rep.AppliedVersion()))
			time.Sleep(tick)
		}
		if err := pst.SyncWAL(); err != nil {
			return err
		}
		catchStart := time.Now()
		for rep.AppliedVersion() < pst.Version() {
			if _, err := rep.CatchUp(); err != nil {
				return err
			}
		}
		catchUp := time.Since(catchStart)
		rep.Stop()
		var mean, max float64
		for _, l := range lagSamples {
			mean += l
			if l > max {
				max = l
			}
		}
		if len(lagSamples) > 0 {
			mean /= float64(len(lagSamples))
		}
		fmt.Fprintf(stdout, "  %8d/s  %8d  %10.1f  %10.0f  %12s\n",
			rate, writes, mean, max, catchUp.Round(time.Microsecond))
		if err := pst.Close(); err != nil {
			return err
		}
	}
	return nil
}

type walBenchOpts struct {
	dir     string
	sync    wal.SyncPolicy
	segKB   int
	workers int
	rounds  int
	seed    uint64
	conc    string
	gcOps   int
	out     string
}

func (o walBenchOpts) walOptions() wal.Options {
	return wal.Options{SegmentBytes: int64(o.segKB) << 10, Sync: o.sync}
}

// walSimConfig builds the -walbench trace workload: enough tasks to keep
// every worker busy each round, with one in-loop audit at the end so the
// checkpoint carries warm auditor state.
func walSimConfig(o walBenchOpts, rounds int, dir string) sim.Config {
	rng := stats.NewRNG(o.seed + 0xd1e5e1)
	pop := workload.GeneratePopulation(workload.PopulationSpec{
		Workers: o.workers, AcceptanceMean: 0.7, AcceptanceSpread: 0.25,
	}, rng.Split())
	batch := workload.GenerateTasks(workload.TaskSpec{
		Tasks: o.workers * rounds,
	}, pop, rng.Split())
	return sim.Config{
		Population: pop, Batch: batch, Rounds: rounds,
		FlagLowAcceptance: true,
		AuditEvery:        rounds,
		PersistDir:        dir,
		PersistWAL:        o.walOptions(),
		Seed:              o.seed,
	}
}

// runWALBench measures the three costs the durable-persistence layer
// trades between: raw append throughput per fsync policy, recovery time
// against trace length, and — the payoff — warm vs cold first-audit
// latency after a restart.
func runWALBench(o walBenchOpts, stdout io.Writer) error {
	if o.workers < 2 || o.rounds < 1 {
		return fmt.Errorf("-walworkers must be >= 2 and -walrounds >= 1")
	}
	root := o.dir
	if root == "" {
		tmp, err := os.MkdirTemp("", "walbench-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		root = tmp
	}

	// Phase 1: raw segmented-log append throughput per fsync policy, with
	// one serial appender. SyncInterval acks immediately (durability rides
	// the background ticker), so it tracks SyncNever; serial SyncAlways
	// pays a full fsync per append — the baseline the group-commit sweep
	// of phase 2 exists to beat.
	payload := bytes.Repeat([]byte{0xab}, 120)
	fmt.Fprintf(stdout, "wal append throughput (120-byte records, %d KiB segments):\n", o.segKB)
	for _, pol := range []wal.SyncPolicy{wal.SyncNever, wal.SyncOnRotate, wal.SyncInterval(0), wal.SyncAlways} {
		n := 50000
		if pol == wal.SyncAlways {
			n = 300 // every append fsyncs; keep the sample small
		}
		w, err := wal.Create(filepath.Join(root, "append-"+pol.String()), wal.Options{
			SegmentBytes: int64(o.segKB) << 10, Sync: pol,
		})
		if err != nil {
			return err
		}
		start := time.Now()
		for i := 1; i <= n; i++ {
			if err := w.Append(uint64(i), payload); err != nil {
				return err
			}
		}
		if err := w.Sync(); err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		el := time.Since(start)
		fmt.Fprintf(stdout, "  %-12s  %6d recs in %10s  %12.0f recs/s\n",
			pol, n, el.Round(time.Microsecond), float64(n)/el.Seconds())
	}

	// Phase 2: group-commit sweep — appender concurrency × sync policy
	// against a durable store (emits BENCH_wal.json via -walout).
	if err := runWALSweep(o, root, stdout); err != nil {
		return err
	}

	// Phase 3: durable simulation + recovery time across trace lengths.
	fmt.Fprintf(stdout, "\ndurable simulation and recovery (sync=%s, %d workers):\n", o.sync, o.workers)
	fmt.Fprintf(stdout, "  %6s  %8s  %9s  %10s  %10s\n", "rounds", "events", "versions", "sim", "recovery")
	type recovered struct {
		st  *store.Store
		man *store.Manifest
		log *eventlog.Log
		cfg sim.Config
	}
	var last recovered
	var ladder []int
	for _, div := range []int{4, 2, 1} {
		rounds := o.rounds / div
		if rounds < 1 {
			rounds = 1
		}
		if len(ladder) > 0 && ladder[len(ladder)-1] == rounds {
			continue // tiny -walrounds collapse adjacent scales
		}
		ladder = append(ladder, rounds)
	}
	for _, rounds := range ladder {
		dir := filepath.Join(root, fmt.Sprintf("trace-%dr", rounds))
		cfg := walSimConfig(o, rounds, dir)
		simStart := time.Now()
		res, err := sim.Run(cfg)
		if err != nil {
			return err
		}
		simEl := time.Since(simStart)
		events, versions := res.Log.Len(), res.Store.Version()
		if err := res.Close(); err != nil {
			return err
		}
		recStart := time.Now()
		st, man, err := store.Open(dir, 0, cfg.PersistWAL)
		if err != nil {
			return err
		}
		log, err := eventlog.OpenDurable(store.EventsDir(dir), cfg.PersistWAL)
		if err != nil {
			return err
		}
		recEl := time.Since(recStart)
		fmt.Fprintf(stdout, "  %6d  %8d  %9d  %10s  %10s\n",
			rounds, events, versions, simEl.Round(time.Millisecond), recEl.Round(time.Millisecond))
		if last.st != nil {
			last.st.Close()
			last.log.Close()
		}
		last = recovered{st: st, man: man, log: log, cfg: cfg}
	}
	defer last.st.Close()
	defer last.log.Close()

	// Phase 4: warm vs cold first audit over the recovered trace.
	fmt.Fprintf(stdout, "\nfirst audit after restart (largest trace):\n")
	coldStart := time.Now()
	coldEng := audit.New(last.st, last.log, last.cfg.AuditConfig)
	coldReports := coldEng.Audit()
	coldEl := time.Since(coldStart)
	fmt.Fprintf(stdout, "  cold engine (full scan): %10s\n", coldEl.Round(time.Microsecond))

	fullStart := time.Now()
	fullReports := fairness.CheckAll(last.st, last.log, last.cfg.AuditConfig)
	fullEl := time.Since(fullStart)
	fmt.Fprintf(stdout, "  fairness.CheckAll:       %10s\n", fullEl.Round(time.Microsecond))

	// The warm path is timed from the sidecar read: LoadState decodes the
	// image and rebuilds the candidate buckets.
	warmStart := time.Now()
	state, err := audit.LoadState(last.st.Dir(), last.man, last.cfg.AuditConfig)
	if err != nil {
		return fmt.Errorf("walbench: %w", err)
	}
	warmEng, err := audit.Resume(last.st, last.log, last.cfg.AuditConfig, state)
	if err != nil {
		return err
	}
	warmReports := warmEng.Audit()
	warmEl := time.Since(warmStart)
	fmt.Fprintf(stdout, "  warm resume (delta):     %10s  (%.1fx faster than cold)\n",
		warmEl.Round(time.Microsecond), coldEl.Seconds()/warmEl.Seconds())

	if !audit.ViolationsEqual(warmReports, coldReports) || !audit.ViolationsEqual(warmReports, fullReports) {
		return fmt.Errorf("walbench: warm audit diverges from cold full scan")
	}
	for i := range warmReports {
		if warmReports[i].Checked != fullReports[i].Checked {
			return fmt.Errorf("walbench: %s checked %d (warm) vs %d (full)",
				warmReports[i].Axiom, warmReports[i].Checked, fullReports[i].Checked)
		}
	}
	fmt.Fprintln(stdout, "  determinism: warm == cold == full scan (violations and checked counts)")
	return nil
}

func buildGrid(sweepSel, seedList, scaleList string, defaultSeed uint64) (sweep.Grid, error) {
	var g sweep.Grid
	switch sweepSel {
	case "", "all":
		// empty Experiments means all
	default:
		for _, id := range strings.Split(sweepSel, ",") {
			id = strings.TrimSpace(id)
			if id != "" {
				g.Experiments = append(g.Experiments, id)
			}
		}
	}
	if seedList != "" {
		for _, s := range strings.Split(seedList, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
			if err != nil {
				return g, fmt.Errorf("bad -seeds entry %q: %w", s, err)
			}
			g.Seeds = append(g.Seeds, v)
		}
	} else {
		g.Seeds = []uint64{defaultSeed}
	}
	if scaleList != "" {
		for _, s := range strings.Split(scaleList, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return g, fmt.Errorf("bad -scales entry %q: %w", s, err)
			}
			g.Scales = append(g.Scales, v)
		}
	}
	return g, nil
}
