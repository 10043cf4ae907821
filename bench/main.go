// Command bench is crowdbench, the repository's one benchmark: three
// workloads over the public surfaces of crowdfair and its internal layers,
// a handful of end-to-end metrics measured with tracing off, and per-layer
// numbers from a separate traced run. See README.md for why each workload
// exists and which layer metric should move which end-to-end metric.
//
// One measured run, as the benchmark driver invokes it:
//
//	go run -C bench repro/bench --workload serve_open_mixed --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result object; the lines before
// it print the same run under the issue's per-workload metric names.
//
// Other modes:
//
//	go run -C bench repro/bench                       every workload, -runs seeds each, plus one traced run; writes out/results.json
//	go run -C bench repro/bench -smoke                every workload at tiny sizes with the correctness gates on
//	go run -C bench repro/bench -compare a.json b.json
//	go run -C bench repro/bench -manifest             print BENCHMARK.json from the tables below
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef declares one metric of the contract in BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees, measured with tracing
// off. Every workload reports every one; the first four are slots whose
// operation each workload names (README.md, "Metric slots"), because the
// driver compares a metric only within one workload, never across them.
//
// A slot has one bound for every workload, so its noisiest workload sets
// it; on the reference sandbox whole runs come out 10–20 % slower for
// minutes at a time (README.md, "Measured"). -compare judges against each
// workload's measured spread as well as these bounds.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower", 0.25},
	{"alt_op_ms", "ms", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"report_lag_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// runSeconds is run_seconds in BENCHMARK.json and the default of -seconds.
const runSeconds = 30

// setupRepeats is how many times a run sets up; it reports the median.
const setupRepeats = 3

// workloadDef is one workload: its contract entry and its implementation.
type workloadDef struct {
	Name string
	Why  string
	run  func(o options) (*report, error)
}

var workloads = []workloadDef{
	{"serve_open_mixed",
		"open loop, 1500 req/s mixed API on an interval-sync durable server: op=write alt=read (medians clear of audit stalls) lag=audit staleness; serve+HTTP vs the audit loop, WAL off the blocking path",
		func(o options) (*report, error) { return runServe(serveOpenMixed, o) }},
	{"audit_churn",
		"in-memory 30k workers, LSH: cold audit then rounds of 0.5% churn; op=delta pass alt=Axiom 6+7+compliance lag=cold audit; audit/fairness/similarity/par/transparency only, no serve or WAL",
		runAuditChurn},
	{"recover_restart",
		"reopen a checkpointed durable directory: op=OpenPlatformWAL alt=warm-resume first audit lag=both; the read side of wal/store/eventlog the other two never touch",
		runRecover},
}

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string // scratch root for platform directories and trace files
	smoke    bool   // tiny sizes, validity guard off: the plumbing check
}

// metric is one named number for people to read.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is what one workload run produced.
type report struct {
	attempted, failed int
	gates             []string // failed correctness gates
	invalid           []string // why the load generator's numbers cannot be trusted
	values            map[string]float64
	notes             []metric // the same run under the issue's metric names
	tracer            *tracer  // a traced run's spans, written out when the run ends
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(name string, v float64, unit string) {
	r.notes = append(r.notes, metric{name, v, unit})
}

// slot records an end-to-end slot metric and prints it under the name the
// issue gives this workload's operation.
func (r *report) slot(name, alias string, v float64) {
	r.set(name, v)
	for _, d := range endToEnd {
		if d.Name == name {
			r.note(alias, v, d.Unit)
		}
	}
}

// setLayer records a per-layer metric and prints it too.
func (r *report) setLayer(name string, v float64) {
	r.set(name, v)
	r.note(name, v, layerUnit[name])
}

// metricValue and result are the driver's result object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result shapes the report for the driver: every end-to-end metric for an
// untraced run, every per-layer metric (zero where the workload does not
// reach the layer) for a traced one.
func (r *report) result(traced bool) (result, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Correct: len(r.gates) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok && !traced {
			return res, fmt.Errorf("bench: workload did not measure %s", d.Name)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return res, nil
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return workloadDef{}, fmt.Errorf("bench: unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// runOne runs a workload in this process inside a scratch directory of its
// own, removed afterwards.
func runOne(o options) (*report, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(o.dir, "run-"+o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	traceFile := filepath.Join(o.dir, "trace-"+o.workload+".jsonl")
	o.dir = scratch
	rep, err := w.run(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if !o.trace {
		return rep, nil
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	rep.setLayer("proc.cpu_s", cpuSeconds())
	rep.setLayer("proc.gc_pause_ms", float64(mem.PauseTotalNs)/1e6)
	rep.setLayer("proc.alloc_mb", float64(mem.TotalAlloc)/(1<<20))
	if rep.tracer != nil {
		if err := rep.tracer.write(traceFile); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// printRun writes the human-readable lines and then the result object as
// the last line. It returns a non-nil error when the run must fail the
// command: a correctness gate or the validity guard tripped.
func printRun(o options, rep *report) error {
	sort.SliceStable(rep.notes, func(i, j int) bool { return rep.notes[i].name < rep.notes[j].name })
	for _, m := range rep.notes {
		fmt.Printf("%-40s %14.4f %s\n", m.name, m.value, m.unit)
	}
	res, err := rep.result(o.trace)
	if err != nil {
		return err
	}
	for _, g := range rep.gates {
		fmt.Fprintln(os.Stderr, "bench: INCORRECT:", g)
	}
	for _, g := range rep.invalid {
		fmt.Fprintln(os.Stderr, "bench: INVALID:", g)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(rep.gates) > 0 {
		return fmt.Errorf("bench: %s: %d correctness gate(s) failed", o.workload, len(rep.gates))
	}
	if len(rep.invalid) > 0 {
		return fmt.Errorf("bench: %s: run invalid", o.workload)
	}
	return nil
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print its result object")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the input generator")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run, per-layer metrics; 0: untraced, end-to-end metrics")
	flag.StringVar(&o.dir, "dir", "out", "scratch directory")
	flag.BoolVar(&o.smoke, "smoke", false, "every workload at tiny sizes with the correctness gates on")
	runs := flag.Int("runs", 1, "with no -workload: untraced runs per workload, seeds seed..seed+runs-1")
	out := flag.String("o", "", "with no -workload: results file (default <dir>/results.json)")
	compare := flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json")
	flag.Parse()
	o.trace = trace != 0

	var err error
	switch {
	case *manifest:
		err = printManifest()
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("bench: -compare takes two results files")
		} else {
			err = compareFiles(flag.Arg(0), flag.Arg(1))
		}
	case o.smoke:
		err = smoke(o)
	case o.workload != "":
		if o.seconds < 1 {
			err = fmt.Errorf("bench: -seconds must be at least 1")
			break
		}
		var rep *report
		if rep, err = runOne(o); err == nil {
			err = printRun(o, rep)
		}
	default:
		if *out == "" {
			*out = o.dir + "/results.json"
		}
		err = runAll(o, *runs, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// smoke runs every workload once at tiny sizes, untraced and traced, with
// the correctness gates on.
func smoke(o options) error {
	o.smoke, o.seconds = true, 1
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o.workload, o.trace = w.Name, traced
			rep, err := runOne(o)
			if err != nil {
				return err
			}
			if len(rep.gates) > 0 {
				return fmt.Errorf("bench: smoke %s: %s", w.Name, strings.Join(rep.gates, "; "))
			}
			if _, err := rep.result(traced); err != nil {
				return err
			}
			fmt.Printf("smoke %-18s trace=%-5v ok (%d attempted, %d failed)\n", w.Name, traced, rep.attempted, rep.failed)
		}
	}
	return nil
}

// manifest is BENCHMARK.json.
type manifestFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []manifestLoad `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []manifestPer  `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestPer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func buildManifest() manifestFile {
	m := manifestFile{
		Command:    []string{"go", "run", "-C", "bench", "repro/bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{w.Name, w.Why})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestPer{d.Name, d.Unit, d.Better})
	}
	return m
}

func printManifest() error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(buildManifest())
}
