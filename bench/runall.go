package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runRecord is one finished run in a results file.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  int     `json:"seconds"`
	Trace    bool    `json:"trace"`
	WallS    float64 `json:"wall_s"`
	Result   result  `json:"result"`
	// Detail is the run under the issue's metric names: the lines the run
	// printed before its result object.
	Detail map[string]float64 `json:"detail"`
}

// resultsFile is what a full set of runs writes and -compare reads.
type resultsFile struct {
	Env  map[string]any `json:"env"`
	Runs []runRecord    `json:"runs"`
}

// runAll runs every workload the way the driver does — one process per
// run, so peak memory is each run's own — with runs untraced seeds and one
// traced run each, prints the run-to-run spread of every end-to-end metric
// and writes the results file.
func runAll(o options, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	file := resultsFile{Env: environment(o.dir)}
	failed := 0
	for _, w := range workloads {
		for k := 0; k <= runs; k++ {
			rec := runRecord{Workload: w.Name, Seed: o.seed + int64(k), Seconds: o.seconds, Trace: k == runs}
			if rec.Trace {
				rec.Seed = o.seed
			}
			trace := "0"
			if rec.Trace {
				trace = "1"
			}
			cmd := exec.Command(self, "--workload", w.Name, "--seed", fmt.Sprint(rec.Seed),
				"--seconds", fmt.Sprint(o.seconds), "--trace", trace, "--dir", o.dir)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			start := time.Now()
			runErr := cmd.Run()
			rec.WallS = time.Since(start).Seconds()
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil {
				return fmt.Errorf("bench: %s seed %d: no result object (%v): %w", w.Name, rec.Seed, runErr, err)
			}
			if runErr != nil {
				failed++
			}
			rec.Detail = make(map[string]float64)
			for _, line := range lines[:len(lines)-1] {
				var name, unit string
				var v float64
				if n, _ := fmt.Sscan(line, &name, &v, &unit); n == 3 {
					rec.Detail[name] = v
				}
			}
			if k == 0 || rec.Trace {
				fmt.Print(strings.Join(lines[:len(lines)-1], "\n"), "\n")
			}
			fmt.Printf("%-18s seed=%-4d trace=%s wall=%5.1fs correct=%v failed=%d/%d\n",
				w.Name, rec.Seed, trace, rec.WallS, rec.Result.Correct, rec.Result.Failed, rec.Result.Attempted)
			file.Runs = append(file.Runs, rec)
		}
	}
	printSpread(&file)
	data, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	if failed > 0 {
		return fmt.Errorf("bench: %d run(s) failed a correctness gate or the validity guard", failed)
	}
	return nil
}

// series returns a workload's untraced values of one end-to-end metric.
func (f *resultsFile) series(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Trace {
			if m, ok := r.Result.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) — the rule the
// driver judges spread by. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median (0 with fewer
// than two values).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

func printSpread(f *resultsFile) {
	fmt.Printf("\n%-18s %-18s %12s %10s %8s %6s\n", "workload", "metric", "median", "unit", "iqr/med", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			xs := f.series(w.Name, d.Name)
			if len(xs) == 0 {
				continue
			}
			fmt.Printf("%-18s %-18s %12.4f %10s %7.1f%% %5.0f%%\n", w.Name, d.Name, median(xs), d.Unit, 100*spread(xs), 100*d.Bound)
		}
	}
}

// environment records where the numbers were taken. Latencies are this
// sandbox's, not a storage device's: the fsync probe says how far apart
// those are.
func environment(dir string) map[string]any {
	env := map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"git_rev":    "unknown",
		"kernel":     "unknown",
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env["git_rev"] = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(data))
	}
	env["bench_dir_fs"] = filesystemOf(dir)
	if p50, err := fsyncProbe(dir, 200); err == nil {
		env["fsync_p50_us"] = p50
	}
	return env
}

// filesystemOf names the filesystem type mounted under dir.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		if mp := f[1]; (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}

// fsyncProbe is the median time of a 4 KiB write + fsync under dir.
func fsyncProbe(dir string, samples int) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var took []float64
	for i := 0; i < samples; i++ {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		took = append(took, us(time.Since(start)))
	}
	return median(took), nil
}

// verdicts of -compare.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within-bound"
	verdictUnresolved = "unresolved"
)

// judge compares one metric's runs on two commits. A change is worse when
// its median is worse than the base's by more than the bound; where the
// base's own run-to-run spread exceeds the bound the metric is unresolved,
// unless every run of the change reads better than every run of the base.
func judge(d metricDef, base, change []float64) (verdict string, worsening float64) {
	mb, mc := median(base), median(change)
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	worsening = sign * (mc - mb) / mb
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			if sign*(c-b) >= 0 {
				allBetter = false
			}
		}
	}
	sb := spread(base)
	switch {
	case sb > d.Bound || spread(change) > d.Bound:
		if allBetter {
			return verdictBetter, worsening
		}
		return verdictUnresolved, worsening
	case worsening > d.Bound:
		return verdictWorse, worsening
	case -worsening > sb && (allBetter || len(base) == 1):
		return verdictBetter, worsening
	}
	return verdictWithin, worsening
}

// failShare is failed ÷ attempted over a workload's untraced runs.
func (f *resultsFile) failShare(workload string) float64 {
	failed, attempted := 0, 0
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Trace {
			failed += r.Result.Failed
			attempted += r.Result.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per workload × end-to-end metric with the
// verdict against the metric's bound, every ratio with its base, and fails
// on any worse metric or a higher fail share.
func compareFiles(basePath, changePath string) error {
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	change, err := readResults(changePath)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Printf("%-18s %-18s %14s %14s %9s %6s  %s\n", "workload", "metric", "base", "change", "ratio", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			b, c := base.series(w.Name, d.Name), change.series(w.Name, d.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			verdict, _ := judge(d, b, c)
			if verdict == verdictWorse {
				bad++
			}
			fmt.Printf("%-18s %-18s %11.4f %-2s %11.4f %-2s %8.3fx %5.0f%%  %s (%s is better; n=%d vs %d)\n",
				w.Name, d.Name, median(b), d.Unit, median(c), d.Unit, median(c)/median(b), 100*d.Bound, verdict, d.Better, len(b), len(c))
		}
		if fb, fc := base.failShare(w.Name), change.failShare(w.Name); fc > fb {
			bad++
			fmt.Printf("%-18s %-18s %14.6f %14.6f  worse (fail share rose)\n", w.Name, "fail_share", fb, fc)
		}
	}
	if bad > 0 {
		return fmt.Errorf("bench: %d metric(s) worse", bad)
	}
	return nil
}
