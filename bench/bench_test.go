package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/crowdfair"
	"repro/internal/serve"
)

var testShape = popShape{workers: 200, tasksPerCluster: 2, contribEvery: 4}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	a := generatePlan(testShape, openMix, 500, 300, 7).digest()
	if b := generatePlan(testShape, openMix, 500, 300, 7).digest(); a != b {
		t.Fatalf("same seed, different plans: %s vs %s", a, b)
	}
	if c := generatePlan(testShape, openMix, 500, 300, 8).digest(); a == c {
		t.Fatal("different seeds gave the same plan")
	}
}

// The serial oracle is only a valid check of a concurrent run if the final
// state does not depend on the order mutations were applied in.
func TestPlanIsOrderInsensitive(t *testing.T) {
	pl := generatePlan(testShape, openMix, 1500, 0, 3)
	half := len(pl.pop.workers) / 2
	index := make(map[crowdfair.WorkerID]int)
	for i, w := range pl.pop.workers {
		index[w.ID] = i
	}
	for i := range pl.reqs {
		switch r := &pl.reqs[i]; r.kind {
		case reqContribution:
			if index[r.contrib.Worker] >= half {
				t.Fatalf("contribution %s comes from the offered half", r.contrib.ID)
			}
		case reqOffer:
			if index[r.offer.Worker] < half {
				t.Fatalf("offer to %s goes to the contributing half", r.offer.Worker)
			}
		}
	}

	fingerprint := func(order []int) string {
		p := crowdfair.NewPlatform(pl.pop.universe)
		if err := pl.pop.seed(p); err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			if err := pl.reqs[i].apply(p); err != nil {
				t.Fatal(err)
			}
		}
		return serve.AuditFingerprint(p.AuditIncremental(crowdfair.DefaultAuditConfig()))
	}
	forward := make([]int, len(pl.reqs))
	for i := range forward {
		forward[i] = i
	}
	// Shuffle within windows far narrower than the population: a concurrent
	// run reorders neighbours, never two updates of one worker.
	shuffled := append([]int(nil), forward...)
	rng := rand.New(rand.NewSource(1))
	for lo := 0; lo < len(shuffled); lo += 16 {
		hi := min(lo+16, len(shuffled))
		rng.Shuffle(hi-lo, func(a, b int) { shuffled[lo+a], shuffled[lo+b] = shuffled[lo+b], shuffled[lo+a] })
	}
	if a, b := fingerprint(forward), fingerprint(shuffled); a != b {
		t.Fatalf("audit fingerprint depends on apply order: %s vs %s", a, b)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
}

func TestWindowQuantileIgnoresOneBadSecond(t *testing.T) {
	var obs []timed
	for sec := 0; sec < 10; sec++ {
		for k := 0; k < 100; k++ {
			v := 1.0
			if sec == 4 {
				v = 500 // one stalled second
			}
			obs = append(obs, timed{at: time.Duration(sec)*time.Second + time.Duration(k)*time.Millisecond, value: v})
		}
	}
	if got := windowQuantile(obs, 0.99); got != 1 {
		t.Errorf("window p99 = %v, want 1 (the stall owns one window, not the estimate)", got)
	}
	if got := quantile(values(obs), 0.99); got != 500 {
		t.Errorf("plain p99 = %v, want 500", got)
	}
}

func TestAlarmSleepsUntilTheInstant(t *testing.T) {
	a, err := newAlarm()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for _, d := range []time.Duration{200 * time.Microsecond, 3 * time.Millisecond} {
		start := time.Now()
		if err := a.sleepUntil(start.Add(d)); err != nil {
			t.Fatal(err)
		}
		if got := time.Since(start); got < d || got > d+200*time.Millisecond {
			t.Errorf("slept %v for a %v alarm", got, d)
		}
	}
	start := time.Now()
	if err := a.sleepUntil(start.Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got > 50*time.Millisecond {
		t.Errorf("an alarm in the past took %v", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "queue", Start: 0, End: 30, Parent: 0},
		{Name: "handler", Start: 20, End: 70, Parent: 0}, // overlaps queue by 10
		{Name: "apply", Start: 40, End: 60, Parent: 2},
		{Name: "late", Start: 90, End: 120, Parent: 0}, // runs past its parent
	}
	want := []int64{100 - 30 - 40 - 10, 30, 50 - 20, 20, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98}
	noisy := []float64{100, 140, 70, 120, 85, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name         string
		d            metricDef
		base, change []float64
		want         string
	}{
		{"slower beyond the bound", lower, steady, scale(steady, 1.2), verdictWorse},
		{"slower within the bound", lower, steady, scale(steady, 1.05), verdictWithin},
		{"every run faster", lower, steady, scale(steady, 0.8), verdictBetter},
		{"throughput fell", higher, steady, scale(steady, 0.8), verdictWorse},
		{"throughput rose", higher, steady, scale(steady, 1.3), verdictBetter},
		{"spread wider than the bound", lower, noisy, scale(noisy, 1.1), verdictUnresolved},
		{"noisy but every run faster", lower, noisy, scale(noisy, 0.4), verdictBetter},
	} {
		if got, _ := judge(c.d, c.base, c.change); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json is generated from the tables in this package (-manifest);
// the two must not drift.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no ../BENCHMARK.json beside this checkout:", err)
	}
	var onDisk, inCode any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	mine, err := json.Marshal(buildManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mine, &inCode); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, inCode) {
		t.Error("BENCHMARK.json differs from the tables in main.go and layers.go; regenerate it with -manifest")
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, over the contract's 200", w.Name, len(w.Why))
		}
	}
}

// Every workload, untraced and traced, at tiny sizes with the correctness
// gates on. It runs under out/ like a real run does, not under the system's
// temporary directory, whose filesystem may fsync very differently.
func TestSmoke(t *testing.T) {
	if err := smoke(options{seed: 5, dir: "out"}); err != nil {
		t.Fatal(err)
	}
}
