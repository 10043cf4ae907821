package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// timed is one observation stamped with when it completed.
type timed struct {
	at    time.Duration
	value float64
}

// windowQuantile estimates a tail quantile as the median over 1-second
// windows of each window's own quantile. One stall lands in one window
// instead of owning the whole run's tail, which is why it repeats better
// than the plain quantile on a small box. Windows with fewer than 20
// observations are skipped.
func windowQuantile(obs []timed, q float64) float64 {
	windows := make(map[int64][]float64)
	for _, o := range obs {
		w := int64(o.at / time.Second)
		windows[w] = append(windows[w], o.value)
	}
	var per []float64
	for _, vs := range windows {
		if len(vs) >= 20 {
			per = append(per, quantile(vs, q))
		}
	}
	return median(per)
}

// span is one traced interval. Parent indexes the causing span in the same
// tracer (-1 for a root); Req is the request or round the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory until the run ends. It is not safe for
// concurrent use: concurrent phases record into per-request slots and add
// their spans afterwards.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its index, for children to name
// as their parent.
func (t *tracer) add(name string, start, end time.Time, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// begin opens a span that has child spans; end closes it.
func (t *tracer) begin(name string, parent, req int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = time.Since(t.t0).Nanoseconds() }

// seconds is span i's length.
func (t *tracer) seconds(i int) float64 { return float64(t.spans[i].End-t.spans[i].Start) / 1e9 }

// time runs fn inside a span.
func (t *tracer) time(name string, parent, req int, fn func()) int {
	start := time.Now()
	fn()
	return t.add(name, start, time.Now(), parent, req)
}

// durations returns every span of the given name's length in the unit
// given (time.Millisecond, time.Microsecond, ...).
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children are not counted
// twice).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc/self/status")
}

// cpuSeconds is the process's user + system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// medianSetup sets up setupRepeats times and returns the median time of
// one set-up, so a single slow directory build does not decide setup_s.
// discard releases the previous repetition's result; the last one is kept.
func medianSetup(setup, discard func() error) (float64, error) {
	var took []float64
	for k := 0; k < setupRepeats; k++ {
		if k > 0 {
			if err := discard(); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		took = append(took, time.Since(start).Seconds())
	}
	return median(took), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// startMeasured readies the process for a measured phase: it collects the
// garbage set-up left, returns freed pages, and resets the kernel's
// high-water mark of resident memory (clear_refs code 5), so that
// peakRSSMB afterwards reports the phase's own peak rather than set-up's.
// Where the reset is not permitted the peak simply includes set-up.
func startMeasured() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}
