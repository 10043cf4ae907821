package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 16, 1000} {
		for _, workers := range []int{0, 1, 4, 32} {
			hits := make([]atomic.Int32, n)
			For(n, workers, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d hit %d times, want 1", n, workers, i, got)
				}
			}
		}
	}
}

func TestForDeterministicOutputSlots(t *testing.T) {
	const n = 500
	serial := make([]int, n)
	For(n, 1, func(i int) { serial[i] = i * i })
	parallel := make([]int, n)
	For(n, 8, func(i int) { parallel[i] = i * i })
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("slot %d: serial %d != parallel %d", i, serial[i], parallel[i])
		}
	}
}

func TestWorkersPositive(t *testing.T) {
	if got := curBudget.Load().workers; got < 1 {
		t.Fatalf("pool ceiling = %d, want >= 1", got)
	}
}

func TestDoParallelisesSmallN(t *testing.T) {
	// Do must cover tiny iteration counts too (the audit's axiom graph fans out 5 jobs).
	for _, n := range []int{1, 2, 4} {
		hits := make([]atomic.Int32, n)
		Do(n, 4, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("Do n=%d: index %d hit %d times", n, i, got)
			}
		}
	}
}

func TestNestedForStaysBounded(t *testing.T) {
	// A nested fan-out must complete and cover everything even when the
	// outer level holds the entire token budget.
	const outer, inner = 8, 100
	sums := make([]int64, outer)
	Do(outer, 0, func(o int) {
		var s atomic.Int64
		For(inner, 0, func(i int) { s.Add(int64(i)) })
		sums[o] = s.Load()
	})
	for o, s := range sums {
		if s != inner*(inner-1)/2 {
			t.Fatalf("outer %d: inner sum %d, want %d", o, s, inner*(inner-1)/2)
		}
	}
}

func TestForAroundSerialThreshold(t *testing.T) {
	// Just under the threshold For must stay inline (serial order); at and
	// above it delegates to Do. Either way every index is hit exactly once.
	for _, n := range []int{serialThreshold - 1, serialThreshold, serialThreshold + 1} {
		hits := make([]atomic.Int32, n)
		order := make([]int, 0, n)
		var mu sync.Mutex
		For(n, 0, func(i int) {
			hits[i].Add(1)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d hit %d times, want 1", n, i, got)
			}
		}
		if n < serialThreshold {
			for i, got := range order {
				if got != i {
					t.Fatalf("n=%d below threshold must run in serial order, got %v", n, order)
				}
			}
		}
	}
}

func TestDoWorkersExceedN(t *testing.T) {
	// More workers than indices must not spawn idle goroutines that miss
	// the counter, double-claim, or deadlock.
	for _, n := range []int{1, 2, 3, 5} {
		hits := make([]atomic.Int32, n)
		Do(n, n*10, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d workers=%d: index %d hit %d times", n, n*10, i, got)
			}
		}
	}
}

func TestDoZeroAndNegativeN(t *testing.T) {
	ran := false
	Do(0, 4, func(int) { ran = true })
	Do(-3, 4, func(int) { ran = true })
	if ran {
		t.Fatal("Do must not invoke fn for n <= 0")
	}
}

func TestBudgetExhaustionRunsInline(t *testing.T) {
	// Drain the whole token budget: every For/Do must then run inline on
	// the caller's goroutine — concurrency exactly 1, no goroutines spawned.
	b := curBudget.Load()
	held := 0
	for {
		select {
		case b.tokens <- struct{}{}:
			held++
			continue
		default:
		}
		break
	}
	defer func() {
		for i := 0; i < held; i++ {
			<-b.tokens
		}
	}()
	var cur, max atomic.Int32
	For(10*serialThreshold, 0, func(i int) {
		c := cur.Add(1)
		if c > max.Load() {
			max.Store(c)
		}
		cur.Add(-1)
	})
	if got := max.Load(); got != 1 {
		t.Fatalf("For under exhausted budget ran with concurrency %d, want 1", got)
	}
}

func TestSetMaxWorkersBoundsConcurrency(t *testing.T) {
	// Under a budget of w total workers, observed concurrency must never
	// exceed w — including for nested fan-outs — and SetMaxWorkers must
	// restore the default cleanly.
	for _, w := range []int{1, 2, 3} {
		prev := SetMaxWorkers(w)
		if got := curBudget.Load().workers; got != w {
			t.Fatalf("pool ceiling = %d after SetMaxWorkers(%d)", got, w)
		}
		// Concurrency is sampled in the innermost kernel only: a nested For
		// that degrades to inline runs on its caller's goroutine, so the
		// outer activation must not be counted while the inner one runs.
		var cur, max atomic.Int32
		note := func() {
			c := cur.Add(1)
			for {
				m := max.Load()
				if c <= m || max.CompareAndSwap(m, c) {
					break
				}
			}
			cur.Add(-1)
		}
		Do(64, 0, func(o int) {
			note()
			For(2*serialThreshold, 0, func(i int) { note() })
		})
		SetMaxWorkers(prev)
		if got := max.Load(); got > int32(w) {
			t.Fatalf("budget %d: observed concurrency %d", w, got)
		}
	}
	if got := curBudget.Load().workers; got != runtime.GOMAXPROCS(0) {
		t.Fatalf("pool ceiling = %d after restore, want GOMAXPROCS", got)
	}
}
