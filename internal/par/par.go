// Package par provides the bounded parallel-for primitive behind every
// fan-out in this repository: similarity pair scoring, detector
// answer-matrix scoring and the audit engine's axiom task graph all shard
// their index space over a bounded goroutine pool through For and Do.
//
// Determinism is preserved by construction: workers claim indices from a
// shared atomic counter but write results only to caller-owned, disjoint
// slots (slice element i for index i), so the output of a parallel run is
// byte-identical to the serial one regardless of scheduling order.
//
// Nested fan-outs compose through a global token budget. The process owns
// one token fewer than its pool ceiling (GOMAXPROCS unless SetMaxWorkers
// overrode it); every For acquires tokens (without blocking) for each
// worker beyond the caller's own goroutine and releases them as those
// workers drain. When an outer fan-out (the audit's axiom
// task graph) holds the whole budget, the inner kernels it calls find no
// tokens and run inline on their task's goroutine — total runnable
// goroutines stay at the budget instead of multiplying per nesting level.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// serialThreshold is the problem size below which For runs inline; spawning
// goroutines for a handful of cheap iterations costs more than it saves.
const serialThreshold = 16

// budget is one process-wide parallelism regime: a worker ceiling plus the
// token channel that enforces it. Budgets are immutable once published;
// SetMaxWorkers swaps in a fresh one. In-flight fan-outs release tokens to
// the channel they acquired from (captured per Do call), so a swap never
// leaks or double-frees a token.
type budget struct {
	workers int
	tokens  chan struct{}
}

var curBudget atomic.Pointer[budget]

func init() {
	curBudget.Store(newBudget(runtime.GOMAXPROCS(0)))
}

func newBudget(workers int) *budget {
	if workers < 1 {
		workers = 1
	}
	return &budget{workers: workers, tokens: make(chan struct{}, workers-1)}
}

// SetMaxWorkers replaces the process-wide parallelism budget with n total
// workers (the caller's goroutine plus n-1 pool workers); n <= 0 restores
// the GOMAXPROCS default. It returns the previous ceiling. The new budget
// applies to For/Do calls that start after it is published; fan-outs
// already in flight finish under the budget they started with. Intended
// for benchmarks and scaling sweeps, not for concurrent tuning: calls
// racing active fan-outs briefly let old-budget and new-budget workers
// coexist.
func SetMaxWorkers(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return curBudget.Swap(newBudget(n)).workers
}

// For runs fn(i) for every i in [0, n) on the caller's goroutine plus up
// to workers-1 extra pool workers (workers <= 0 means the pool ceiling),
// subject to the process-wide token budget. fn must be safe to call
// concurrently and must confine its writes to per-index state; For returns
// when every index has been processed.
//
// For is meant for fine-grained kernels and runs small iteration counts
// inline; use Do for coarse jobs (whole axiom passes) where even two
// iterations are worth a goroutine.
func For(n, workers int, fn func(i int)) {
	if n < serialThreshold {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	Do(n, workers, fn)
}

// Do is For without the small-n inline shortcut: it parallelises any n > 1
// (budget permitting). Use it when each iteration is expensive enough —
// an axiom pass, one shard's share of a bulk write — that pool overhead never
// dominates.
func Do(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	b := curBudget.Load()
	if workers <= 0 || workers > b.workers {
		workers = b.workers
	}
	if workers > n {
		workers = n
	}
	extra := 0
acquire:
	for extra < workers-1 {
		select {
		case b.tokens <- struct{}{}:
			extra++
		default:
			break acquire // budget exhausted
		}
	}
	if extra == 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(extra)
	for w := 0; w < extra; w++ {
		go func() {
			defer wg.Done()
			defer func() { <-b.tokens }()
			work()
		}()
	}
	work() // the caller's goroutine is the pool's first worker
	wg.Wait()
}
