package fairness

import (
	"sort"
	"sync"

	"repro/internal/model"
)

// Parallel pair-checking scaffolding shared by the Axiom 1 and 2 checkers.
//
// Every parallel path follows par's determinism-by-disjoint-slots contract:
// the pair space is sharded by outer index (one pairSlot per worker/task or
// per dirty id), workers append only to their own slot, and the slots are
// folded into the report serially in index order. Because that order is
// exactly the serial loop's emission order, the merged Checked count,
// CheckedPairs sequence, and (post-sort) Violations are byte-identical to
// a serial run regardless of scheduling — the property the audit engine's
// determinism tests pin down.

// pairSlot accumulates one shard's results: the pairs it examined, and the
// violations it found, in the shard's serial emission order.
type pairSlot struct {
	checked int
	pairs   [][2]string
	viols   []Violation
}

// mergeSlots folds per-shard slots into rep in shard order, sizing the
// report's slices exactly so the fold costs at most one allocation each.
func mergeSlots(rep *Report, slots []pairSlot) {
	var checked, npairs, nviols int
	for i := range slots {
		checked += slots[i].checked
		npairs += len(slots[i].pairs)
		nviols += len(slots[i].viols)
	}
	rep.Checked += checked
	if npairs > 0 && rep.CheckedPairs == nil {
		rep.CheckedPairs = make([][2]string, 0, npairs)
	}
	if nviols > 0 && rep.Violations == nil {
		rep.Violations = make([]Violation, 0, nviols)
	}
	for i := range slots {
		rep.CheckedPairs = append(rep.CheckedPairs, slots[i].pairs...)
		rep.Violations = append(rep.Violations, slots[i].viols...)
	}
}

// sortedIDList projects a dirty-id set onto the sorted slice form the delta
// checkers consume.
func sortedIDList[T ~string](m map[T]bool) []T {
	ids := make([]T, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// containsSorted reports membership of id in an ascending-sorted id slice.
func containsSorted[T ~string](ids []T, id T) bool {
	i := sort.Search(len(ids), func(k int) bool { return ids[k] >= id })
	return i < len(ids) && ids[i] == id
}

// deltaScratch is the reusable workspace of one pair checker's delta pass:
// per-dirty-id partner lists, the table of the entities they name, the
// per-shard result slots, and the backing array their pair records are
// carved from. Everything keeps its capacity between passes (the pools
// below recycle instances), so a steady-state delta audit's phase
// bookkeeping settles at zero allocations — only the findings themselves
// remain.
type deltaScratch[ID ~string, E any] struct {
	partners [][]ID
	table    map[ID]*E
	slots    []pairSlot
	backing  [][2]string
}

// reset readies the scratch for a pass over n dirty ids, dropping last
// pass's contents but keeping every buffer's capacity.
func (s *deltaScratch[ID, E]) reset(n int) {
	if cap(s.partners) >= n {
		s.partners = s.partners[:n]
	} else {
		s.partners = make([][]ID, n)
	}
	if cap(s.slots) >= n {
		s.slots = s.slots[:n]
	} else {
		s.slots = make([]pairSlot, n)
	}
	for k := 0; k < n; k++ {
		s.partners[k] = s.partners[k][:0]
		s.slots[k].checked = 0
		s.slots[k].pairs = nil
		s.slots[k].viols = s.slots[k].viols[:0]
	}
	if s.table == nil {
		s.table = make(map[ID]*E, 2*n)
	} else {
		clear(s.table)
	}
}

// fetch resolves the dirty ids and every partner listed for them to their
// entities through peek — the store's in-place read: the checkers only read,
// and stored entities are immutable — one map lookup each; absent ids map to
// nil. The filled table is read-only until the next reset, so concurrent
// check shards can share it.
func (s *deltaScratch[ID, E]) fetch(dirty []ID, peek func(ID) *E) map[ID]*E {
	for _, id := range dirty {
		s.table[id] = peek(id)
	}
	for _, ps := range s.partners {
		for _, pid := range ps {
			if _, ok := s.table[pid]; !ok {
				s.table[pid] = peek(pid)
			}
		}
	}
	return s.table
}

// carvePairs hands each slot a pair-record buffer sliced out of one shared
// backing array. Slot k checks at most len(partners[k]) pairs, so the
// full-cap three-index slices are disjoint by construction: a shard can
// never grow into its neighbour, and the whole pass records its checked
// pairs with at most one allocation.
func (s *deltaScratch[ID, E]) carvePairs() {
	total := 0
	for _, ps := range s.partners {
		total += len(ps)
	}
	if cap(s.backing) >= total {
		s.backing = s.backing[:total]
	} else {
		s.backing = make([][2]string, total)
	}
	off := 0
	for k := range s.slots {
		n := len(s.partners[k])
		s.slots[k].pairs = s.backing[off : off : off+n]
		off += n
	}
}

// Per-instantiation scratch pools: the worker checker (Axiom 1) and the
// task checker (Axiom 2) each recycle their own delta workspaces, so the
// engine's concurrent axiom passes never contend over one.
var (
	workerDeltaPool = sync.Pool{New: func() any { return new(deltaScratch[model.WorkerID, model.Worker]) }}
	taskDeltaPool   = sync.Pool{New: func() any { return new(deltaScratch[model.TaskID, model.Task]) }}
)

// simsPool recycles the pair-score buffers the Axiom 3 kernel fills per
// task per pass.
var simsPool = sync.Pool{New: func() any { return new([]float64) }}

func getSims() *[]float64  { return simsPool.Get().(*[]float64) }
func putSims(b *[]float64) { simsPool.Put(b) }
