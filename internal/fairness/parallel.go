package fairness

import (
	"sync"

	"repro/internal/par"
)

// Parallel pair-checking scaffolding shared by the Axiom 1 and 2 checkers.
//
// Every parallel path follows par's determinism-by-disjoint-slots contract:
// the pair space is split by scope index (one pairSlot per id in scope),
// workers append only to their own slot, and the slots are folded into the
// report serially in index order. Because that order is exactly the serial
// loop's emission order, the merged Checked count, CheckedPairs sequence,
// and (post-sort) Violations are byte-identical to a serial run regardless
// of scheduling — the property the audit engine's determinism tests pin
// down.

// pairSlot accumulates one scope id's results: the pairs it examined, and
// the violations it found, in serial emission order.
type pairSlot struct {
	checked int
	pairs   [][2]string
	viols   []Violation
}

// mergeSlots folds the slots into rep in scope order, sizing the
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

// slotPool recycles result slots, with their pair and violation buffers,
// across walks. mergeSlots copies everything out, so a steady-state delta
// pass allocates little beyond its findings.
var slotPool = sync.Pool{New: func() any { return new([]pairSlot) }}

// getSlots returns n empty slots that keep the capacity of earlier walks.
func getSlots(n int) *[]pairSlot {
	sp := slotPool.Get().(*[]pairSlot)
	if cap(*sp) < n {
		*sp = make([]pairSlot, n)
	}
	*sp = (*sp)[:n]
	for k := range *sp {
		sl := &(*sp)[k]
		sl.checked, sl.pairs, sl.viols = 0, sl.pairs[:0], sl.viols[:0]
	}
	return sp
}

// walkChunk is how many scope ids walkPairs takes at a time. A chunk lists
// its ids' partners, then judges them, each on the pool: two tight loops
// measured faster on delta passes than judging inside the index walk, and a
// chunk holds at most walkChunk·n partner ids even under the all-pairs
// source, never n².
const walkChunk = 256

// walkPairs is the one pair enumeration behind Axioms 1 and 2. It judges
// every candidate pair with at least one endpoint in scope (ids, ascending
// and deduplicated) exactly once: a pair belongs to its smaller endpoint
// when both are in scope, else to its one in-scope endpoint. A full scan is
// the scope "every id"; a delta pass is the scope "every dirty id", since a
// pair of two unchanged endpoints cannot have changed status.
//
// partners lists an id's candidates (never the id itself); get reads an
// entity in place, nil when the store lacks it (deleted, or indexed ahead of
// this pass, which the next pass then sees); judge examines one pair,
// smaller id first, and reports whether the axiom quantifies over the pair
// at all (only those count as checked) and its violation, the zero
// Violation when the pair passes. Slot k holds ids[k]'s pairs in partner
// order, so the merged report is the same whatever the pool's scheduling.
func walkPairs[ID ~string, E any](ax Axiom, ids []ID, partners func(ID, func(ID)), get func(ID) *E,
	record bool, judge func(a, b *E) (bool, Violation)) *Report {
	// scope maps each in-scope id to its entity, so one read-only lookup per
	// partner tells whether the partner's own slot owns the pair and, when
	// it is in scope, which entity it is.
	scope := make(map[ID]*E, len(ids))
	for _, id := range ids {
		scope[id] = get(id)
	}
	sp := getSlots(len(ids))
	defer slotPool.Put(sp)
	slots := *sp
	lists := make([][]ID, min(walkChunk, len(ids)))
	for off := 0; off < len(ids); off += walkChunk {
		chunk := ids[off:min(off+walkChunk, len(ids))]
		par.For(len(chunk), 0, func(k int) {
			lists[k] = lists[k][:0]
			if scope[chunk[k]] != nil {
				partners(chunk[k], func(pid ID) { lists[k] = append(lists[k], pid) })
			}
		})
		par.For(len(chunk), 0, func(k int) {
			id, sl := chunk[k], &slots[off+k]
			e := scope[id]
			for _, pid := range lists[k] {
				p, in := scope[pid]
				if in && pid < id {
					continue // the partner's own slot owns this pair
				}
				if !in {
					p = get(pid)
				}
				if p == nil {
					continue
				}
				lo, hi, a, b := id, pid, e, p
				if pid < id {
					lo, hi, a, b = pid, id, p, e
				}
				ok, v := judge(a, b)
				if !ok {
					continue
				}
				sl.checked++
				if record {
					sl.pairs = append(sl.pairs, [2]string{string(lo), string(hi)})
				}
				if v.Subjects != nil {
					sl.viols = append(sl.viols, v)
				}
			}
		})
	}
	rep := &Report{Axiom: ax}
	mergeSlots(rep, slots)
	sortViolations(rep.Violations)
	return rep
}

// simsPool recycles the pair-score buffers the Axiom 3 kernel fills per
// task per pass.
var simsPool = sync.Pool{New: func() any { return new([]float64) }}

func getSims() *[]float64  { return simsPool.Get().(*[]float64) }
func putSims(b *[]float64) { simsPool.Put(b) }
