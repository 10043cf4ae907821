package eventlog

import (
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/model"
)

// Kind names one of the subject namespaces the ledger interns.
type Kind uint8

// Ledger subject kinds.
const (
	KindWorker Kind = iota
	KindTask
	KindRequester
	numKinds
)

// Role is a bit set recording how a subject appeared in the trace.
type Role uint8

// Roles. A worker is joined, started or submitted by the event of that
// name; a task and its requester are posted by TaskPosted.
const (
	RoleJoined Role = 1 << iota
	RoleStarted
	RoleSubmitted
	RolePosted
)

// Ledger is the one fold of the trace: every question the audits ask of
// the history, answered from state keyed by the dense indexes it interns
// per subject kind.
//   - Access (Axioms 1 and 2): the tasks ever offered to each worker and the
//     workers each task was ever offered to, deduplicated and sorted.
//   - Flags (Axiom 4): the workers the platform ever flagged.
//   - Starts (Axiom 5): the starts not yet submitted or interrupted, the
//     count of all starts, and every interrupted start.
//   - Disclosures (Axioms 6 and 7, policy compliance): who was ever
//     disclosed what, and each subject's roles.
//
// Every fact is monotone over an append-only log — no later event retracts
// an offer, a flag, an interruption or a disclosure — so folding only the
// events appended since the last read is exact. A disclosure event is
// recorded to a worker (Worker != ""), about a task (Task != ""), and about
// a requester (Requester != "" and Task == ""). What an incremental reader
// has not seen yet is what the since-lists (EdgesSince, FlagsSince, and
// Interruptions past a count) hold beyond its last position.
//
// Each Log holds one Ledger, built on the first ReadLedger and advanced by
// later ones; appends and WAL replay never touch it.
type Ledger struct {
	mu     sync.Mutex
	pos    int
	fields map[string]int
	kinds  [numKinds]subjects
	// owner[i] is task i's requester; the last TaskPosted wins.
	owner []model.RequesterID

	// offers[w] lists the tasks ever offered to worker w, audience[t] the
	// workers task t was ever offered to, both sorted; edges lists each
	// (worker, task) pair once, in fold order.
	offers   [][]int32
	audience [][]int32
	edges    []Edge
	// flagged is the bit set of flagged workers; flags lists each once.
	flagged []uint64
	flags   []Flag
	// open maps each started (worker, task) pair, until its submission or
	// interruption, to the start's time.
	open          map[uint64]int64
	starts        int
	interruptions []Interruption
}

// Edge is an access edge: task Task was first offered to worker Worker by
// the event at index At of the trace.
type Edge struct {
	Worker, Task int32
	At           int
}

// Flag records that the event at index At first flagged worker Worker.
type Flag struct {
	Worker int32
	At     int
}

// Interruption is an interrupted start — an Axiom 5 violation: worker
// Worker started task Task at time Start, and the task was interrupted at
// time End before the worker submitted it.
type Interruption struct {
	Worker, Task int32
	Start, End   int64
}

// subjects interns one namespace's ids to dense indexes.
type subjects struct {
	index map[string]int32
	ids   []string
	roles []Role
	// sorted lists every index in id order.
	sorted []int32
	// disclosed[f] is the bit set, over indexes, of subjects field f was
	// disclosed to or about.
	disclosed [][]uint64
}

// ReadLedger brings the log's ledger up to date with every event appended
// so far and calls fn with it under the ledger's lock, so no fold moves
// what fn reads. fn may read the ledger from several goroutines, but must
// not keep it or call back into ReadLedger.
func (l *Log) ReadLedger(fn func(*Ledger)) {
	d := &l.ledger
	d.mu.Lock()
	defer d.mu.Unlock()
	// Read the prefix under the ledger's lock, so it is never shorter than
	// what an earlier reader already folded.
	events := l.Prefix()
	d.fold(events[d.pos:])
	d.pos = len(events)
	for k := range d.kinds {
		d.kinds[k].sortNew()
	}
	fn(d)
}

// Undisclosed returns the dense index of every subject of kind k holding
// any role in roles that was never disclosed field, in id order. The slice
// is the caller's; IDs resolves its indexes and, for KindTask, OwnersOf
// the tasks' requesters.
func (d *Ledger) Undisclosed(k Kind, roles Role, field string) []int32 {
	s := &d.kinds[k]
	var set []uint64
	if f, ok := d.fields[field]; ok && f < len(s.disclosed) {
		set = s.disclosed[f]
	}
	// No disclosed subject is missing, so this bounds the answer: one
	// allocation of about its size, without a counting pass.
	bound := len(s.sorted)
	for _, w := range set {
		bound -= bits.OnesCount64(w)
	}
	if bound == 0 {
		return nil
	}
	// Whether a subject is kept follows no pattern a branch predictor could
	// learn, so the walk does not branch on it: every subject is written at
	// out[n], and n moves past only the kept ones (at most bound).
	out := make([]int32, bound+1)
	n := 0
	for _, i := range s.sorted {
		var disclosed uint64
		if w := int(i) / 64; w < len(set) {
			disclosed = set[w] >> (uint(i) % 64) & 1
		}
		var held uint64
		if s.roles[i]&roles != 0 {
			held = 1
		}
		out[n] = i
		n += int(held &^ disclosed)
	}
	if n == 0 {
		return nil
	}
	return out[:n]
}

// IDs returns kind k's id table: IDs(k)[i] is the id of dense index i. The
// table is append-only — an interned id never moves or changes — so the
// returned slice, capped at its length, stays valid after ReadLedger
// returns.
func (d *Ledger) IDs(k Kind) []string {
	ids := d.kinds[k].ids
	return ids[:len(ids):len(ids)]
}

// OwnersOf returns the requester of each dense task index in idx, in
// idx's order. The slice is the caller's: a later TaskPosted re-owns a
// task in the ledger, not in it.
func (d *Ledger) OwnersOf(idx []int32) []model.RequesterID {
	out := make([]model.RequesterID, len(idx))
	for j, t := range idx {
		out[j] = d.owner[t]
	}
	return out
}

// Pos returns the number of events folded in: the position from which
// the next ReadLedger's since-lists grow.
func (d *Ledger) Pos() int { return d.pos }

// Offers returns the dense indexes of the tasks ever offered to worker w,
// sorted (nil if none). The slice is the ledger's: read it under the lock.
func (d *Ledger) Offers(w model.WorkerID) []int32 {
	return d.listOf(KindWorker, string(w), d.offers)
}

// Audience returns the dense indexes of the workers task t was ever offered
// to, sorted (nil if none), under Offers' terms.
func (d *Ledger) Audience(t model.TaskID) []int32 {
	return d.listOf(KindTask, string(t), d.audience)
}

func (d *Ledger) listOf(k Kind, id string, lists [][]int32) []int32 {
	if i, ok := d.kinds[k].index[id]; ok && int(i) < len(lists) {
		return lists[i]
	}
	return nil
}

// Flagged reports whether the platform ever flagged worker w.
func (d *Ledger) Flagged(w model.WorkerID) bool {
	i, ok := d.kinds[KindWorker].index[string(w)]
	return ok && hasBit(d.flagged, i)
}

// EdgesSince returns, in fold order, the access edges first made by an
// event at index p or later.
func (d *Ledger) EdgesSince(p int) []Edge {
	return d.edges[sort.Search(len(d.edges), func(i int) bool { return d.edges[i].At >= p }):]
}

// FlagsSince returns, in fold order, the workers first flagged by an event
// at index p or later.
func (d *Ledger) FlagsSince(p int) []Flag {
	return d.flags[sort.Search(len(d.flags), func(i int) bool { return d.flags[i].At >= p }):]
}

// Starts returns the number of TaskStarted events folded in.
func (d *Ledger) Starts() int { return d.starts }

// Interruptions returns every interrupted start in fold order. The list
// only grows, so a reader that has seen n of them reads the rest past n.
func (d *Ledger) Interruptions() []Interruption { return d.interruptions }

func (d *Ledger) fold(events []Event) {
	if d.fields == nil {
		d.fields = make(map[string]int)
		d.open = make(map[uint64]int64)
		for k := range d.kinds {
			d.kinds[k].index = make(map[string]int32)
		}
	}
	workers, tasks, requesters := &d.kinds[KindWorker], &d.kinds[KindTask], &d.kinds[KindRequester]
	for i := range events {
		e := &events[i]
		switch e.Type {
		case WorkerJoined:
			workers.mark(string(e.Worker), RoleJoined)
		case TaskOffered:
			w, t := workers.mark(string(e.Worker), 0), tasks.mark(string(e.Task), 0)
			d.offers = cover(d.offers, w)
			var fresh bool
			if d.offers[w], fresh = insertSorted(d.offers[w], t); fresh {
				d.audience = cover(d.audience, t)
				d.audience[t], _ = insertSorted(d.audience[t], w)
				d.edges = append(d.edges, Edge{Worker: w, Task: t, At: d.pos + i})
			}
		case WorkerFlagged:
			w := workers.mark(string(e.Worker), 0)
			var fresh bool
			if d.flagged, fresh = setBit(d.flagged, w); fresh {
				d.flags = append(d.flags, Flag{Worker: w, At: d.pos + i})
			}
		case TaskStarted:
			w, t := workers.mark(string(e.Worker), RoleStarted), tasks.mark(string(e.Task), 0)
			d.open[pairKey(w, t)] = e.Time
			d.starts++
		case TaskSubmitted:
			w := workers.mark(string(e.Worker), RoleSubmitted)
			if t, ok := tasks.index[string(e.Task)]; ok {
				delete(d.open, pairKey(w, t))
			}
		case TaskInterrupted:
			w, okW := workers.index[string(e.Worker)]
			t, okT := tasks.index[string(e.Task)]
			if !okW || !okT {
				continue
			}
			if t0, ok := d.open[pairKey(w, t)]; ok {
				d.interruptions = append(d.interruptions, Interruption{Worker: w, Task: t, Start: t0, End: e.Time})
				delete(d.open, pairKey(w, t))
			}
		case TaskPosted:
			t := tasks.mark(string(e.Task), RolePosted)
			requesters.mark(string(e.Requester), RolePosted)
			d.owner = cover(d.owner, t)
			d.owner[t] = e.Requester
		case Disclosure:
			f, ok := d.fields[e.Field]
			if !ok {
				f = len(d.fields)
				d.fields[e.Field] = f
			}
			if e.Worker != "" {
				workers.disclose(string(e.Worker), f)
			}
			if e.Task != "" {
				tasks.disclose(string(e.Task), f)
			} else if e.Requester != "" {
				requesters.disclose(string(e.Requester), f)
			}
		}
	}
}

// pairKey packs a (worker, task) index pair into one map key.
func pairKey(w, t int32) uint64 { return uint64(uint32(w))<<32 | uint64(uint32(t)) }

// cover extends s with zero values until index i exists.
func cover[T any](s []T, i int32) []T {
	if n := int(i) + 1 - len(s); n > 0 {
		s = append(s, make([]T, n)...)
	}
	return s
}

// insertSorted inserts x into the ascending list s, reporting whether it
// was absent.
func insertSorted(s []int32, x int32) ([]int32, bool) {
	i, found := slices.BinarySearch(s, x)
	if found {
		return s, false
	}
	return slices.Insert(s, i, x), true
}

// setBit sets bit i of set, reporting whether it was clear.
func setBit(set []uint64, i int32) ([]uint64, bool) {
	if hasBit(set, i) {
		return set, false
	}
	set = cover(set, i/64)
	set[i/64] |= 1 << (uint(i) % 64)
	return set, true
}

func hasBit(set []uint64, i int32) bool {
	w := int(i) / 64
	return w < len(set) && set[w]>>(uint(i)%64)&1 != 0
}

// mark interns id and adds role to it, returning its index.
func (s *subjects) mark(id string, role Role) int32 {
	i, ok := s.index[id]
	if !ok {
		i = int32(len(s.ids))
		s.index[id] = i
		s.ids = append(s.ids, id)
		s.roles = append(s.roles, 0)
	}
	s.roles[i] |= role
	return i
}

// disclose records field f as disclosed to or about id.
func (s *subjects) disclose(id string, f int) {
	i := s.mark(id, 0)
	s.disclosed = cover(s.disclosed, int32(f))
	s.disclosed[f], _ = setBit(s.disclosed[f], i)
}

// sortNew merges the subjects interned since the last call into the id
// order.
func (s *subjects) sortNew() {
	old := len(s.sorted)
	if old == len(s.ids) {
		return
	}
	byID := func(a, b int32) int { return strings.Compare(s.ids[a], s.ids[b]) }
	fresh := make([]int32, 0, len(s.ids)-old)
	for i := old; i < len(s.ids); i++ {
		fresh = append(fresh, int32(i))
	}
	slices.SortFunc(fresh, byID)
	if old == 0 {
		s.sorted = fresh
		return
	}
	merged := make([]int32, 0, len(s.ids))
	a, b := s.sorted, fresh
	for len(a) > 0 && len(b) > 0 {
		if byID(a[0], b[0]) < 0 {
			merged, a = append(merged, a[0]), a[1:]
		} else {
			merged, b = append(merged, b[0]), b[1:]
		}
	}
	s.sorted = append(append(merged, a...), b...)
}
