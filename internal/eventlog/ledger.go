package eventlog

import (
	"math/bits"
	"slices"
	"strings"
	"sync"

	"repro/internal/model"
)

// Kind names one of the subject namespaces the disclosure ledger tracks.
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

// Ledger is the trace folded into "who was ever disclosed what", the state
// the transparency audit (Axioms 6 and 7, policy compliance) reads.
// Disclosure is monotone over an append-only log — no later event retracts
// one — so folding only the events appended since the last read is exact.
// A disclosure event is recorded to a worker (Worker != ""), about a task
// (Task != ""), and about a requester (Requester != "" and Task == "").
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

// ReadLedger brings the log's disclosure ledger up to date with every
// event appended so far and calls fn with it under the ledger's lock. fn
// must not keep the ledger or call back into ReadLedger.
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

func (d *Ledger) fold(events []Event) {
	if d.fields == nil {
		d.fields = make(map[string]int)
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
		case TaskStarted:
			workers.mark(string(e.Worker), RoleStarted)
		case TaskSubmitted:
			workers.mark(string(e.Worker), RoleSubmitted)
		case TaskPosted:
			t := tasks.mark(string(e.Task), RolePosted)
			requesters.mark(string(e.Requester), RolePosted)
			for int(t) >= len(d.owner) {
				d.owner = append(d.owner, "")
			}
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
	for f >= len(s.disclosed) {
		s.disclosed = append(s.disclosed, nil)
	}
	w := int(i) / 64
	for w >= len(s.disclosed[f]) {
		s.disclosed[f] = append(s.disclosed[f], 0)
	}
	s.disclosed[f][w] |= 1 << (uint(i) % 64)
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
