// Package audit is the incremental fairness-audit engine: the subsystem
// that turns the paper's batch audits into the continuous monitoring loop a
// long-lived platform needs. A full AuditFairness pass re-scans every
// candidate pair on every call — quadratic per tick, untenable alongside
// live traffic. Engine instead subscribes to the store's per-shard
// changelogs (store.ShardChangesSince, one cursor per shard so no
// cross-shard merge is ever needed) and the event log's ledger (the one
// fold of the trace: offers, flags, interrupted starts, each reader
// reading what arrived since its own position), computes per-axiom dirty
// sets — workers whose attributes or offer sets moved, tasks whose
// audiences or contribution sets moved — and re-checks only pairs with at
// least one dirty endpoint, maintaining the violation set across passes.
//
// Guarantee: after any sequence of mutations, Audit reports exactly the
// violations a full fairness.CheckAll over the same trace reports (the
// determinism tests pin this down pair by pair). Report.Checked is exact
// for every axiom: Axioms 3–5 maintain per-unit counts, and Axioms 1–2
// maintain a candidate-pair census (fairness.Report.CheckedPairs feeds
// per-subject sorted partner lists over dense slots) so delta passes report
// the same Checked a full scan would.
//
// Publication costs what the pass changed, not what has accumulated: each
// axiom's standing violations live in one report-ordered slice maintained by
// merge (apply: retract what the dirty units held, insert what the checkers
// found, identical pairs cancelling) beside a running order-free digest of it
// (vsum). A pass hands out those slices and reads its fingerprint off the
// five sums; Fingerprint, computed from scratch, is the oracle.
//
// Pair similarities are recomputed for every pair a pass examines; nothing is
// memoised across passes. Axiom 3 builds each contribution's n-gram profile
// once per dirty task (similarity.ContributionProfiles). When the engine
// falls behind any shard's changelog retention window it falls back to a
// full rebuild — the cold start and the catch-up path are the same code, and
// the rebuild's per-task / per-worker folds fan out on the bounded worker
// pool.
package audit

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/eventlog"
	"repro/internal/fairness"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/similarity"
	"repro/internal/store"
)

// Engine maintains incremental audit state over one store + event log.
// Construct with New. Audit is safe to call concurrently with store and log
// mutation (each pass sees some consistent recent state, and a pass issued
// after mutation stops reflects every mutation); concurrent Audit calls
// serialise on an internal mutex.
type Engine struct {
	mu   sync.Mutex
	st   *store.Store
	log  *eventlog.Log
	cfg  fairness.Config
	plan fairness.IndexPlan

	primed  bool
	cursors []uint64 // per-shard changelog positions
	// pos is the number of trace events the verdicts cover: what the
	// ledger's since-lists hold from pos on is new to the next pass.
	pos int

	// Candidate indexes for the Axiom 1/2 checkers, owned by the engine
	// and advanced incrementally from the same per-shard changelog deltas
	// that drive the dirty sets — an entity mutation re-indexes exactly
	// that entity's skills. Built from the store in place on rebuild and
	// Resume, and keyed by entity id; both nil when the plan is not
	// indexed (every pair is then a candidate).
	workerIx *similarity.SkillJoin
	taskIx   *similarity.SkillJoin

	// Maintained verdicts. viol[i] is Axiom i+1's standing violations in
	// report order and sums[i] their digest; both move only through fold
	// (Axiom 5, append-only, through foldAxiom5), and a slice once handed out
	// is never written again. flat is false from Resume to its first pass:
	// the saved image carries Axioms 1/2 flat, 3/4 per unit, and no sums.
	// Beside them: the exact candidate-pair census (pairSet) that keeps the
	// Axiom 1/2 Checked counts equal to a full scan's; Axiom 3's per-task
	// results and Checked counts with their running total; Axiom 4's
	// per-worker results plus the eligibility set that makes its Checked
	// exact; Axiom 5's violations in the ledger's interruption order, one
	// per interruption folded in.
	viol        [5][]fairness.Violation
	sums        [5]vsum
	flat        bool
	ax1Census   *pairSet
	ax2Census   *pairSet
	ax3         map[model.TaskID][]fairness.Violation
	ax3Checked  map[model.TaskID]int
	ax3Total    int
	ax4         map[model.WorkerID]fairness.Violation
	ax4Eligible map[model.WorkerID]bool
	ax5         []fairness.Violation

	scr scratch
}

// Pass is the outcome of one audit pass.
type Pass struct {
	// Reports are the five axiom reports in axiom order. Their violation
	// slices are the engine's standing ones: read-only, and the previous
	// pass's very slice wherever the axiom's violations did not change.
	Reports []*fairness.Report
	// Fingerprint equals Fingerprint(Reports), read off the running sums
	// under the same lock as the reports.
	Fingerprint string
	// Changed counts the violations the pass retracted plus those it added
	// (everything standing, on a rebuild or the first pass after Resume).
	Changed int
	// Cost is the work the pass did. It is not part of the fingerprint.
	Cost Cost
}

// Cost is the work one audit pass did, counted where it was done. The
// counts depend only on the trace and the passes before, so tests assert
// them exactly.
type Cost struct {
	// WorkerJoin and TaskJoin are the work of the pass's Axiom 1 and
	// Axiom 2 partner walks over the skill joins; zero when the plan is not
	// indexed.
	WorkerJoin, TaskJoin similarity.JoinWork
}

// scratch is the engine's per-pass workspace: the changelog buffer, the four
// dirty sets, and their sorted projections are cleared and refilled each
// pass instead of reallocated, so a steady-state delta audit's fixed
// bookkeeping costs no allocations — what remains scales with what the pass
// actually found.
type scratch struct {
	changed [5]int // per axiom: violations retracted + added this pass
	changes []store.Change
	dirtyW1 map[model.WorkerID]bool
	dirtyT2 map[model.TaskID]bool
	dirtyT3 map[model.TaskID]bool
	dirtyW4 map[model.WorkerID]bool
	w1      []model.WorkerID
	t2      []model.TaskID
	t3      []model.TaskID
	w4      []model.WorkerID
	s1      []string // w1 in the violation subjects' string domain
	s2      []string // t2, likewise
}

// begin readies the workspace for one pass.
func (s *scratch) begin() {
	s.changed = [5]int{}
	s.changes = s.changes[:0]
	if s.dirtyW1 == nil {
		s.dirtyW1 = make(map[model.WorkerID]bool)
		s.dirtyT2 = make(map[model.TaskID]bool)
		s.dirtyT3 = make(map[model.TaskID]bool)
		s.dirtyW4 = make(map[model.WorkerID]bool)
		return
	}
	clear(s.dirtyW1)
	clear(s.dirtyT2)
	clear(s.dirtyT3)
	clear(s.dirtyW4)
}

// sortedIDs refills dst with m's keys in ascending order.
func sortedIDs[T ~string](dst []T, m map[T]bool) []T {
	dst = dst[:0]
	for id := range m {
		dst = append(dst, id)
	}
	sort.Slice(dst, func(i, j int) bool { return dst[i] < dst[j] })
	return dst
}

// idStrings refills dst with ids projected onto plain strings, preserving
// order.
func idStrings[T ~string](dst []string, ids []T) []string {
	dst = dst[:0]
	for _, id := range ids {
		dst = append(dst, string(id))
	}
	return dst
}

// containsSortedStr reports membership of id in an ascending-sorted slice.
func containsSortedStr(ids []string, id string) bool {
	i := sort.SearchStrings(ids, id)
	return i < len(ids) && ids[i] == id
}

// pairSet is the census of the candidate pairs currently in scope for one
// pair axiom. A delta pass first evicts every pair touching a dirty subject,
// then folds in the pairs the pass actually examined
// (fairness.Report.CheckedPairs); pairs between two clean subjects cannot
// have entered or left the candidate set, so the census count always equals
// the Checked of a full scan over the current state.
//
// Subjects live in dense uint32 slots (an id table like
// similarity.SkillJoin's), each with a sorted list of its partners' slots. A
// subject whose list empties gives its slot back. Slot numbers depend on
// insertion order; pairs() reports by id.
type pairSet struct {
	slots map[string]uint32
	names []string
	freed []uint32
	adj   [][]uint32
	count int
}

func newPairSet() *pairSet { return &pairSet{slots: make(map[string]uint32)} }

// slot returns id's slot, giving it a fresh or freed one if it has none.
func (p *pairSet) slot(id string) uint32 {
	if s, ok := p.slots[id]; ok {
		return s
	}
	var s uint32
	if n := len(p.freed); n > 0 {
		s = p.freed[n-1]
		p.freed = p.freed[:n-1]
		p.names[s] = id
	} else {
		s = uint32(len(p.names))
		p.names = append(p.names, id)
		p.adj = append(p.adj, nil)
	}
	p.slots[id] = s
	return s
}

// release frees slot s, whose partner list is empty.
func (p *pairSet) release(s uint32) {
	delete(p.slots, p.names[s])
	p.names[s] = ""
	p.freed = append(p.freed, s)
}

// dropDirty evicts every pair with at least one endpoint in dirty.
func (p *pairSet) dropDirty(dirty []string) {
	for _, d := range dirty {
		s, ok := p.slots[d]
		if !ok {
			continue
		}
		for _, q := range p.adj[s] {
			p.count--
			if i, ok := slices.BinarySearch(p.adj[q], s); ok {
				p.adj[q] = slices.Delete(p.adj[q], i, i+1)
				if len(p.adj[q]) == 0 {
					p.release(q)
				}
			}
		}
		p.adj[s] = p.adj[s][:0]
		p.release(s)
	}
}

// add folds in examined pairs, ignoring ones already present.
func (p *pairSet) add(pairs [][2]string) {
	for _, pr := range pairs {
		a, b := p.slot(pr[0]), p.slot(pr[1])
		i, ok := slices.BinarySearch(p.adj[a], b)
		if ok {
			continue
		}
		p.adj[a] = slices.Insert(p.adj[a], i, b)
		j, _ := slices.BinarySearch(p.adj[b], a)
		p.adj[b] = slices.Insert(p.adj[b], j, a)
		p.count++
	}
}

// New returns an engine over the given trace. cfg parameterises the
// checkers exactly as in fairness.CheckAll; the engine attaches its own
// incrementally maintained candidate provider (any caller-provided
// cfg.Candidates is replaced) and turns on candidate-pair recording for the
// Checked census.
func New(st *store.Store, log *eventlog.Log, cfg fairness.Config) *Engine {
	e := &Engine{st: st, log: log}
	e.plan = cfg.Plan()
	cfg.Candidates = engineProvider{e}
	cfg.RecordCheckedPairs = true
	e.cfg = cfg
	e.reset()
	return e
}

// CacheStats, Cache and Engine.Cache are what is left of the cross-pass
// similarity cache the engine no longer has: the crowdbench harness (bench/,
// frozen by its benchmark contract) still reads Engine.Cache().Counters().
// Every counter is zero. They leave with the "one door" refactor that routes
// bench/ through crowdfair.
type CacheStats struct{ Hits, Misses, Evictions uint64 }

// Cache is the empty remnant described at CacheStats.
type Cache struct{}

// Counters returns zeros.
func (*Cache) Counters() CacheStats { return CacheStats{} }

// Cache returns the empty remnant described at CacheStats.
func (e *Engine) Cache() *Cache { return &Cache{} }

// engineProvider adapts the engine's maintained indexes to
// fairness.CandidateProvider. It is only consulted by checkers the engine
// itself invokes while holding e.mu, so reads never race index maintenance.
type engineProvider struct{ e *Engine }

// WorkerPartners implements fairness.CandidateProvider.
func (p engineProvider) WorkerPartners(id model.WorkerID, yield func(q model.WorkerID)) {
	p.e.workerIx.Partners(string(id), func(q string) { yield(model.WorkerID(q)) })
}

// TaskPartners implements fairness.CandidateProvider.
func (p engineProvider) TaskPartners(id model.TaskID, yield func(q model.TaskID)) {
	p.e.taskIx.Partners(string(id), func(q string) { yield(model.TaskID(q)) })
}

func (e *Engine) reset() {
	e.primed = false
	e.workerIx = nil
	e.taskIx = nil
	e.cursors = make([]uint64, e.st.ShardCount())
	e.pos = 0
	e.viol, e.sums, e.flat = [5][]fairness.Violation{}, [5]vsum{}, true
	e.ax1Census = newPairSet()
	e.ax2Census = newPairSet()
	e.ax3 = make(map[model.TaskID][]fairness.Violation)
	e.ax3Checked = make(map[model.TaskID]int)
	e.ax4 = make(map[model.WorkerID]fairness.Violation)
	e.ax4Eligible = make(map[model.WorkerID]bool)
	e.ax3Total, e.ax5 = 0, nil
}

// Audit brings the engine up to date with the trace and returns the five
// axiom reports in axiom order. The first call (and any call that finds a
// shard's changelog truncated past the engine's cursor) runs the full
// cold-start scan; subsequent calls re-check only dirty pairs.
func (e *Engine) Audit() []*fairness.Report { return e.AuditPass().Reports }

// AuditPass is Audit with the pass's fingerprint and change count, for
// callers that publish the result (internal/serve). The pass runs under
// the ledger's lock, so no fold moves the access sets, flags and
// interruptions it judges.
func (e *Engine) AuditPass() (p Pass) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.log.ReadLedger(func(d *eventlog.Ledger) { p = e.pass(d) })
	return p
}

func (e *Engine) pass(d *eventlog.Ledger) Pass {
	sc := &e.scr
	sc.begin()

	if !e.primed {
		return e.rebuild(d)
	}
	for i := range e.cursors {
		ch, ok := e.st.ShardChangesSince(i, e.cursors[i])
		if !ok {
			// Fell behind this shard's retention window: mutations were
			// lost, dirty sets would be incomplete. Start over.
			e.reset()
			return e.rebuild(d)
		}
		if len(ch) > 0 {
			e.cursors[i] = ch[len(ch)-1].Version
		}
		sc.changes = append(sc.changes, ch...)
	}

	for _, c := range sc.changes {
		switch c.Entity {
		case store.EntityWorker:
			sc.dirtyW1[c.Worker] = true // attrs/skills moved
			sc.dirtyW4[c.Worker] = true
		case store.EntityTask:
			sc.dirtyT2[c.Task] = true // new task or content moved
		case store.EntityContribution:
			sc.dirtyT3[c.Task] = true // contribution set moved
		}
	}
	// Re-index exactly the entities the changelog touched, before any
	// checker consults the indexes. New access edges (below) dirty workers
	// and tasks too, but offers never change an entity's skills, so only
	// changelog deltas reach the indexes.
	e.refreshIndexes(sc.dirtyW1, sc.dirtyT2)
	workers, tasks := d.IDs(eventlog.KindWorker), d.IDs(eventlog.KindTask)
	for _, a := range d.EdgesSince(e.pos) {
		sc.dirtyW1[model.WorkerID(workers[a.Worker])] = true
		sc.dirtyT2[model.TaskID(tasks[a.Task])] = true
	}
	for _, f := range d.FlagsSince(e.pos) {
		sc.dirtyW4[model.WorkerID(workers[f.Worker])] = true
	}
	e.pos = d.Pos()
	sc.w1 = sortedIDs(sc.w1, sc.dirtyW1)
	sc.t2 = sortedIDs(sc.t2, sc.dirtyT2)
	sc.t3 = sortedIDs(sc.t3, sc.dirtyT3)
	sc.w4 = sortedIDs(sc.w4, sc.dirtyW4)
	sc.s1 = idStrings(sc.s1, sc.w1)
	sc.s2 = idStrings(sc.s2, sc.t2)
	if !e.flat {
		e.flatten()
	}

	// The five axiom passes form a task graph over disjoint engine state —
	// task t reads the shared immutable prologue products (the ledger,
	// candidate indexes, dirty slices) and writes only its own
	// axiom's verdicts — so they fan out on the bounded pool. Each task's
	// internal fan-outs nest under the same token budget; on a saturated
	// pool they simply run inline. All task outputs are deterministic, so
	// the assembled report set is too.
	par.Do(5, 0, func(t int) {
		switch t {
		case 0:
			rep := fairness.Axiom1Pairs(e.st, d, e.cfg, sc.w1)
			e.ax1Census.dropDirty(sc.s1)
			e.ax1Census.add(rep.CheckedPairs)
			e.fold(0, touching(e.viol[0], sc.s1), rep.Violations)
		case 1:
			rep := fairness.Axiom2Pairs(e.st, d, e.cfg, sc.t2)
			e.ax2Census.dropDirty(sc.s2)
			e.ax2Census.add(rep.CheckedPairs)
			e.fold(1, touching(e.viol[1], sc.s2), rep.Violations)
		case 2:
			e.foldTasks(sc.t3)
		case 3:
			e.foldWorkers(d, sc.w4)
		case 4:
			e.foldAxiom5(d)
		}
	})
	return e.publish(d)
}

// publish assembles the pass's reports over the standing slices and reads
// the fingerprint off the running sums.
func (e *Engine) publish(d *eventlog.Ledger) Pass {
	checked := [5]int{e.ax1Census.count, e.ax2Census.count, e.ax3Total, len(e.ax4Eligible), d.Starts()}
	p := Pass{Reports: make([]*fairness.Report, 5)}
	if e.workerIx != nil {
		p.Cost = Cost{WorkerJoin: e.workerIx.TakeWork(), TaskJoin: e.taskIx.TakeWork()}
	}
	for i := range p.Reports {
		p.Reports[i] = &fairness.Report{Axiom: fairness.Axiom(i + 1), Checked: checked[i], Violations: e.viol[i]}
		p.Changed += e.scr.changed[i]
	}
	p.Fingerprint = digest(p.Reports, e.sums[:])
	return p
}

// rebuild is the cold-start/catch-up path: take in the whole ledger, run the
// delta pass's scoped checkers with every worker and task in scope, and seed
// the per-task and per-worker state for Axioms 3–4 (folded shard-parallel on
// the bounded pool).
func (e *Engine) rebuild(d *eventlog.Ledger) Pass {
	// Per-shard cursors are seeded from the shard watermarks, read before
	// any entity scan: a mutation not yet covered by its watermark is
	// re-delivered on the next pass, never skipped.
	for i := range e.cursors {
		e.cursors[i] = e.st.ShardVersion(i)
	}
	e.pos = d.Pos()
	allWorkers, allTasks := e.buildIndexes()
	e.primed = true

	// Same task-graph shape as the delta pass, as full passes over disjoint
	// engine state; every fold starts from the empty standing set reset left.
	par.Do(5, 0, func(t int) {
		switch t {
		case 0:
			rep := fairness.Axiom1Pairs(e.st, d, e.cfg, allWorkers)
			e.ax1Census.add(rep.CheckedPairs)
			e.fold(0, nil, rep.Violations)
		case 1:
			rep := fairness.Axiom2Pairs(e.st, d, e.cfg, allTasks)
			e.ax2Census.add(rep.CheckedPairs)
			e.fold(1, nil, rep.Violations)
		case 2:
			e.foldTasks(allTasks)
		case 3:
			e.foldWorkers(d, allWorkers)
		case 4:
			e.foldAxiom5(d)
		}
	})
	return e.publish(d)
}

// buildIndexes builds the worker and task candidate indexes from the
// store, reading each entity in place, and returns the ids it read in
// ascending order. Any entity mutated after its id was listed is above a
// shard watermark read earlier, so its change is re-delivered to the next
// pass and the index upsert reconciles then.
func (e *Engine) buildIndexes() ([]model.WorkerID, []model.TaskID) {
	wids, tids := e.st.WorkerIDs(), e.st.TaskIDs()
	e.workerIx, e.taskIx = e.plan.NewIndex(), e.plan.NewIndex()
	if e.workerIx != nil {
		fairness.PopulateIndex(e.workerIx, wids, e.st.PeekWorker, (*model.Worker).SkillBits)
		fairness.PopulateIndex(e.taskIx, tids, e.st.PeekTask, (*model.Task).SkillBits)
	}
	return wids, tids
}

// refreshIndexes re-indexes the entities one delta pass found changed:
// removed ones leave the index, and the rest go through the same
// fairness.PopulateIndex path as the cold build. Candidacy is a pure
// function of two entities' skills, so the refresh leaves the index
// answering exactly as a from-scratch build over the current state would —
// the property that keeps delta audits equal to full ones and warm
// restarts equal to cold starts.
func (e *Engine) refreshIndexes(workers map[model.WorkerID]bool, tasks map[model.TaskID]bool) {
	if e.workerIx == nil {
		return
	}
	fairness.PopulateIndex(e.workerIx, mapKeys(workers), e.st.PeekWorker, (*model.Worker).SkillBits)
	fairness.PopulateIndex(e.taskIx, mapKeys(tasks), e.st.PeekTask, (*model.Task).SkillBits)
}

// mapKeys lists a dirty set's ids in map order.
func mapKeys[ID ~string](m map[ID]bool) []ID {
	ids := make([]ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	return ids
}

// fold moves one axiom's standing slice and sum by a pass's delta (see apply).
func (e *Engine) fold(ax int, gone, fresh []fairness.Violation) {
	var n int
	e.viol[ax], n = apply(e.viol[ax], gone, fresh, &e.sums[ax])
	e.scr.changed[ax] += n
}

// touching lists, in order, the violations of a pair axiom's standing slice
// with a subject in dirty (sorted ascending): the pairs the delta pass
// re-examined, which it therefore retracts.
func touching(prev []fairness.Violation, dirty []string) (out []fairness.Violation) {
	if len(dirty) == 0 {
		return nil
	}
	for _, v := range prev {
		if containsSortedStr(dirty, v.Subjects[0]) || containsSortedStr(dirty, v.Subjects[1]) {
			out = append(out, v)
		}
	}
	return out
}

// foldTasks replaces the stored Axiom 3 verdict of every task in ids
// (sorted ascending). The per-task checks are independent (disjoint
// contribution sets), so the batch checker fans them out on the bounded
// pool; the fold into engine state stays sequential in ids order.
func (e *Engine) foldTasks(ids []model.TaskID) {
	var gone, fresh []fairness.Violation
	audits := fairness.CheckAxiom3Tasks(e.st, e.cfg, ids)
	for i := range audits {
		a := &audits[i]
		e.ax3Total += a.Checked - e.ax3Checked[a.Task]
		e.ax3Checked[a.Task] = a.Checked
		gone = append(gone, e.ax3[a.Task]...)
		fresh = append(fresh, a.Violations...)
		if len(a.Violations) > 0 {
			e.ax3[a.Task] = a.Violations
		} else {
			delete(e.ax3, a.Task)
		}
	}
	fairness.SortViolations(gone)
	fairness.SortViolations(fresh)
	e.fold(2, gone, fresh)
}

// foldWorkers replaces the stored Axiom 4 verdict of every worker in ids
// (sorted ascending, so gone and fresh come out in report order), fanning
// the per-worker checks out like foldTasks.
func (e *Engine) foldWorkers(d *eventlog.Ledger, ids []model.WorkerID) {
	var gone, fresh []fairness.Violation
	audits := fairness.CheckAxiom4Workers(e.st, d, ids)
	for i := range audits {
		a := &audits[i]
		if a.Checked > 0 {
			e.ax4Eligible[a.Worker] = true
		} else {
			delete(e.ax4Eligible, a.Worker)
		}
		if old, ok := e.ax4[a.Worker]; ok {
			gone = append(gone, old)
		}
		if len(a.Violations) > 0 {
			e.ax4[a.Worker] = a.Violations[0]
			fresh = append(fresh, a.Violations[0])
		} else {
			delete(e.ax4, a.Worker)
		}
	}
	e.fold(3, gone, fresh)
}

// foldAxiom5 folds in the interruptions the ledger recorded since the last
// pass. Axiom 5 is append-only, and ViolationLess ties on its subjects (two
// interruptions of one worker), so it bypasses apply: the sum takes the
// tail, and the published slice is the whole list in interruption order,
// sorted afresh only when the tail is non-empty.
func (e *Engine) foldAxiom5(d *eventlog.Ledger) {
	tail := fairness.Axiom5Violations(d, d.Interruptions()[len(e.ax5):])
	if len(tail) == 0 {
		return
	}
	for _, v := range tail {
		e.sums[4].add(v)
	}
	e.ax5 = append(e.ax5, tail...)
	e.scr.changed[4] += len(tail)
	e.viol[4] = slices.Clone(e.ax5)
	fairness.SortViolations(e.viol[4])
}

// flatten runs once, on the first pass after Resume: it rebuilds what the
// saved image does not carry — Axiom 3/4's flat slices, Axiom 3's running
// Checked, every sum — from the restored verdicts (Axiom 5 follows through
// foldAxiom5, which after Resume starts from the ledger's first
// interruption).
func (e *Engine) flatten() {
	flat := [4][]fairness.Violation{e.viol[0], e.viol[1]}
	for _, vs := range e.ax3 {
		flat[2] = append(flat[2], vs...)
	}
	for _, v := range e.ax4 {
		flat[3] = append(flat[3], v)
	}
	for _, n := range e.ax3Checked {
		e.ax3Total += n
	}
	for ax, vs := range flat {
		fairness.SortViolations(vs)
		e.viol[ax] = nil
		e.fold(ax, nil, vs)
	}
	e.flat = true
}

// ViolationsEqual reports whether two report sets agree axiom by axiom on
// their rendered violations — the equivalence the engine guarantees against
// fairness.CheckAll. Checked counts are not compared here (the engine's
// Checked parity with the full scan is asserted separately in the tests).
func ViolationsEqual(a, b []*fairness.Report) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Axiom != b[i].Axiom || len(a[i].Violations) != len(b[i].Violations) {
			return false
		}
		for j := range a[i].Violations {
			if a[i].Violations[j].String() != b[i].Violations[j].String() {
				return false
			}
		}
	}
	return true
}
