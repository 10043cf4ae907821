package audit

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/eventlog"
	"repro/internal/fairness"
	"repro/internal/model"
	"repro/internal/store"
)

// BuildCheckpointOptions assembles the store.CheckpointOptions the one
// durable surface, crowdfair.Platform.Checkpoint, hands to
// store.Checkpoint: the event count plus — when eng
// has completed at least one pass — the engine's encoded state, signed with
// cfg's fingerprint, and the changelog cursors that protect its WAL records
// from truncation. A nil or unprimed engine yields plain options.
func BuildCheckpointOptions(eng *Engine, cfg fairness.Config, events int) store.CheckpointOptions {
	o := store.CheckpointOptions{Events: events}
	if eng == nil {
		return o
	}
	state := eng.State()
	if state == nil {
		return o
	}
	state.ConfigSig = ConfigSig(cfg)
	o.Audit = state.Encode()
	o.AuditCursors = state.Cursors
	return o
}

// ConfigSig deterministically fingerprints the checker-relevant fields of
// a fairness.Config — measure names, every threshold and tolerance, and
// the attribute policy's per-field maps in sorted order. The ignored
// CandidateIndex and LSHSeed are not signed, and no signature it produces
// holds ";cand=": state signed with a candidate kind may hold a census of
// skill-sharing pairs rather than of the pairs meeting the skill premise,
// so it must cold-start. Every string is printed Go-quoted, so a measure
// name or map key that contains the separators cannot make two configs
// sign alike. Persisted audit state carries the signature of the config it
// was computed under, and a resume is only warm when the signatures match;
// crowdfair.Platform compares signatures the same way to decide whether
// its incremental engine is still valid for a new config (the
// function-valued config cannot be compared directly).
func ConfigSig(cfg fairness.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "skill=%q@%v;attrT=%v;access=%v;reward=%v;contrib=%v;pay=%v;exh=%v",
		cfg.SkillMeasure.Name, cfg.SkillThreshold, cfg.AttrThreshold, cfg.AccessThreshold,
		cfg.RewardTolerance, cfg.ContributionThreshold, cfg.PayTolerance, cfg.Exhaustive)
	if p := cfg.AttrPolicy; p != nil {
		fmt.Fprintf(&b, ";attr=%v/%v", p.NumTolerance, p.MissingPenalty)
		keys := make([]string, 0, len(p.FieldTolerance))
		for k := range p.FieldTolerance {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, ";ft.%q=%v", k, p.FieldTolerance[k])
		}
		keys = keys[:0]
		for k, on := range p.IgnoreFields {
			if on {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, ";ig.%q", k)
		}
	}
	return b.String()
}

// State is the warm-start image of an Engine: the changelog cursors, the
// event-log position, and every maintained verdict. Checkpoint stores its
// binary encoding (Encode) in the audit-<version>.bin sidecar the manifest
// names, so a restarted auditor re-checks only post-checkpoint deltas — no
// candidate-pair scan. The trace's temporal state (offers, flags,
// interrupted starts) is not part of it: the recovered log's ledger folds
// the whole trace, and the engine reads what it holds past EventPos. Nor
// are pair similarity scores or candidate indexes: the engine keeps no
// scores across passes, and Resume rebuilds the indexes from the store.
type State struct {
	// ConfigSig fingerprints the fairness.Config the verdicts were computed
	// under; LoadState compares it before a resume and callers cold-start on
	// mismatch.
	ConfigSig string
	// Cursors are the per-shard changelog positions at save time.
	Cursors []uint64
	// EventPos is the number of trace events the verdicts covered at save
	// time.
	EventPos int

	Ax1Violations []fairness.Violation
	Ax1Pairs      [][2]string
	Ax2Violations []fairness.Violation
	Ax2Pairs      [][2]string

	Ax3Violations map[model.TaskID][]fairness.Violation
	Ax3Checked    map[model.TaskID]int

	Ax4Violations map[model.WorkerID]fairness.Violation
	Ax4Eligible   []model.WorkerID
}

// pairs lists the census once per pair, deterministically ordered, for
// serialisation; add() restores it.
func (p *pairSet) pairs() [][2]string {
	var out [][2]string
	for s, partners := range p.adj {
		a := p.names[s]
		for _, q := range partners {
			if b := p.names[q]; a < b {
				out = append(out, [2]string{a, b})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// State captures the engine's warm-start image. It returns nil until the
// engine has completed its first Audit pass (an unprimed engine has no
// verdicts worth saving). ConfigSig is left empty for the caller to fill.
func (e *Engine) State() *State {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.primed {
		return nil
	}
	st := &State{
		Cursors:       append([]uint64(nil), e.cursors...),
		EventPos:      e.pos,
		Ax1Violations: append([]fairness.Violation(nil), e.viol[0]...),
		Ax1Pairs:      e.ax1Census.pairs(),
		Ax2Violations: append([]fairness.Violation(nil), e.viol[1]...),
		Ax2Pairs:      e.ax2Census.pairs(),
		Ax3Violations: make(map[model.TaskID][]fairness.Violation, len(e.ax3)),
		Ax3Checked:    make(map[model.TaskID]int, len(e.ax3Checked)),
		Ax4Violations: make(map[model.WorkerID]fairness.Violation, len(e.ax4)),
	}
	for id, vs := range e.ax3 {
		st.Ax3Violations[id] = append([]fairness.Violation(nil), vs...)
	}
	for id, n := range e.ax3Checked {
		st.Ax3Checked[id] = n
	}
	for id, v := range e.ax4 {
		st.Ax4Violations[id] = v
	}
	for id := range e.ax4Eligible {
		st.Ax4Eligible = append(st.Ax4Eligible, id)
	}
	sort.Slice(st.Ax4Eligible, func(i, j int) bool { return st.Ax4Eligible[i] < st.Ax4Eligible[j] })
	return st
}

// Resume rebuilds a warm engine over a recovered trace: the maintained
// verdicts are restored from the saved image, and the changelog cursors
// and event position pick up where the checkpoint left them — so the next
// Audit call is a delta pass over post-checkpoint changes only (what the
// log's ledger holds past the event position), with no candidate-pair
// scan. If the store's changelog no longer
// covers a cursor (deep tail loss), that first Audit
// transparently falls back to the full rebuild; correctness never depends
// on the state being fresh.
//
// The candidate indexes are not part of the image: Resume builds them from
// the recovered store, reading each entity in place, which is linear in the
// entity count and hashes nothing but skill positions.
//
// The caller is responsible for checking State.ConfigSig against cfg (the
// engine cannot compare the function-valued config itself; LoadState does).
func Resume(st *store.Store, log *eventlog.Log, cfg fairness.Config, state *State) (*Engine, error) {
	if state == nil {
		return nil, fmt.Errorf("audit: resume from nil state")
	}
	if len(state.Cursors) != st.ShardCount() {
		return nil, fmt.Errorf("audit: state has %d cursors, store has %d shards",
			len(state.Cursors), st.ShardCount())
	}
	if state.EventPos > log.Len() {
		return nil, fmt.Errorf("audit: state event position %d beyond recovered log length %d",
			state.EventPos, log.Len())
	}
	e := New(st, log, cfg)
	e.mu.Lock()
	defer e.mu.Unlock()

	e.pos = state.EventPos
	copy(e.cursors, state.Cursors)

	e.viol[0] = append([]fairness.Violation(nil), state.Ax1Violations...)
	e.ax1Census.add(state.Ax1Pairs)
	e.viol[1] = append([]fairness.Violation(nil), state.Ax2Violations...)
	e.ax2Census.add(state.Ax2Pairs)
	for id, vs := range state.Ax3Violations {
		e.ax3[id] = append([]fairness.Violation(nil), vs...)
	}
	for id, n := range state.Ax3Checked {
		e.ax3Checked[id] = n
	}
	for id, v := range state.Ax4Violations {
		e.ax4[id] = v
	}
	for _, id := range state.Ax4Eligible {
		e.ax4Eligible[id] = true
	}
	e.buildIndexes()
	e.primed, e.flat = true, false
	return e, nil
}
