package fairness_test

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/fairness"
	"repro/internal/model"
	"repro/internal/similarity"
	"repro/internal/store"
)

// This file is a naive reference of the paper's five fairness axioms
// (§3.2.1), written straight from their statements as O(n²) loops over the
// store and the event log. It shares no code with the checkers beyond the
// pairwise similarity definitions (ContributionSimilarity and
// AttrPolicy.Similarity): no candidate index, no access index, no parallel
// pool. Every optimised path in package fairness is held to it.

// refResult is the reference verdict: per axiom, the sorted violation keys
// (subjects and exact severity) and the number of units examined.
type refResult struct {
	keys    [5][]string
	checked [5]int
}

func violationKey(subjects []string, severity float64) string {
	return strings.Join(subjects, "|") + "@" + strconv.FormatFloat(severity, 'g', -1, 64)
}

// reference audits the trace under cfg's thresholds with the paper's own
// wording, skill similarity fixed to cosine (the default measure).
func reference(st *store.Store, log *eventlog.Log, cfg fairness.Config) refResult {
	var r refResult
	add := func(ax int, sev float64, subjects ...string) {
		r.keys[ax-1] = append(r.keys[ax-1], violationKey(subjects, sev))
	}
	offers := map[string]map[string]bool{}   // worker -> tasks shown
	audience := map[string]map[string]bool{} // task -> workers reached
	flagged := map[model.WorkerID]bool{}
	for _, e := range log.Events() {
		switch e.Type {
		case eventlog.TaskOffered:
			put(offers, string(e.Worker), string(e.Task))
			put(audience, string(e.Task), string(e.Worker))
		case eventlog.WorkerFlagged:
			flagged[e.Worker] = true
		}
	}
	policy := *cfg.AttrPolicy

	// Axiom 1: similar attributes, computed attributes and skills → the
	// same tasks.
	ws := st.Workers() // sorted by id, so a.ID < b.ID below
	for i, a := range ws {
		for _, b := range ws[i+1:] {
			r.checked[0]++
			if cosine(a.Skills, b.Skills) < cfg.SkillThreshold ||
				policy.Similarity(a.Declared, b.Declared) < cfg.AttrThreshold ||
				policy.Similarity(a.Computed, b.Computed) < cfg.AttrThreshold {
				continue
			}
			if o := jaccard(offers[string(a.ID)], offers[string(b.ID)]); o < cfg.AccessThreshold {
				add(1, cfg.AccessThreshold-o, string(a.ID), string(b.ID))
			}
		}
	}

	// Axiom 2: tasks of different requesters with similar skills and
	// comparable rewards → the same audience.
	ts := st.Tasks()
	for i, a := range ts {
		for _, b := range ts[i+1:] {
			if a.Requester == b.Requester {
				continue
			}
			r.checked[1]++
			if cosine(a.Skills, b.Skills) < cfg.SkillThreshold || !within(a.Reward, b.Reward, cfg.RewardTolerance) {
				continue
			}
			if o := jaccard(audience[string(a.ID)], audience[string(b.ID)]); o < cfg.AccessThreshold {
				add(2, cfg.AccessThreshold-o, string(a.ID), string(b.ID))
			}
		}
	}

	// Axiom 3: similar contributions of distinct workers to one task → the
	// same pay.
	for _, t := range ts {
		cs := st.ContributionsByTask(t.ID)
		for i := range cs {
			for j := i + 1; j < len(cs); j++ {
				if cs[i].Worker == cs[j].Worker {
					continue
				}
				r.checked[2]++
				if similarity.ContributionSimilarity(cs[i], cs[j]) < cfg.ContributionThreshold ||
					within(cs[i].Paid, cs[j].Paid, cfg.PayTolerance) {
					continue
				}
				add(3, math.Abs(cs[i].Paid-cs[j].Paid)/math.Max(cs[i].Paid, cs[j].Paid), string(cs[i].ID), string(cs[j].ID))
			}
		}
	}

	// Axiom 4: a worker below the 0.5 acceptance spam line must have been
	// flagged; workers without an acceptance history are not judged.
	for _, w := range ws {
		v, ok := w.Computed[model.AttrAcceptanceRatio]
		if !ok || v.Kind != model.AttrNum {
			continue
		}
		r.checked[3]++
		if v.Num < 0.5 && !flagged[w.ID] {
			add(4, 0.5-v.Num, string(w.ID))
		}
	}

	// Axiom 5: a started task must not be interrupted before submission.
	started := map[[2]string]bool{}
	for _, e := range log.Events() {
		k := [2]string{string(e.Worker), string(e.Task)}
		switch e.Type {
		case eventlog.TaskStarted:
			started[k] = true
			r.checked[4]++
		case eventlog.TaskSubmitted:
			delete(started, k)
		case eventlog.TaskInterrupted:
			if started[k] {
				add(5, 1, string(e.Worker))
				delete(started, k)
			}
		}
	}
	for i := range r.keys {
		sort.Strings(r.keys[i])
	}
	return r
}

func put(m map[string]map[string]bool, k, v string) {
	if m[k] == nil {
		m[k] = map[string]bool{}
	}
	m[k][v] = true
}

// cosine is shared skills over the geometric mean of the set counts (skill
// vectors span one universe, so they have one length); two skill-less
// vectors are identical.
func cosine(a, b model.SkillVector) float64 {
	dot, na, nb := 0, 0, 0
	for i := range a {
		if a[i] {
			na++
		}
		if b[i] {
			nb++
		}
		if a[i] && b[i] {
			dot++
		}
	}
	if na == 0 && nb == 0 {
		return 1
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return float64(dot) / math.Sqrt(float64(na*nb))
}

// jaccard is |a∩b| / |a∪b|; two empty sets are identical.
func jaccard(a, b map[string]bool) float64 {
	shared := 0
	for x := range a {
		if b[x] {
			shared++
		}
	}
	if union := len(a) + len(b) - shared; union > 0 {
		return float64(shared) / float64(union)
	}
	return 1
}

// within reports a relative difference (to the larger magnitude) of at most
// tol; two zeros are equal.
func within(a, b, tol float64) bool {
	hi := math.Max(math.Abs(a), math.Abs(b))
	return hi == 0 || math.Abs(a-b)/hi <= tol
}

// reportKeys renders checker reports in the reference's form.
func reportKeys(reps []*fairness.Report) (r refResult) {
	for i, rep := range reps {
		for _, v := range rep.Violations {
			r.keys[i] = append(r.keys[i], violationKey(v.Subjects, v.Severity))
		}
		sort.Strings(r.keys[i])
		r.checked[i] = rep.Checked
	}
	return r
}

// missing returns the first key of got absent from want, or "".
func missing(got, want []string) string {
	in := map[string]int{}
	for _, k := range want {
		in[k]++
	}
	for _, k := range got {
		if in[k]--; in[k] < 0 {
			return k
		}
	}
	return ""
}

// TestCheckersMatchReference holds every checker backend to the reference:
// the exact index and the exhaustive scan report exactly its violations
// (the exhaustive scan also its pair counts), and LSH pruning reports a
// subset of them.
func TestCheckersMatchReference(t *testing.T) {
	for _, sc := range []struct {
		seed           uint64
		workers, tasks int
	}{{1, 50, 20}, {2, 90, 40}, {3, 140, 50}, {4, 200, 60}} {
		st, log := refTrace(t, sc.seed, sc.workers, sc.tasks)
		cfg := fairness.DefaultConfig()
		ref := reference(st, log, cfg)
		exh, lsh := cfg, cfg
		exh.Exhaustive = true
		lsh.CandidateIndex, lsh.LSHSeed = fairness.CandidateLSH, sc.seed
		exact, full, pruned := reportKeys(fairness.CheckAll(st, log, cfg)),
			reportKeys(fairness.CheckAll(st, log, exh)), reportKeys(fairness.CheckAll(st, log, lsh))
		for ax, want := range ref.keys {
			if len(want) == 0 {
				t.Fatalf("seed %d: the fixture has no Axiom %d violation", sc.seed, ax+1)
			}
			for name, got := range map[string][]string{"exact": exact.keys[ax], "exhaustive": full.keys[ax]} {
				if k, k2 := missing(got, want), missing(want, got); k != "" || k2 != "" {
					t.Errorf("seed %d Axiom %d %s: reported %q beyond the reference, missed %q", sc.seed, ax+1, name, k, k2)
				}
			}
			if full.checked[ax] != ref.checked[ax] {
				t.Errorf("seed %d Axiom %d: exhaustive checked %d, reference %d", sc.seed, ax+1, full.checked[ax], ref.checked[ax])
			}
			if k := missing(pruned.keys[ax], want); k != "" {
				t.Errorf("seed %d Axiom %d: LSH reported %q, the reference did not", sc.seed, ax+1, k)
			}
		}
	}
}
