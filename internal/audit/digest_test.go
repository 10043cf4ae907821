package audit

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fairness"
	"repro/internal/stats"
)

// randViolation draws a pair violation whose subjects come from a small id
// space (so retractions, re-adds and collisions are all common) and whose
// detail is one of two wordings.
func randViolation(rng *stats.RNG) fairness.Violation {
	a, b := rng.Intn(12), rng.Intn(12)
	return fairness.Violation{
		Axiom:    fairness.Axiom3Compensation,
		Subjects: []string{fmt.Sprintf("c%02d", a), fmt.Sprintf("c%02d", b)},
		Detail:   []string{"paid 0.5 vs 2.0", "paid 2.0 vs 0.5"}[rng.Intn(2)],
		Severity: 0.75,
	}
}

func subjectKey(v fairness.Violation) string { return v.Subjects[0] + "|" + v.Subjects[1] }

func cloneViolations(vs []fairness.Violation) []fairness.Violation {
	var out []fairness.Violation // nil stays nil for reflect.DeepEqual
	for _, v := range vs {
		v.Subjects = append([]string(nil), v.Subjects...)
		out = append(out, v)
	}
	return out
}

// TestApplyMatchesSortedSetArithmetic is the fold helper's property test:
// over seeded random standing sets and deltas, apply's result is the sort of
// prev − gone + fresh, its change count and sum track exactly the entries
// whose rendering moved, a delta of identical retract/re-add pairs hands
// back prev itself, and no input slice is ever written.
func TestApplyMatchesSortedSetArithmetic(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := stats.NewRNG(seed)
		standing := make(map[string]fairness.Violation)
		for i := rng.Intn(30); i > 0; i-- {
			v := randViolation(rng)
			standing[subjectKey(v)] = v
		}
		var prev, gone, fresh []fairness.Violation
		for _, v := range standing {
			prev = append(prev, v)
		}
		fairness.SortViolations(prev)
		next := make(map[string]fairness.Violation, len(standing))
		for _, v := range prev {
			switch rng.Intn(4) {
			case 0: // retracted for good
				gone = append(gone, v)
			case 1: // re-examined, found again unchanged
				gone, fresh = append(gone, v), append(fresh, v)
				next[subjectKey(v)] = v
			case 2: // re-examined, found again with other wording
				w := v
				w.Detail += " (moved)"
				gone, fresh = append(gone, v), append(fresh, w)
				next[subjectKey(v)] = w
			default:
				next[subjectKey(v)] = v
			}
		}
		for i := rng.Intn(8); i > 0; i-- { // brand-new findings
			if v := randViolation(rng); next[subjectKey(v)].Subjects == nil && standing[subjectKey(v)].Subjects == nil {
				fresh = append(fresh, v)
				next[subjectKey(v)] = v
			}
		}
		fairness.SortViolations(fresh)

		var want []fairness.Violation
		wantChanged := 0
		for k, v := range next {
			want = append(want, v)
			if old, ok := standing[k]; !ok || old.String() != v.String() {
				wantChanged++
			}
		}
		for k, old := range standing {
			if v, ok := next[k]; !ok || old.String() != v.String() {
				wantChanged++
			}
		}
		fairness.SortViolations(want)

		prev0, gone0, fresh0 := cloneViolations(prev), cloneViolations(gone), cloneViolations(fresh)
		var sum vsum
		for _, v := range prev {
			sum.add(v)
		}
		got, changed := apply(prev, gone, fresh, &sum)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d violations, want %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i].String() != want[i].String() {
				t.Fatalf("seed %d, entry %d: %s, want %s", seed, i, got[i], want[i])
			}
		}
		if changed != wantChanged {
			t.Fatalf("seed %d: changed = %d, want %d", seed, changed, wantChanged)
		}
		var wantSum vsum
		for _, v := range want {
			wantSum.add(v)
		}
		if sum != wantSum {
			t.Fatalf("seed %d: running sum diverged from the sum over the result", seed)
		}
		if changed == 0 && len(prev) > 0 && &got[0] != &prev[0] {
			t.Fatalf("seed %d: a no-op delta reallocated the standing slice", seed)
		}
		if changed > 0 && len(prev) > 0 && len(got) > 0 && &got[0] == &prev[0] {
			t.Fatalf("seed %d: a changing delta wrote into the slice earlier passes handed out", seed)
		}
		if !reflect.DeepEqual(prev, prev0) || !reflect.DeepEqual(gone, gone0) || !reflect.DeepEqual(fresh, fresh0) {
			t.Fatalf("seed %d: apply mutated an input slice", seed)
		}
	}
}

// TestSumIsOrderFreeAndInvertible pins the two properties the running digest
// rests on: the sum does not depend on insertion order, and subtracting what
// was added restores it exactly (including across limb carries).
func TestSumIsOrderFreeAndInvertible(t *testing.T) {
	rng := stats.NewRNG(7)
	vs := make([]fairness.Violation, 64)
	for i := range vs {
		vs[i] = randViolation(rng)
		vs[i].Detail = fmt.Sprintf("%s #%d", vs[i].Detail, i)
	}
	var fwd, rev, shuffled vsum
	for i := range vs {
		fwd.add(vs[i])
		rev.add(vs[len(vs)-1-i])
	}
	for _, i := range rng.Perm(len(vs)) {
		shuffled.add(vs[i])
	}
	if fwd != rev || fwd != shuffled {
		t.Fatal("sum depends on insertion order")
	}
	if fwd == (vsum{}) {
		t.Fatal("sum of 64 violations is zero")
	}
	half := fwd
	for _, v := range vs[:32] {
		half.sub(v)
	}
	var tail vsum
	for _, v := range vs[32:] {
		tail.add(v)
	}
	if half != tail {
		t.Fatal("subtracting a prefix does not leave the suffix's sum")
	}
	for _, v := range vs[32:] {
		half.sub(v)
	}
	if half != (vsum{}) {
		t.Fatal("add-then-subtract is not the identity")
	}
	// Below zero and back: subtraction wraps mod 2²⁵⁶ the way addition does.
	var wrap vsum
	wrap.sub(vs[0])
	wrap.add(vs[0])
	if wrap != (vsum{}) {
		t.Fatal("sub-then-add across zero is not the identity")
	}

	// The fingerprint built on it ignores violation order but nothing else.
	a := []*fairness.Report{{Axiom: fairness.Axiom3Compensation, Checked: 9, Violations: vs[:8]}}
	perm := append([]fairness.Violation(nil), vs[:8]...)
	perm[0], perm[5] = perm[5], perm[0]
	if Fingerprint(a) != Fingerprint([]*fairness.Report{{Axiom: fairness.Axiom3Compensation, Checked: 9, Violations: perm}}) {
		t.Fatal("fingerprint depends on violation order")
	}
	for name, b := range map[string]*fairness.Report{
		"checked":   {Axiom: fairness.Axiom3Compensation, Checked: 10, Violations: vs[:8]},
		"axiom":     {Axiom: fairness.Axiom4MaliciousDetection, Checked: 9, Violations: vs[:8]},
		"violation": {Axiom: fairness.Axiom3Compensation, Checked: 9, Violations: vs[1:9]},
	} {
		if Fingerprint(a) == Fingerprint([]*fairness.Report{b}) {
			t.Fatalf("fingerprint ignores a differing %s", name)
		}
	}
}
