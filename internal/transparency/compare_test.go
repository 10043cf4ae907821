package transparency

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestCompareDisjointAndShared(t *testing.T) {
	a := MustParse(`policy "alpha" {
		disclose requester.hourly_wage to workers always;
		disclose task.reward to workers always;
	}`)
	b := MustParse(`policy "beta" {
		disclose task.reward to workers always;
		disclose worker.performance to workers always;
	}`)
	cmp := Compare(a, b)
	if len(cmp.OnlyA) != 1 || cmp.OnlyA[0].Field != "hourly_wage" {
		t.Fatalf("OnlyA = %v", cmp.OnlyA)
	}
	if len(cmp.OnlyB) != 1 || cmp.OnlyB[0].Field != "performance" {
		t.Fatalf("OnlyB = %v", cmp.OnlyB)
	}
	if len(cmp.Shared) != 1 || cmp.Shared[0].Field != "reward" {
		t.Fatalf("Shared = %v", cmp.Shared)
	}
	if len(cmp.Weaker) != 0 {
		t.Fatalf("Weaker = %v", cmp.Weaker)
	}
}

func TestCompareDetectsWeakerGating(t *testing.T) {
	a := MustParse(`policy "open" {
		disclose task.reward to workers always;
	}`)
	b := MustParse(`policy "gated" {
		disclose task.reward to workers when worker.completed >= 100;
	}`)
	cmp := Compare(a, b)
	if len(cmp.Weaker) != 1 || cmp.Weaker[0].WeakerSide != "gated" {
		t.Fatalf("Weaker = %v", cmp.Weaker)
	}
	out := cmp.String()
	if !strings.Contains(out, "weaker on task.reward") {
		t.Errorf("rendering:\n%s", out)
	}
}

func TestCompareUsesLeastRestrictiveRule(t *testing.T) {
	// A policy with both a gated and an open rule for the same field
	// counts as open.
	a := MustParse(`policy "a" {
		disclose task.reward to workers when worker.completed >= 100;
		disclose task.reward to workers always;
	}`)
	b := MustParse(`policy "b" {
		disclose task.reward to workers always;
	}`)
	cmp := Compare(a, b)
	if len(cmp.Weaker) != 0 {
		t.Fatalf("Weaker = %v", cmp.Weaker)
	}
}

func TestTransparencyScoreMonotone(t *testing.T) {
	cat := StandardCatalogue()
	empty := &Policy{Name: "empty"}
	one := MustParse(`policy "one" { disclose task.reward to workers always; }`)
	gatedOne := MustParse(`policy "gated" { disclose task.reward to workers when worker.completed >= 1; }`)

	sEmpty := TransparencyScore(empty, cat)
	sGated := TransparencyScore(gatedOne, cat)
	sOne := TransparencyScore(one, cat)
	if !(sEmpty < sGated && sGated < sOne) {
		t.Fatalf("scores not ordered: %v %v %v", sEmpty, sGated, sOne)
	}
	if sEmpty != 0 {
		t.Fatalf("empty score = %v", sEmpty)
	}
}

// Adding a rule never lowers the score: every catalogue field × audience ×
// trigger, with and without a condition, appended to fixed and random
// policies. In particular a less gated rule for requesters must not
// displace a field's worker rule.
func TestTransparencyScoreAddingARuleNeverLowersIt(t *testing.T) {
	cat := StandardCatalogue()
	triggerOnly := MustParse(`policy "a" { disclose task.reward to workers on task_view; }`)
	withRequesterRule := MustParse(`policy "a" {
		disclose task.reward to workers on task_view;
		disclose task.reward to requesters always;
	}`)
	if got, want := TransparencyScore(withRequesterRule, cat), TransparencyScore(triggerOnly, cat); got != want || want == 0 {
		t.Fatalf("adding a requester rule moved the score %v -> %v", want, got)
	}

	when := MustParse(`policy "c" { disclose task.reward to workers when worker.completed >= 1; }`).Rules[0].When
	audiences := []Audience{AudienceWorkers, AudienceRequesters, AudiencePublic}
	triggers := []Trigger{TriggerAlways, TriggerTaskView, TriggerSubmission, TriggerRejection, TriggerPayment, TriggerSignup}
	bases := []*Policy{{Name: "empty"}, triggerOnly, withRequesterRule}
	for seed := uint64(1); seed <= 20; seed++ {
		bases = append(bases, randomPolicy(stats.NewRNG(seed)))
	}
	for _, base := range bases {
		before := TransparencyScore(base, cat)
		for _, e := range cat.Entries() {
			for _, a := range audiences {
				for _, on := range triggers {
					for _, cond := range []Expr{nil, when} {
						r := &Rule{Field: e.Ref, To: a, On: on, When: cond}
						grown := &Policy{Name: base.Name, Rules: append(append([]*Rule(nil), base.Rules...), r)}
						if after := TransparencyScore(grown, cat); after < before {
							t.Fatalf("adding %q to %q lowered the score %v -> %v", r, base.Name, before, after)
						}
					}
				}
			}
		}
	}
}

func TestTransparencyScoreFullPolicy(t *testing.T) {
	cat := StandardCatalogue()
	full := &Policy{Name: "full"}
	for _, e := range cat.Entries() {
		full.Rules = append(full.Rules, &Rule{
			Field: e.Ref, To: AudienceWorkers, On: TriggerAlways,
		})
	}
	if got := TransparencyScore(full, cat); got != 1 {
		t.Fatalf("full score = %v, want 1", got)
	}
}

func TestTransparencyScoreIgnoresRequesterOnlyRules(t *testing.T) {
	cat := StandardCatalogue()
	pol := MustParse(`policy "x" { disclose worker.performance to requesters always; }`)
	if got := TransparencyScore(pol, cat); got != 0 {
		t.Fatalf("requester-only score = %v, want 0 (workers see nothing)", got)
	}
}

func TestPolicyFieldsAndRulesFor(t *testing.T) {
	pol := MustParse(`policy "x" {
		disclose task.reward to workers always;
		disclose task.reward to requesters always;
		disclose platform.requester_rating to public always;
	}`)
	if got := len(Compare(pol, pol).Shared); got != 2 {
		t.Fatalf("fields = %d", got)
	}
	if got := len(pol.RulesFor(AudienceWorkers)); got != 2 { // worker rule + public rule
		t.Fatalf("worker rules = %d", got)
	}
	if got := len(pol.RulesFor(AudienceRequesters)); got != 2 {
		t.Fatalf("requester rules = %d", got)
	}
}
